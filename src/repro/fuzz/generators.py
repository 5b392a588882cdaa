"""Seeded random generators for machines and fault universes.

Everything the fuzzer feeds to an oracle is produced here, deterministically
from a :class:`MachineSpec` — the same ``(variant, sizes, seed)`` always
yields the same machine, so any failure reported by the CLI can be
reproduced from the numbers in its report alone.

Variants
--------
``dense``
    Every table entry drawn independently (:func:`repro.fsm.builders.
    random_dense_table`).  Explores corners cube-structured machines cannot
    reach: heavy next-state fan-in, states reachable under exactly one
    combination, equivalent-state clusters.
``strongly-connected``
    Dense, plus one redirected column per state embedding the cycle
    ``s -> s + 1`` — every state reachable from every other, the shape the
    transfer-sequence machinery is most exercised by.
``cube``
    Cube-structured like real KISS benchmarks
    (:func:`repro.fsm.builders.random_cube_machine`).
``uio-poor``
    Cube-structured with sparse outputs (high zero bias), which starves
    states of UIO sequences the way the MCNC circuits do — stressing the
    postpone rule and the length-1 fallback of the generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.errors import FuzzError
from repro.fsm.builders import random_cube_machine, random_dense_table
from repro.fsm.state_table import StateTable
from repro.gatelevel.bridging import BridgingFault, enumerate_bridging_faults
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import StuckAtFault, collapse_stuck_at

__all__ = [
    "BRIDGING_LIMIT",
    "MACHINE_VARIANTS",
    "MachineSpec",
    "generate_machine",
    "random_gate_faults",
    "spec_stream",
]

Fault = StuckAtFault | BridgingFault

#: Generator variants, in the order the spec stream cycles through them.
MACHINE_VARIANTS: tuple[str, ...] = (
    "dense",
    "strongly-connected",
    "cube",
    "uio-poor",
)


@dataclass(frozen=True)
class MachineSpec:
    """Complete recipe for one generated machine (a pure value)."""

    variant: str
    n_states: int
    n_inputs: int
    n_outputs: int
    seed: int

    def __post_init__(self) -> None:
        if self.variant not in MACHINE_VARIANTS:
            raise FuzzError(
                f"unknown machine variant {self.variant!r}; "
                f"known: {', '.join(MACHINE_VARIANTS)}"
            )
        if self.n_states < 1:
            raise FuzzError("a machine spec needs at least one state")
        if self.n_inputs < 0 or self.n_outputs < 0:
            raise FuzzError("machine spec widths must be non-negative")

    def label(self) -> str:
        """Compact, filename-safe identity used in reports and case names."""
        return (
            f"{self.variant}-s{self.n_states}i{self.n_inputs}"
            f"o{self.n_outputs}-{self.seed:08x}"
        )


def generate_machine(spec: MachineSpec) -> StateTable:
    """The completely specified Mealy machine described by ``spec``."""
    if spec.variant == "dense":
        table = random_dense_table(
            spec.n_inputs, spec.n_states, spec.n_outputs, spec.seed
        )
    elif spec.variant == "strongly-connected":
        table = random_dense_table(
            spec.n_inputs,
            spec.n_states,
            spec.n_outputs,
            spec.seed,
            strongly_connected=True,
        )
    elif spec.variant == "cube":
        table = random_cube_machine(
            spec.n_inputs, spec.n_states, spec.n_outputs, spec.seed
        ).to_state_table()
    else:  # uio-poor
        table = random_cube_machine(
            spec.n_inputs,
            spec.n_states,
            spec.n_outputs,
            spec.seed,
            output_zero_bias=0.85,
        ).to_state_table()
    return table.renamed(spec.label())


def spec_stream(
    n_cases: int,
    seed: int,
    max_states: int = 10,
    max_inputs: int = 3,
    max_outputs: int = 3,
) -> Iterator[MachineSpec]:
    """A deterministic stream of ``n_cases`` machine specs.

    Sizes are drawn uniformly with floors of one state, one input bit, and
    one output bit (zero-width machines cannot round-trip through the KISS
    corpus format; the Hypothesis strategies cover those corners instead).
    """
    if n_cases < 0:
        raise FuzzError("n_cases must be non-negative")
    if max_states < 1 or max_inputs < 1 or max_outputs < 1:
        raise FuzzError("spec stream bounds must be at least 1")
    rng = random.Random(f"repro-fuzz-stream:{seed}")
    for index in range(n_cases):
        variant = MACHINE_VARIANTS[index % len(MACHINE_VARIANTS)]
        yield MachineSpec(
            variant,
            rng.randint(1, max_states),
            rng.randint(1, max_inputs),
            rng.randint(1, max_outputs),
            rng.getrandbits(32),
        )


#: Bridging pairs sampled into each case's gate-level fault universe.
BRIDGING_LIMIT = 16


def random_gate_faults(
    circuit: ScanCircuit,
    seed: int | str,
    bridging_limit: int = BRIDGING_LIMIT,
) -> list[Fault]:
    """A deterministic mixed stuck-at + bridging universe for ``circuit``.

    Collapsed stuck-at representatives plus a seeded sample of paper-
    condition bridging faults, in a stable order (stuck-at first), so the
    same ``(circuit, seed)`` always produces the same universe.
    """
    faults: list[Fault] = sorted(set(collapse_stuck_at(circuit.netlist).values()))
    faults.extend(
        enumerate_bridging_faults(circuit.netlist, limit=bridging_limit, seed=seed)
    )
    return faults
