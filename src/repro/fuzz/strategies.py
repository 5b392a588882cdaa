"""Hypothesis strategies over the fuzzer's machine generators.

The property-test suites and the differential fuzzer draw from the same
pool of machines (:func:`netlists` adds raw gate-level DAGs for the
structural passes): a Hypothesis strategy here is just ``st.builds`` over
:class:`repro.fuzz.generators.MachineSpec`, mapped through
:func:`repro.fuzz.generators.generate_machine`.  Because the spec is a
handful of integers, Hypothesis shrinks failures toward small variants,
states, widths, and seeds — and any failing example can be reproduced
outside Hypothesis by constructing the same spec by hand.

This module imports :mod:`hypothesis` and is therefore only importable in
test environments; it is deliberately *not* re-exported from
``repro.fuzz`` (the runtime subsystem must not depend on a test library).
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.fuzz.generators import MACHINE_VARIANTS, MachineSpec, generate_machine
from repro.gatelevel.netlist import GateType, Netlist

__all__ = ["machine_specs", "netlists", "state_tables"]


def machine_specs(
    min_states: int = 1,
    max_states: int = 6,
    min_inputs: int = 0,
    max_inputs: int = 2,
    min_outputs: int = 0,
    max_outputs: int = 2,
    variants: tuple[str, ...] = MACHINE_VARIANTS,
) -> st.SearchStrategy[MachineSpec]:
    """Strategy over :class:`MachineSpec` values within the given bounds.

    Unlike the fuzz CLI's spec stream, widths may go down to zero — the
    paper's procedures are defined for output-less and input-less machines
    too, and the property tests cover those corners (only the KISS corpus
    format cannot express them).
    """
    return st.builds(
        MachineSpec,
        variant=st.sampled_from(list(variants)),
        n_states=st.integers(min_states, max_states),
        n_inputs=st.integers(min_inputs, max_inputs),
        n_outputs=st.integers(min_outputs, max_outputs),
        seed=st.integers(0, 2**32 - 1),
    )


def state_tables(
    min_states: int = 1,
    max_states: int = 6,
    min_inputs: int = 0,
    max_inputs: int = 2,
    min_outputs: int = 0,
    max_outputs: int = 2,
    variants: tuple[str, ...] = MACHINE_VARIANTS,
) -> st.SearchStrategy:
    """Strategy over generated :class:`repro.fsm.state_table.StateTable`."""
    return machine_specs(
        min_states, max_states, min_inputs, max_inputs, min_outputs, max_outputs,
        variants,
    ).map(generate_machine)


@st.composite
def netlists(draw: st.DrawFn, max_gates: int = 24) -> Netlist:
    """Strategy over random netlists of the synthesized gate library.

    One to four inputs; every other gate is CONST0, NOT, or a 2–4-input
    AND/OR over distinct earlier lines, so the DAG has reconvergent
    fanout, dangling lines, and proven constants; one to four lines are
    outputs.
    """
    netlist = Netlist()
    for _ in range(draw(st.integers(1, 4))):
        netlist.add_input()
    kinds = [GateType.CONST0, GateType.NOT, GateType.AND, GateType.OR]
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(kinds))
        lines = st.integers(0, netlist.n_gates - 1)
        if kind is GateType.CONST0:
            fanins: list[int] = []
        elif kind is GateType.NOT or netlist.n_gates < 2:
            kind, fanins = GateType.NOT, [draw(lines)]
        else:
            width = min(4, netlist.n_gates)
            fanins = draw(st.lists(lines, min_size=2, max_size=width, unique=True))
        netlist.add_gate(kind, fanins)
    lines = st.integers(0, netlist.n_gates - 1)
    netlist.set_outputs(draw(st.lists(lines, min_size=1, max_size=4, unique=True)))
    return netlist
