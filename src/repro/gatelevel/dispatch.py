"""Engine dispatch for fault simulation.

One factory, :func:`make_fault_simulator`, resolves a
:class:`repro.core.config.FaultSimConfig` engine choice into a concrete
simulator: the PPSFP behavioral-table engine
(:class:`repro.gatelevel.ppsfp.PpsfpSimulator`) or the compiled big-int
parallel-fault engine
(:class:`repro.gatelevel.compiled.CompiledFaultSimulator`).  Both expose
``detect_mask`` / ``detect_masks`` / ``detects`` /
``make_effective_simulator`` over the same fault-bit order, and produce
bit-identical masks — the dispatch decision only ever affects speed.

The module exists so call sites (harness selections, the perf engine, the
fuzz oracle) need neither import both engines nor re-implement the
``auto`` heuristic; it imports only the two engines, the detectability
oracle and the config, which keeps the package free of import cycles.

:func:`detectable_mask` answers the other question grading asks of a
universe — which faults can any scan test detect — from whichever
simulator was built: a PPSFP simulator reads it off its tables, a compiled
one falls back to the cone-resimulation oracle.
"""

from __future__ import annotations

from typing import Sequence, Union

from repro.core.config import FaultSimConfig
from repro.fsm.state_table import StateTable
from repro.gatelevel.compiled import CompiledFaultSimulator
from repro.gatelevel.detectability import assigned_pattern_mask, detectable_faults
from repro.gatelevel.ppsfp import PpsfpSimulator
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import StuckAtFault
from repro.gatelevel.bridging import BridgingFault

__all__ = [
    "FaultSimulator",
    "detectable_mask",
    "make_fault_simulator",
    "partition_by_mask",
]

Fault = Union[StuckAtFault, BridgingFault]
FaultSimulator = Union[PpsfpSimulator, CompiledFaultSimulator]


def make_fault_simulator(
    circuit: ScanCircuit,
    table: StateTable,
    faults: Sequence[Fault],
    config: FaultSimConfig | None = None,
    *,
    total_test_cycles: int | None = None,
) -> FaultSimulator:
    """Build the fault simulator ``config`` selects for this universe.

    ``total_test_cycles`` — when the caller already knows how many clock
    cycles it is about to simulate (sum of test lengths x expected passes)
    — lets the ``auto`` heuristic reject a PPSFP table build that would
    cost more than the big-int simulation it replaces.

    An *empty* universe always gets the PPSFP engine (the compiled engine
    rejects empty universes; PPSFP returns mask 0 for every test), so
    callers can treat "nothing to simulate" uniformly.
    """
    config = config or FaultSimConfig()
    engine = config.select_engine(
        len(faults),
        circuit.n_state_variables + circuit.n_primary_inputs,
        total_test_cycles,
    )
    if not faults:
        return PpsfpSimulator(circuit, table, faults)
    if engine == "ppsfp":
        if config.engine == "auto" and circuit.n_primary_outputs > 32:
            # PPSFP tables hold output combos in uint32 cells; auto never
            # picks an engine that would refuse the circuit.
            return CompiledFaultSimulator(circuit, table, faults)
        return PpsfpSimulator(circuit, table, faults)
    return CompiledFaultSimulator(circuit, table, faults)


def detectable_mask(simulator: FaultSimulator) -> int:
    """Bit mask (over ``simulator.faults``) of the faults some scan test
    detects, judged over the assigned state codes.

    Chooses by the simulator actually built, never by re-running the
    ``auto`` heuristic: a :class:`PpsfpSimulator` compares its tables with
    the fault-free machine (no netlist evaluation); a
    :class:`CompiledFaultSimulator` has no tables, so its universe goes
    through the cone-resimulation oracle.  Both give the same verdicts.
    """
    if isinstance(simulator, PpsfpSimulator):
        return simulator.detectable_mask()
    circuit = simulator.circuit
    detectable, _ = detectable_faults(
        circuit.netlist,
        simulator.faults,
        pattern_mask=assigned_pattern_mask(
            circuit.encoding, circuit.n_primary_inputs
        ),
    )
    mask = 0
    for bit, fault in enumerate(simulator.faults):
        if fault in detectable:
            mask |= 1 << bit
    return mask


def partition_by_mask(
    faults: Sequence[Fault], mask: int
) -> tuple[set[Fault], set[Fault]]:
    """``(faults whose bit is set in mask, the rest)``."""
    detectable: set[Fault] = set()
    undetectable: set[Fault] = set()
    for bit, fault in enumerate(faults):
        (detectable if mask >> bit & 1 else undetectable).add(fault)
    return detectable, undetectable
