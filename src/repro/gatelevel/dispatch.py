"""Engine dispatch for fault simulation: one chunk rule, one factory.

:func:`fault_chunks` cuts a universe into the contiguous, balanced chunks
every caller simulates — the sweep (:mod:`repro.perf.engine`), ATPG's
witness replay, the fault dictionary, the §3 stuck-at ATPG and the
transition-delay simulator alike: on PPSFP each chunk's table fits
:data:`repro.core.config.DEFAULT_PPSFP_BYTE_BUDGET`, on the reference
chunks take :func:`repro.core.config.adaptive_batch_bits` sizes.
:func:`make_fault_simulator` builds one chunk's simulator: the production
engine (:class:`repro.gatelevel.ppsfp.PpsfpSimulator`), or the interpreted
reference (:class:`repro.gatelevel.fault_sim.InterpretedSimulator`) when
``bigint`` is forced or no PPSFP table can represent the circuit.  Both
expose ``circuit`` / ``faults`` / ``detect_mask(s)`` / ``detects`` over the
same fault-bit order with bit-identical masks, and detection of a fault
never depends on which other faults share its chunk, so neither engine
nor chunking ever changes a result.  :func:`detectable_mask` reads which
faults of a chunk any scan test detects off the simulator built.
"""

from __future__ import annotations

from typing import Sequence, TypeVar, Union

from repro.core import config as fault_sim_config
from repro.core.config import FaultSimConfig, adaptive_batch_bits, table_cell_bytes
from repro.core.testset import ScanTest
from repro.errors import FaultSimulationError
from repro.fsm.state_table import StateTable
from repro.gatelevel.bridging import BridgingFault
from repro.gatelevel.detectability import assigned_pattern_mask, detectable_faults
from repro.gatelevel.fault_sim import InterpretedSimulator
from repro.gatelevel.ppsfp import PpsfpSimulator
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import StuckAtFault

__all__ = [
    "FaultSimulator",
    "circuit_chunks",
    "detectable_mask",
    "detection_masks",
    "fault_chunks",
    "make_fault_simulator",
    "partition_by_mask",
]

Fault = Union[StuckAtFault, BridgingFault]
FaultSimulator = Union[PpsfpSimulator, InterpretedSimulator]
F = TypeVar("F")


def _ppsfp_chunk_limit(n_pattern_bits: int, cell_bits: int) -> int:
    """The most faults one PPSFP table may hold within the byte budget
    (at least one)."""
    cell_bytes = table_cell_bytes(cell_bits)
    if cell_bytes is None:
        raise FaultSimulationError(
            "PPSFP cells hold a next-state code and an output combination in "
            f"at most 64 bits; a {cell_bits}-bit cell exceeds that"
        )
    budget = fault_sim_config.DEFAULT_PPSFP_BYTE_BUDGET
    return max(1, budget // (cell_bytes << n_pattern_bits))


def fault_chunks(
    faults: Sequence[F],
    config: FaultSimConfig,
    n_pattern_bits: int,
    *,
    cell_bits: int,
) -> tuple[str, list[list[F]]]:
    """The engine and the contiguous, balanced chunks of one universe.

    ``n_pattern_bits`` is the circuit's state plus input bits and
    ``cell_bits`` its state plus output bits.  On PPSFP a chunk holds at
    most as many faults as fit one table in the byte budget (at least
    one), so a universe over the budget becomes ``ceil(faults / limit)``
    chunks of near-equal size; on the reference, chunks take
    :func:`~repro.core.config.adaptive_batch_bits` sizes.  Boundaries are
    jobs-invariant and never affect results.
    """
    engine = config.select_engine(cell_bits=cell_bits)
    n = len(faults)
    if n == 0:
        return engine, []
    if engine == "ppsfp":
        n_chunks = -(-n // _ppsfp_chunk_limit(n_pattern_bits, cell_bits))
        size = -(-n // n_chunks)
    else:
        size = adaptive_batch_bits(n)
    return engine, [list(faults[start : start + size]) for start in range(0, n, size)]


def _dimensions(circuit: ScanCircuit) -> tuple[int, int]:
    """``(pattern bits, cell bits)`` of the circuit's PPSFP table."""
    sv = circuit.n_state_variables
    return sv + circuit.n_primary_inputs, sv + circuit.n_primary_outputs


def circuit_chunks(
    circuit: ScanCircuit,
    faults: Sequence[F],
    config: FaultSimConfig | None = None,
) -> tuple[str, list[list[F]]]:
    """:func:`fault_chunks` of ``faults`` at ``circuit``'s table dimensions."""
    pattern_bits, cell_bits = _dimensions(circuit)
    return fault_chunks(
        faults, config or FaultSimConfig(), pattern_bits, cell_bits=cell_bits
    )


def make_fault_simulator(
    circuit: ScanCircuit,
    table: StateTable,
    faults: Sequence[Fault],
    config: FaultSimConfig | None = None,
) -> FaultSimulator:
    """Build the fault simulator ``config`` selects for one chunk.

    A PPSFP chunk must fit the byte budget; cut larger universes with
    :func:`fault_chunks` first.  An *empty* universe always gets the PPSFP
    engine (the reference rejects empty batches; PPSFP returns mask 0 for
    every test), so callers can treat "nothing to simulate" uniformly.
    """
    if not faults:
        return PpsfpSimulator(circuit, table, faults)
    pattern_bits, cell_bits = _dimensions(circuit)
    engine = (config or FaultSimConfig()).select_engine(cell_bits=cell_bits)
    if engine == "bigint":
        return InterpretedSimulator(circuit, table, faults)
    limit = _ppsfp_chunk_limit(pattern_bits, cell_bits)
    if len(faults) > limit:
        raise FaultSimulationError(
            f"a PPSFP table of {len(faults)} faults is over the byte budget "
            f"(at most {limit} at {pattern_bits} pattern bits); cut the "
            "universe with fault_chunks"
        )
    return PpsfpSimulator(circuit, table, faults)


def detection_masks(
    circuit: ScanCircuit,
    table: StateTable,
    faults: Sequence[Fault],
    tests: Sequence[ScanTest],
    config: FaultSimConfig | None = None,
) -> list[int]:
    """One detection mask per test over all of ``faults`` (bit ``i`` is
    ``faults[i]``), simulated on :func:`circuit_chunks` one chunk's
    simulator at a time."""
    engine, chunks = circuit_chunks(circuit, faults, config)
    masks = [0] * len(tests)
    offset = 0
    for chunk in chunks:
        # A temporary simulator: each chunk's table is freed before the
        # next one is built.
        chunk_masks = make_fault_simulator(
            circuit, table, chunk, FaultSimConfig(engine)
        ).detect_masks(tests)
        for index, mask in enumerate(chunk_masks):
            masks[index] |= mask << offset
        offset += len(chunk)
    return masks


def detectable_mask(simulator: FaultSimulator) -> int:
    """Bit mask (over ``simulator.faults``) of the faults some scan test
    detects, judged over the assigned state codes.

    Chooses by the simulator actually built: a :class:`PpsfpSimulator`
    compares its tables with the fault-free machine (no netlist
    evaluation); an :class:`InterpretedSimulator` has no tables, so its
    chunk goes through the cone-resimulation oracle.  Both give the same
    verdicts.
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
