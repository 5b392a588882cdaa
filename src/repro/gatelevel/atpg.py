"""Gate-level stuck-at ATPG for full-scan circuits (the paper's comparison).

Section 3 of the paper remarks:

    "A gate-level stuck-at test generation procedure applied to the
    full-scan circuits may yield numbers of tests and numbers of clock
    cycles that are better than the ones of Tables 6 and 7.  However, it
    is not guaranteed to detect all the bridging faults."

This module provides that gate-level procedure so the remark can be
measured.  Under full scan, a stuck-at test is one combinational pattern
(state code + primary inputs) applied as a length-1 scan test.  The
generator computes, for every target fault, the exact set of patterns
detecting it (the same machinery as the exhaustive detectability oracle,
kept per-pattern instead of collapsed to a yes/no), then greedily covers
all detectable faults with as few patterns as possible — an idealized ATPG
with perfect fault-detection knowledge, i.e. an upper bound on what any
deterministic stuck-at ATPG could achieve in test-count terms.

The resulting tests are ordinary :class:`~repro.core.testset.ScanTest`
objects, so every grader in the library (bridging, delay, functional) can
evaluate them directly against the paper's functional tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.testset import ScanTest, Segment, SegmentKind, TestSet
from repro.errors import FaultSimulationError
from repro.fsm.state_table import StateTable
from repro.gatelevel.bridging import BridgingFault
from repro.gatelevel.detectability import (
    _activation,
    _with_cones,
    assigned_pattern_mask,
    fault_free_values,
    output_difference_words,
)
from repro.gatelevel.netlist import Netlist, unpack_bits
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import StuckAtFault

__all__ = ["AtpgResult", "detection_words", "generate_stuck_at_atpg"]

Fault = StuckAtFault | BridgingFault


def detection_words(
    netlist: Netlist,
    faults: list[Fault],
    ff: np.ndarray | None = None,
    pattern_mask: np.ndarray | None = None,
) -> dict[Fault, np.ndarray]:
    """For each fault, the word mask of patterns detecting it."""
    if ff is None:
        ff = fault_free_values(netlist)
    result: dict[Fault, np.ndarray] = {}
    for fault, dirty in _with_cones(netlist, faults):
        activation = _activation(ff, fault, netlist, 0, ff.shape[1])
        if pattern_mask is not None:
            activation = activation & pattern_mask
        if not np.any(activation):
            result[fault] = np.zeros(ff.shape[1], dtype=np.uint64)
            continue
        words = output_difference_words(netlist, ff, fault, dirty)
        if pattern_mask is not None:
            words &= pattern_mask
        result[fault] = words
    return result


@dataclass
class AtpgResult:
    """Outcome of the idealized gate-level stuck-at ATPG."""

    test_set: TestSet
    target_faults: tuple[Fault, ...]
    undetectable: tuple[Fault, ...]

    @property
    def n_tests(self) -> int:
        return self.test_set.n_tests

    @property
    def coverage_pct(self) -> float:
        total = len(self.target_faults) + len(self.undetectable)
        if total == 0:
            return 100.0
        return 100.0 * len(self.target_faults) / total


def generate_stuck_at_atpg(
    circuit: ScanCircuit,
    table: StateTable,
    faults: list[StuckAtFault],
) -> AtpgResult:
    """Greedy minimum-pattern cover of all detectable stuck-at faults.

    Patterns are restricted to state codes that exist in ``table``; ties
    break towards numerically smaller patterns, keeping the result
    deterministic.
    """
    netlist = circuit.netlist
    sv = circuit.n_state_variables
    pi = circuit.n_primary_inputs
    if netlist.n_inputs != sv + pi:
        raise FaultSimulationError("circuit interface mismatch")
    n_patterns = 1 << (sv + pi)
    mask = assigned_pattern_mask(circuit.encoding, pi)
    words = detection_words(netlist, list(faults), pattern_mask=mask)
    detectable = [fault for fault in faults if np.any(words[fault])]
    undetectable = tuple(fault for fault in faults if not np.any(words[fault]))
    remaining = {fault: words[fault] for fault in detectable}
    chosen: list[int] = []
    while remaining:
        # Count, for every pattern, how many remaining faults it detects.
        counts = np.zeros(n_patterns, dtype=np.int32)
        for fault_words in remaining.values():
            counts += unpack_bits(fault_words, n_patterns)
        pattern = int(np.argmax(counts))
        if counts[pattern] == 0:  # pragma: no cover - detectable by def.
            raise FaultSimulationError("greedy cover stalled")
        chosen.append(pattern)
        word_index = pattern // 64
        bit = np.uint64(1) << np.uint64(pattern % 64)
        remaining = {
            fault: fault_words
            for fault, fault_words in remaining.items()
            if not (fault_words[word_index] & bit)
        }
    pi_mask = (1 << pi) - 1
    tests = []
    for pattern in sorted(chosen):
        state = circuit.encoding.decode(pattern >> pi)
        combo = pattern & pi_mask
        next_state = int(table.next_state[state, combo])
        tests.append(
            ScanTest(
                state,
                (combo,),
                next_state,
                (Segment(SegmentKind.TRANSITION, state, (combo,)),),
                ((state, combo),),
            )
        )
    test_set = TestSet(
        table.name, table.n_state_variables, table.n_transitions, tests
    )
    return AtpgResult(test_set, tuple(detectable), undetectable)
