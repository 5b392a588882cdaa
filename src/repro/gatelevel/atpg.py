"""Gate-level stuck-at ATPG for full-scan circuits (the paper's comparison).

Section 3 of the paper remarks:

    "A gate-level stuck-at test generation procedure applied to the
    full-scan circuits may yield numbers of tests and numbers of clock
    cycles that are better than the ones of Tables 6 and 7.  However, it
    is not guaranteed to detect all the bridging faults."

This module provides that gate-level procedure so the remark can be
measured.  Under full scan, a stuck-at test is one combinational pattern
(state code + primary inputs) applied as a length-1 scan test, which is
exactly one test of the per-transition baseline
(:func:`repro.core.baseline.per_transition_tests`).  The generator grades
every baseline test against the target faults on the fault-sim dispatcher
(:func:`repro.gatelevel.dispatch.detection_masks`), so each test's mask is
the exact set of faults its pattern detects, and then greedily covers all
detectable faults with as few patterns as possible — an idealized ATPG
with perfect fault-detection knowledge, i.e. an upper bound on what any
deterministic stuck-at ATPG could achieve in test-count terms.

The chosen tests are the baseline's own :class:`~repro.core.testset.ScanTest`
objects, so every grader in the library (bridging, delay, functional) can
evaluate them directly against the paper's functional tests.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace

from repro.core.baseline import per_transition_tests
from repro.core.testset import TestSet
from repro.errors import FaultSimulationError
from repro.fsm.state_table import StateTable
from repro.gatelevel.bridging import BridgingFault
from repro.gatelevel.dispatch import detection_masks
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import StuckAtFault

__all__ = ["AtpgResult", "generate_stuck_at_atpg"]

Fault = StuckAtFault | BridgingFault


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

    Patterns are restricted to state codes that exist in ``table``.  Each
    step takes the pattern that detects the most faults not yet covered,
    ties going to the numerically smallest pattern ``code << PI | combo``;
    the chosen tests come back in pattern order.  A fault listed twice is
    covered once.
    """
    pi = circuit.n_primary_inputs
    if circuit.netlist.n_inputs != circuit.n_state_variables + pi:
        raise FaultSimulationError("circuit interface mismatch")
    baseline = per_transition_tests(table)
    tests = baseline.tests
    universe = list(dict.fromkeys(faults))
    masks = detection_masks(circuit, table, universe, tests)
    detectable = 0
    for mask in masks:
        detectable |= mask
    hit = {fault: detectable >> bit & 1 for bit, fault in enumerate(universe)}
    code_of = circuit.encoding.codes
    pattern = [code_of[test.initial_state] << pi | test.inputs[0] for test in tests]
    order = sorted(range(len(tests)), key=pattern.__getitem__)
    # Lazy greedy: a heap of (-count, pattern rank, row) whose counts may be
    # stale.  Counts only fall as faults are covered, so an entry whose
    # count is still exact when popped is the most-detecting row, and ties
    # pop in rank order: the smallest pattern, as an eager recount picks.
    heap = [
        (-mask.bit_count(), rank, row)
        for rank, row in enumerate(order)
        if (mask := masks[row])
    ]
    heapq.heapify(heap)
    chosen: list[int] = []
    remaining = detectable
    while remaining:
        stale, rank, row = heapq.heappop(heap)
        count = (masks[row] & remaining).bit_count()
        if count == -stale:
            chosen.append(row)
            remaining &= ~masks[row]
        elif count:
            heapq.heappush(heap, (-count, rank, row))
    chosen.sort(key=pattern.__getitem__)
    return AtpgResult(
        replace(baseline, tests=[tests[row] for row in chosen]),
        tuple(fault for fault in faults if hit[fault]),
        tuple(fault for fault in faults if not hit[fault]),
    )
