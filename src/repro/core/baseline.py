"""The one-test-per-transition baseline (the paper's ``trans`` columns).

Testing every state-transition by a separate test — scan-in ``s_i``, apply
``α_j``, scan-out — needs ``N_ST * N_PIC`` tests and ``N_ST * N_PIC + 1``
scan operations.  Every comparison in the paper is against this baseline.
"""

from __future__ import annotations

from repro.core.testset import ScanTest, Segment, SegmentKind, TestSet
from repro.fsm.state_table import StateTable

__all__ = ["per_transition_tests"]


def per_transition_tests(table: StateTable) -> TestSet:
    """One length-1 scan test per state-transition, in (state, input) order."""
    tests = [
        ScanTest.from_segments(
            t.state,
            t.next_state,
            (Segment(SegmentKind.TRANSITION, t.state, (t.input,)),),
            ((t.state, t.input),),
        )
        for t in table.transitions()
    ]
    return TestSet(
        table.name, table.n_state_variables, table.n_transitions, tests
    )
