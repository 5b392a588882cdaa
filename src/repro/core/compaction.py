"""Static compaction of scan test sets.

Two mechanisms from the paper:

* :func:`select_effective_tests` — the Table 3 / Table 6 procedure: simulate
  tests in decreasing length order against a fault universe with fault
  dropping; keep only the tests that detect at least one new fault.  The
  simulation itself is pluggable (gate-level stuck-at, gate-level bridging,
  or functional state-transition faults all reuse this driver).

* :func:`combine_tests` — the functional counterpart of the static
  compaction of reference [7]: combining tests ``τ_i`` and ``τ_j`` removes
  the scan-out of ``τ_i`` and the scan-in of ``τ_j``.  This is possible
  whenever ``τ_i`` ends in the state ``τ_j`` starts from, and is accepted
  only when a caller-supplied coverage evaluation does not degrade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

from repro.core.testset import ScanTest, TestSet
from repro.errors import GenerationError

__all__ = ["EffectiveSelection", "select_effective_tests", "combine_tests"]


@dataclass
class EffectiveSelection:
    """Result of the reverse-length effective-test selection.

    ``rows`` mirrors the paper's Table 3: one entry per simulated test, in
    simulation order, with the cumulative number of detected faults and an
    effectiveness flag.
    """

    effective: TestSet
    rows: list[tuple[ScanTest, int, bool]]
    detected: frozenset[Hashable]
    n_faults: int

    @property
    def n_effective(self) -> int:
        return self.effective.n_tests

    @property
    def effective_length(self) -> int:
        return self.effective.total_length

    @property
    def coverage_pct(self) -> float:
        if self.n_faults == 0:
            return 100.0
        return 100.0 * len(self.detected) / self.n_faults


def select_effective_tests(
    test_set: TestSet,
    simulate: Callable[[ScanTest, frozenset[Hashable]], Iterable[Hashable]],
    all_faults: Iterable[Hashable],
    stop_when_exhausted: Iterable[Hashable] = (),
) -> EffectiveSelection:
    """Simulate tests longest-first with fault dropping; keep effective ones.

    Parameters
    ----------
    test_set:
        The candidate tests.
    simulate:
        ``simulate(test, remaining)`` returns the faults from ``remaining``
        that ``test`` detects.  It is never called with an empty remainder.
    all_faults:
        The fault universe.
    stop_when_exhausted:
        Faults known to be undetectable (e.g. combinationally redundant, as
        proven by the exhaustive oracle).  Under full scan a sequentially
        detectable fault is combinationally detectable — a diverging next
        state must first appear on an observable next-state line — so these
        faults are excluded from simulation outright: they can never make a
        test effective, and once every detectable fault has been found the
        remaining tests are skipped without simulating them.  This
        reproduces the paper's observation that most length-1 tests are
        unnecessary, without paying to simulate them.
    """
    universe = set(all_faults)
    n_faults = len(universe)
    # Replaced only when a test detects something: a test that detects
    # nothing costs no copy of the remaining faults.
    remaining = frozenset(universe.difference(stop_when_exhausted))
    detected: set[Hashable] = set()
    effective: list[ScanTest] = []
    rows: list[tuple[ScanTest, int, bool]] = []
    for test in test_set.by_decreasing_length():
        if not remaining:
            rows.append((test, len(detected), False))
            continue
        newly = set(simulate(test, remaining))
        if not newly <= remaining:
            raise GenerationError("simulate() reported faults outside the remainder")
        is_effective = bool(newly)
        if is_effective:
            remaining -= newly
            detected |= newly
            effective.append(test)
        rows.append((test, len(detected), is_effective))
    return EffectiveSelection(
        test_set.subset(effective),
        rows,
        frozenset(detected),
        n_faults,
    )


def _joined(left: ScanTest, right: ScanTest) -> ScanTest:
    """``left`` then ``right`` as one test.

    The layouts concatenate, with ``right``'s end offsets shifted past
    ``left``'s inputs.
    """
    if bool(left.layout) != bool(right.layout):
        # One test's segments alone cannot describe the joined inputs.
        raise GenerationError("segments do not concatenate to inputs")
    layout = list(right.layout)
    layout[2::3] = [end + left.length for end in layout[2::3]]
    return ScanTest(
        left.initial_state,
        left.inputs + right.inputs,
        right.final_state,
        left.layout + tuple(layout),
        left.tested + right.tested,
    )


def combine_tests(
    test_set: TestSet,
    evaluate: Callable[[TestSet], float] | None = None,
) -> TestSet:
    """Greedily chain tests whose endpoint states match (reference [7]).

    Combining ``τ_i`` then ``τ_j`` is considered whenever
    ``τ_i.final_state == τ_j.initial_state``; the combined test concatenates
    the segments, so one scan-out/scan-in pair disappears.  When ``evaluate``
    is given (any score where higher is better — typically verified-coverage
    from :func:`repro.core.coverage.verify_test_set`), a combination is kept
    only if the score does not drop; without it all structurally possible
    combinations are kept.

    Note the trade-off the paper's model makes visible: combination removes
    the scan-out that *verified* ``τ_i``'s final transition, so with a strict
    evaluator many combinations are rejected unless that transition is also
    verified elsewhere.
    """
    current = list(test_set.tests)
    baseline = evaluate(test_set) if evaluate is not None else None
    changed = True
    while changed:
        changed = False
        for i, left in enumerate(current):
            for j, right in enumerate(current):
                if i == j or left.final_state != right.initial_state:
                    continue
                merged = _joined(left, right)
                candidate = [
                    merged if k == i else test
                    for k, test in enumerate(current)
                    if k != j
                ]
                candidate_set = TestSet(
                    test_set.machine_name,
                    test_set.n_state_variables,
                    test_set.n_transitions,
                    candidate,
                )
                if baseline is not None and evaluate(candidate_set) < baseline:
                    continue
                current = candidate
                changed = True
                break
            if changed:
                break
    return TestSet(
        test_set.machine_name,
        test_set.n_state_variables,
        test_set.n_transitions,
        current,
    )
