"""Independent verification that a test set tests every state-transition.

The generator *claims* coverage; this module re-derives it from first
principles.  A transition ``s --a--> s'`` counts as **verified** by a test
when the test exercises it from a trusted state (states are trusted because
a test starts with a scan-in and every preceding next state was verified)
and its next state is checked, either by

* a scan-out (the transition is the last thing the test applies), or
* a genuine unique input-output sequence for ``s'`` applied right after it
  (the checker re-proves the distinguishing property against the machine,
  it does not trust the generator), or
* — extension — a *complete* set of partial UIO sequences applied right
  after it, accumulated across all tests of the set.

Transitions merely traversed inside UIO / transfer / partial segments are
reported as *exercised* but not verified (their output errors would be
observed, but a faulty next state is only probabilistically caught).  This
matches the paper's accounting and quantifies the ``credit_incidental``
extension honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Hashable, TypeVar

from repro.core.testset import KIND_CODES, SegmentKind, TestSet
from repro.errors import GenerationError
from repro.fsm.state_table import StateTable

__all__ = ["CoverageReport", "FaultSplit", "split_undetected", "verify_test_set"]

FaultT = TypeVar("FaultT", bound=Hashable)

_TRANSITION = KIND_CODES[SegmentKind.TRANSITION]
_UIO = KIND_CODES[SegmentKind.UIO]
_PARTIAL_UIO = KIND_CODES[SegmentKind.PARTIAL_UIO]


@dataclass(frozen=True)
class FaultSplit:
    """Gate-level coverage with "undetected" split into its two meanings.

    Raw coverage lumps provably redundant faults (a machine-checked
    untestability certificate exists; no test can ever detect them) together
    with genuinely *missed* faults.  This split separates them: only the
    ``missed`` bin is actionable, and ``testable_coverage`` — detected over
    faults that are not proved redundant — is the honest quality figure.
    """

    n_faults: int
    detected: int
    redundant: int
    missed: int

    @property
    def coverage(self) -> float:
        """Raw coverage over the full universe (redundant counted against)."""
        return self.detected / self.n_faults if self.n_faults else 1.0

    @property
    def testable_coverage(self) -> float:
        """Coverage over the faults some test could conceivably detect."""
        testable = self.n_faults - self.redundant
        return self.detected / testable if testable else 1.0


def split_undetected(
    all_faults: Collection[FaultT],
    detected: Collection[FaultT],
    proven_untestable: Collection[FaultT],
) -> FaultSplit:
    """Classify every fault as detected, redundant (proved), or missed.

    ``proven_untestable`` must hold only proved faults: certificate-backed
    ones, or the undetectable set of exhaustive tables under full scan.  A
    fault that is both detected and claimed untestable indicates an
    unsound proof and raises :class:`GenerationError` rather than silently
    picking a bin.
    """
    universe = set(all_faults)
    caught = set(detected) & universe
    redundant = set(proven_untestable) & universe
    overlap = caught & redundant
    if overlap:
        sample = sorted(repr(fault) for fault in overlap)[:3]
        raise GenerationError(
            f"{len(overlap)} fault(s) both detected and proved untestable "
            f"(unsound certificate?): {', '.join(sample)}"
        )
    return FaultSplit(
        n_faults=len(universe),
        detected=len(caught),
        redundant=len(redundant),
        missed=len(universe) - len(caught) - len(redundant),
    )


@dataclass
class CoverageReport:
    """Outcome of the strict coverage check."""

    machine_name: str
    n_states: int
    n_input_combinations: int
    verified: frozenset[tuple[int, int]]
    exercised: frozenset[tuple[int, int]]
    #: per-transition sets of other states not yet distinguished (partial mode)
    partial_pending: dict[tuple[int, int], frozenset[int]] = field(default_factory=dict)

    @property
    def n_transitions(self) -> int:
        return self.n_states * self.n_input_combinations

    @property
    def missing(self) -> frozenset[tuple[int, int]]:
        """Transitions with no full verification anywhere in the set."""
        return frozenset(
            (state, combo)
            for state in range(self.n_states)
            for combo in range(self.n_input_combinations)
            if (state, combo) not in self.verified
        )

    @property
    def is_complete(self) -> bool:
        return len(self.verified) == self.n_transitions

    @property
    def verified_fraction(self) -> float:
        return len(self.verified) / self.n_transitions


class _UioOracle:
    """Caches re-proofs of the UIO property for (state, inputs) pairs."""

    def __init__(self, table: StateTable) -> None:
        self.table = table
        self._cache: dict[tuple[int, tuple[int, ...]], bool] = {}

    def is_uio(self, state: int, inputs: tuple[int, ...]) -> bool:
        key = (state, inputs)
        if key not in self._cache:
            reference = self.table.response(state, inputs)
            self._cache[key] = all(
                self.table.response(other, inputs) != reference
                for other in range(self.table.n_states)
                if other != state
            )
        return self._cache[key]

    def distinguished_from(
        self, state: int, inputs: tuple[int, ...]
    ) -> frozenset[int]:
        reference = self.table.response(state, inputs)
        return frozenset(
            other
            for other in range(self.table.n_states)
            if other != state and self.table.response(other, inputs) != reference
        )


def verify_test_set(table: StateTable, test_set: TestSet) -> CoverageReport:
    """Strictly verify ``test_set`` against ``table``.

    Raises :class:`GenerationError` on structural inconsistencies (segments
    that do not chain, recorded final states that disagree with the machine,
    tests without segment structure).  Returns the coverage report
    otherwise; completeness is a property of the report, not an exception.
    """
    oracle = _UioOracle(table)
    # The checker's own rows, read from the array: it shares no view with
    # the generator it checks.
    next_rows = table.next_state.tolist()
    verified: set[tuple[int, int]] = set()
    exercised: set[tuple[int, int]] = set()
    # Partial-mode bookkeeping: states still indistinguishable per transition.
    pending: dict[tuple[int, int], set[int]] = {}
    for test in test_set:
        # Walk the layout's (kind, start state, end) triples over slices of
        # the inputs; no Segment view is built.
        layout, inputs = test.layout, test.inputs
        if not layout:
            raise GenerationError(
                f"test {test} carries no segment structure; cannot verify"
            )
        test.check_consistency(table, next_rows)
        kinds, states, ends = layout[0::3], layout[1::3], layout[2::3]
        begins = (0, *ends)
        last = len(kinds) - 1
        for index, kind in enumerate(kinds):
            # Record everything the segment traverses as exercised.
            state = states[index]
            for combo in inputs[begins[index] : ends[index]]:
                exercised.add((state, combo))
                state = next_rows[state][combo]
            if kind != _TRANSITION:
                continue
            key = (states[index], inputs[begins[index]])
            next_state = next_rows[key[0]][key[1]]
            if index == last:
                verified.add(key)  # scan-out checks the next state exactly
                continue
            follower, follower_state = kinds[index + 1], states[index + 1]
            follower_inputs = inputs[ends[index] : ends[index + 1]]
            if follower == _UIO:
                if follower_state != next_state:
                    raise GenerationError(
                        f"UIO segment after {key} starts in {follower_state}, "
                        f"machine is in {next_state}"
                    )
                if not oracle.is_uio(next_state, follower_inputs):
                    raise GenerationError(
                        f"segment after {key} claims to be a UIO for state "
                        f"{next_state} but does not distinguish it"
                    )
                verified.add(key)
            elif follower == _PARTIAL_UIO:
                if follower_state != next_state:
                    raise GenerationError(
                        f"partial segment after {key} starts in "
                        f"{follower_state}, machine is in {next_state}"
                    )
                if key not in verified:
                    remaining = pending.setdefault(
                        key,
                        set(range(table.n_states)) - {next_state},
                    )
                    remaining -= oracle.distinguished_from(next_state, follower_inputs)
                    if not remaining:
                        verified.add(key)
                        del pending[key]
            # A TRANSFER follower (or another TRANSITION) verifies nothing.
    # A UIO with empty inputs can only occur on single-state machines, where
    # every transition is trivially next-state-correct; treat all exercised
    # transitions as verified there.
    if table.n_states == 1:
        verified |= exercised
    return CoverageReport(
        table.name,
        table.n_states,
        table.n_input_combinations,
        frozenset(verified),
        frozenset(exercised),
        {
            key: frozenset(states)
            for key, states in pending.items()
            if key not in verified
        },
    )
