"""The paper's functional test generation procedure (Section 2).

Tests have the form

    s_i0 --α_j0--> s_i0j0 --D--> s_i1 --α_j1--> s_i1j1 --D--> s_i2 ...

where each ``α`` exercises a yet-untested state-transition and each ``D`` is
the unique input-output sequence of the transition's next state (possibly
followed by a transfer sequence).  A test ends — and the final state is
scanned out — as soon as the current next state has no UIO, or the UIO's
landing state offers no untested transition and no transfer to one.

Two passes select the starting transitions.  The first pass skips ("post-
pones") transitions whose next state has no UIO, because starting with one
forces a length-1 test; the second pass emits the leftovers.  Both passes,
and all in-test choices, scan transitions in (state, input) order, which
reproduces the paper's worked example τ0…τ8 for ``lion`` exactly.

Two documented extensions can be enabled through
:class:`~repro.core.config.GeneratorConfig`: *partial UIO sets* (chaining
through states that only have a jointly-distinguishing set of sequences) and
*incidental credit* (optimistically counting transitions traversed inside
UIO/transfer segments).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.config import GeneratorConfig
from repro.core.testset import KIND_CODES, ScanTest, SegmentKind, TestSet
from repro.errors import GenerationError
from repro.fsm.state_table import StateTable
from repro.obs.metrics import current_registry
from repro.obs.provenance import current_provenance
from repro.obs.trace import complete_event, tracing_active
from repro.obs.trace import span as trace_span
from repro.uio.partial import PartialUioSet, compute_partial_uio_set
from repro.uio.search import UioTable, compute_uio_table
from repro.uio.transfer import find_transfer

__all__ = ["GenerationResult", "generate_tests"]

_TRANSITION = KIND_CODES[SegmentKind.TRANSITION]
_UIO = KIND_CODES[SegmentKind.UIO]
_TRANSFER = KIND_CODES[SegmentKind.TRANSFER]
_PARTIAL_UIO = KIND_CODES[SegmentKind.PARTIAL_UIO]


@dataclass
class GenerationResult:
    """Everything produced by one run of the procedure."""

    test_set: TestSet
    uio_table: UioTable
    config: GeneratorConfig
    generation_time_s: float
    #: transitions credited only through the optimistic incidental mode
    incidental_credits: tuple[tuple[int, int], ...] = ()
    #: partial UIO sets that were actually used (extension mode)
    partial_sets_used: dict[int, PartialUioSet] = field(default_factory=dict)

    @property
    def n_tests(self) -> int:
        return self.test_set.n_tests

    @property
    def total_length(self) -> int:
        return self.test_set.total_length

    @property
    def pct_length_one(self) -> float:
        return self.test_set.pct_transitions_by_length_one

    def clock_cycles(self) -> int:
        return self.test_set.clock_cycles(self.config.scan_ratio)

    def cycles_pct_of_baseline(self) -> float:
        return self.test_set.cycles_pct_of_baseline(self.config.scan_ratio)


class _Generator:
    """One generation run; all mutable bookkeeping lives here."""

    def __init__(
        self,
        table: StateTable,
        config: GeneratorConfig,
        uio_table: UioTable | None,
    ) -> None:
        self.table = table
        self.config = config
        if uio_table is None:
            uio_table = compute_uio_table(
                table,
                config.resolved_uio_length(table.n_state_variables),
                config.uio_node_budget,
            )
        self.uio = uio_table
        self.n_states = table.n_states
        self.n_cols = table.n_input_combinations
        # Next states as Python rows: the loops below read them one entry
        # at a time, which costs several times more on a numpy array.
        self.next_rows = table.next_rows
        # tested[state][combo] is 1 once the transition is tested.
        self.tested = [bytearray(self.n_cols) for _ in range(self.n_states)]
        self.untested_count = [self.n_cols] * self.n_states
        self.tests: list[ScanTest] = []
        self.incidental: list[tuple[int, int]] = []
        self._uio_of = [uio_table.get(state) for state in range(self.n_states)]
        # ((input,), next_state) per state, deduplicated by next state keeping
        # the smallest input, and per state a cursor past the successors
        # found exhausted: untested counts only fall, so an exhausted
        # successor never regains work and the length-1 transfer lookup
        # costs O(1) amortised.
        self._succ_options = [_first_inputs(row) for row in self.next_rows]
        self._succ_cursor = [0] * self.n_states
        self._partial_cache: dict[int, PartialUioSet | None] = {}
        self.partial_used: dict[int, PartialUioSet] = {}
        self.partial_progress: dict[tuple[int, int], set[int]] = {}
        # Chaining-decision accounting.  Plain local ints, folded into the
        # metrics registry once per run by generate_tests; transfer-search
        # time is only accumulated while a tracer is installed (two extra
        # clock reads per lookup otherwise avoided).
        self.n_chained = 0
        self.n_scan_out = 0
        self.n_transfer_steps = 0
        self.transfer_ns = 0
        self._time_transfers = tracing_active()
        # Decision provenance: one event per exercised transition saying why
        # it was chained vs scan-terminated.  ``None`` (the default) keeps
        # the hot path to a single attribute check per decision.
        self.prov = current_provenance()

    # ------------------------------------------------------------ bookkeeping

    def mark_tested(self, state: int, combo: int) -> None:
        flags = self.tested[state]
        if not flags[combo]:
            flags[combo] = 1
            self.untested_count[state] -= 1

    def first_untested(self, state: int) -> int | None:
        """Smallest untested input combination out of ``state``."""
        if self.untested_count[state] == 0:
            return None
        combo = self.tested[state].find(0)
        if combo < 0:  # pragma: no cover - mark_tested keeps the count
            raise GenerationError("untested_count is inconsistent")
        return combo

    def _untested_predicate(self, state: int) -> bool:
        return self.untested_count[state] > 0

    def find_transfer_step(self, source: int) -> tuple[tuple[int, ...], int] | None:
        """Transfer ``(inputs, destination)`` into a state with untested work."""
        if not self._time_transfers:
            return self._find_transfer_step(source)
        started = time.perf_counter_ns()
        try:
            return self._find_transfer_step(source)
        finally:
            self.transfer_ns += time.perf_counter_ns() - started

    def _find_transfer_step(self, source: int) -> tuple[tuple[int, ...], int] | None:
        bound = self.config.max_transfer_length
        if bound == 0:
            return None
        if bound == 1:
            options, untested_count = self._succ_options[source], self.untested_count
            cursor = self._succ_cursor[source]
            while cursor < len(options) and not untested_count[options[cursor][1]]:
                cursor += 1
            self._succ_cursor[source] = cursor
            return options[cursor] if cursor < len(options) else None
        path = find_transfer(self.table, source, self._untested_predicate, bound)
        if path is None or not path:
            return None
        return path, self.table.final_state(source, path)

    def partial_set(self, state: int) -> PartialUioSet | None:
        """Complete partial UIO set for ``state`` or ``None`` (cached)."""
        if state not in self._partial_cache:
            pset = compute_partial_uio_set(
                self.table,
                state,
                self.config.resolved_uio_length(self.table.n_state_variables),
            )
            self._partial_cache[state] = pset if pset.complete else None
        return self._partial_cache[state]

    def credit_segment(self, start_state: int, inputs: tuple[int, ...]) -> None:
        """Optimistically credit transitions traversed by a UIO/transfer."""
        state = start_state
        for combo in inputs:
            if not self.tested[state][combo]:
                self.mark_tested(state, combo)
                self.incidental.append((state, combo))
            state = self.next_rows[state][combo]

    def _decision(
        self, state: int, combo: int, outcome: str, reason: str, **detail: object
    ) -> None:
        """Record why transition ``(state, combo)`` was chained/scan-terminated."""
        if self.prov is not None:
            self.prov.decision(
                self.table.name, state, combo, outcome, reason,
                next_state=self.next_rows[state][combo],
                **detail,
            )

    # --------------------------------------------------------- test building

    def can_start(self, state: int, combo: int) -> bool:
        """First-pass start rule (the paper's postpone rule)."""
        if not self.config.postpone_no_uio_starts:
            return True
        next_state = self.next_rows[state][combo]
        if self._uio_of[next_state] is not None:
            return True
        if self.config.use_partial_uio and self.partial_set(next_state) is not None:
            return True
        return False

    def build_test(self, start_state: int, start_combo: int) -> ScanTest:
        """Grow one test starting with transition ``(start_state, start_combo)``.

        The test's inputs and its layout (kind code, start state, end offset
        per segment) grow in two flat lists; no segment is built.
        """
        next_rows, uio_of, prov = self.next_rows, self._uio_of, self.prov
        flags, untested_count = self.tested, self.untested_count
        use_partial = self.config.use_partial_uio
        credit = self.config.credit_incidental
        inputs: list[int] = []
        layout: list[int] = []
        tested: list[tuple[int, int]] = []
        state, combo = start_state, start_combo
        test_index = len(self.tests)
        step = 0
        while True:
            inputs.append(combo)
            layout += (_TRANSITION, state, len(inputs))
            tested.append((state, combo))
            next_state = next_rows[state][combo]
            uio_seq = uio_of[next_state]
            if uio_seq is not None:
                if not flags[state][combo]:
                    flags[state][combo] = 1
                    untested_count[state] -= 1
                landing = uio_seq.final_state
                transfer = None
                if untested_count[landing]:
                    follow = flags[landing].find(0)
                else:
                    transfer = self.find_transfer_step(landing)
                    if transfer is None:
                        if prov is not None:
                            self._decision(
                                state, combo, "scan_out", "uio-dead-end",
                                uio_length=uio_seq.length,
                                test_index=test_index, step=step,
                            )
                        return self._finish(
                            start_state, inputs, layout, tested, next_state
                        )
                if uio_seq.inputs:
                    inputs += uio_seq.inputs
                    layout += (_UIO, next_state, len(inputs))
                    if credit:
                        self.credit_segment(next_state, uio_seq.inputs)
                if transfer is not None:
                    path, landing = transfer
                    inputs += path
                    layout += (_TRANSFER, uio_seq.final_state, len(inputs))
                    if credit:
                        self.credit_segment(uio_seq.final_state, path)
                    follow = self.first_untested(landing)
                    if follow is None:
                        raise GenerationError(
                            "transfer destination lost its untested transitions"
                        )  # pragma: no cover
                    self.n_transfer_steps += 1
                if prov is not None:
                    self._decision(
                        state, combo, "chained", "uio",
                        uio_length=uio_seq.length,
                        transfer_length=len(transfer[0]) if transfer is not None else 0,
                        test_index=test_index, step=step,
                    )
                state, combo = landing, follow
                self.n_chained += 1
                step += 1
                continue
            if use_partial:
                next_step = self._try_partial_step(
                    state, combo, next_state, inputs, layout
                )
                if next_step is not None:
                    if prov is not None:
                        self._decision(
                            state, combo, "chained", "partial-uio",
                            test_index=test_index, step=step,
                        )
                    state, combo = next_step
                    self.n_chained += 1
                    step += 1
                    continue
            self.mark_tested(state, combo)  # verified by the final scan-out
            if use_partial and self.partial_set(next_state) is not None:
                reason = "partial-uio-dead-end"
            elif next_state in self.uio.budget_exhausted:
                reason = "uio-budget-exhausted"
            else:
                reason = "no-uio"
            if prov is not None:
                self._decision(
                    state, combo, "scan_out", reason,
                    test_index=test_index, step=step,
                )
            return self._finish(start_state, inputs, layout, tested, next_state)

    def _try_partial_step(
        self,
        state: int,
        combo: int,
        next_state: int,
        inputs: list[int],
        layout: list[int],
    ) -> tuple[int, int] | None:
        """Continue the chain through a partial UIO set, or return ``None``.

        Returns the next ``(state, input)`` to exercise when the chain keeps
        going; ``None`` means the caller should end the test (the scan-out
        then fully verifies the transition).
        """
        pset = self.partial_set(next_state)
        if pset is None or not pset.sequences:
            return None
        progress = self.partial_progress.setdefault((state, combo), set())
        pending = [i for i in range(len(pset.sequences)) if i not in progress]
        if not pending:  # pragma: no cover - tested transitions are never revisited
            return None
        index = pending[0]
        sequence = pset.sequences[index]
        landing = self.table.final_state(next_state, sequence)
        # Whichever way the decision below goes, applying the last pending
        # sequence completes the set and ending the test verifies by
        # scan-out — so when this is the final pending sequence the
        # transition is tested either way.  Mark it *before* probing for
        # untested work, otherwise a transfer destination whose only
        # untested transition is this very one would be chosen and then
        # found empty.
        if len(pending) == 1:
            self.mark_tested(state, combo)
        follow = self.first_untested(landing)
        transfer = None
        if follow is None:
            transfer = self.find_transfer_step(landing)
        if follow is None and transfer is None:
            return None
        progress.add(index)
        self.partial_used[next_state] = pset
        inputs += sequence
        layout += (_PARTIAL_UIO, next_state, len(inputs))
        if self.config.credit_incidental:
            self.credit_segment(next_state, sequence)
        if transfer is not None:
            source = landing
            path, landing = transfer
            inputs += path
            layout += (_TRANSFER, source, len(inputs))
            if self.config.credit_incidental:
                self.credit_segment(source, path)
            follow = self.first_untested(landing)
            self.n_transfer_steps += 1
        if follow is None:
            raise GenerationError(
                "transfer destination lost its untested transitions"
            )  # pragma: no cover
        return landing, follow

    def _finish(
        self,
        start_state: int,
        inputs: list[int],
        layout: list[int],
        tested: list[tuple[int, int]],
        final_state: int,
    ) -> ScanTest:
        test = ScanTest(
            start_state, tuple(inputs), final_state, tuple(layout), tuple(tested)
        )
        self.tests.append(test)
        self.n_scan_out += 1
        return test

    # ---------------------------------------------------------------- driver

    def run(self) -> None:
        # First pass: starts obeying the postpone rule.  Each state's
        # untested inputs are visited in increasing order; find() rereads
        # the flags, which the tests built meanwhile may have set.
        for state in range(self.n_states):
            flags = self.tested[state]
            combo = flags.find(0)
            while combo >= 0:
                if self.can_start(state, combo):
                    self.build_test(state, combo)
                combo = flags.find(0, combo + 1)
        # Second pass: leftovers.  Without partial UIO sets one sweep always
        # suffices (each leftover becomes a length-1 test); with them a
        # transition may need several visits, one per pending sequence.
        max_sweeps = 1 + (
            max(
                (len(p.sequences) for p in self._partial_cache.values() if p),
                default=0,
            )
            if self.config.use_partial_uio
            else 0
        )
        for _sweep in range(max_sweeps + 1):
            if not any(self.untested_count):
                return
            for state in range(self.n_states):
                if self.untested_count[state] == 0:
                    continue
                flags = self.tested[state]
                combo = flags.find(0)
                while combo >= 0:
                    self.build_test(state, combo)
                    combo = flags.find(0, combo + 1)
        if any(self.untested_count):  # pragma: no cover - monotone progress
            raise GenerationError("second pass failed to cover all transitions")


def _first_inputs(row: tuple[int, ...]) -> list[tuple[tuple[int], int]]:
    """``((input,), next_state)`` per distinct next state of ``row``, each
    with its smallest input, in increasing input order."""
    # Walking the row backwards leaves each next state's smallest input.
    first = dict(zip(reversed(row), range(len(row) - 1, -1, -1)))
    pairs = sorted((combo, nxt) for nxt, combo in first.items())
    return [((combo,), nxt) for combo, nxt in pairs]


def generate_tests(
    table: StateTable,
    config: GeneratorConfig | None = None,
    uio_table: UioTable | None = None,
) -> GenerationResult:
    """Run the paper's procedure on ``table``.

    Parameters
    ----------
    table:
        The completely specified machine (typically completed to ``2**N_SV``
        states, as the paper's benchmarks are).
    config:
        Procedure knobs; defaults to the paper's main setting
        (``L = N_SV``, ``T = 1``, postpone rule on, extensions off).
    uio_table:
        Optional precomputed UIO table; must have been computed with the
        same length bound for the run to match the configuration.

    Returns
    -------
    GenerationResult
        The generated tests plus the UIO table and bookkeeping.  Every
        state-transition of ``table`` is credited to exactly one test
        (``test_set.covered_transitions()`` equals the full transition set),
        which the strict checker in :mod:`repro.core.coverage` re-verifies
        independently.
    """
    if config is None:
        config = GeneratorConfig()
    # Cheap static preflight (lazy import: repro.lint builds on this package).
    # Rejects malformed tables — out-of-range entries, inconsistent shapes —
    # with a precise diagnostic before the expensive UIO search starts.
    from repro.lint.preflight import preflight_machine

    preflight_machine(table, GenerationError)
    started = time.perf_counter()
    generator = _Generator(table, config, uio_table)
    with trace_span(
        "testgen.chaining", machine=table.name, transitions=table.n_transitions
    ) as sp:
        generator.run()
        if generator.transfer_ns:
            # Aggregate span for the transfer lookups: individual calls are
            # microseconds each, so per-call spans would dwarf the work.
            complete_event(
                "testgen.transfer",
                generator.transfer_ns / 1e9,
                steps=generator.n_transfer_steps,
            )
        sp.set(
            tests=len(generator.tests),
            chained=generator.n_chained,
            scan_out=generator.n_scan_out,
        )
    registry = current_registry()
    if registry is not None:
        registry.counter("testgen.tests").add(len(generator.tests))
        registry.counter("testgen.chained").add(generator.n_chained)
        registry.counter("testgen.scan_out").add(generator.n_scan_out)
        registry.counter("testgen.transfer_steps").add(generator.n_transfer_steps)
        registry.histogram("testgen.test_length").observe(
            max((test.length for test in generator.tests), default=0)
        )
    elapsed = time.perf_counter() - started
    test_set = TestSet(
        table.name,
        table.n_state_variables,
        table.n_transitions,
        generator.tests,
    )
    return GenerationResult(
        test_set,
        generator.uio,
        config,
        elapsed,
        tuple(generator.incidental),
        generator.partial_used,
    )
