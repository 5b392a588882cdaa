"""Parallel sweep engine: fan :class:`CircuitStudy` stages across processes.

The engine decomposes the per-circuit pipeline into three phases:

1. **Prepare** (one task per circuit): UIO table, functional test generation,
   synthesis + verification, static analysis, fault enumeration, and a
   cache lookup of each universe's detectability split.  The artifact cache
   serves UIO tables, synthesized circuits, static analyses and
   detectability splits across runs; nothing is derived here.
2. **Simulate** (one task per fault chunk): every (circuit, fault model)
   universe is split into engine-aware chunks (one whole-universe chunk for
   PPSFP, adaptive big-int batches otherwise); each task builds the
   dispatched fault simulator for its chunk and produces one detection mask
   per test.  Chunking is sound because detection of a fault never depends
   on which other faults share the batch — each bit/row is its own machine
   (see :mod:`repro.gatelevel.compiled`, :mod:`repro.gatelevel.ppsfp`).
   When the cache did not hold the universe's split, the task also returns
   the chunk's detectable mask, read from the simulator it built
   (:func:`repro.gatelevel.dispatch.detectable_mask`: a table comparison
   for PPSFP, the cone oracle for big-int chunks); verdicts are as
   chunk-independent as detections.
3. **Select** (main process): missing splits are assembled from the chunk
   masks and stored in the cache; chunk masks are merged into per-test
   detected sets, and :func:`~repro.core.compaction.select_effective_tests`
   replays the paper's longest-first effective-test selection against them.

Parallel phases run on the **persistent worker pool**
(:mod:`repro.perf.pool`): workers are forked once per process and reused
across phases and sweeps; each phase primes them with one shared read-only
snapshot and then sends index-only task messages, so no per-task artifact
pickling happens at all.

Because phase 3 feeds the selection exactly the sets a full-universe
simulator would have produced, the engine's results are **bit-identical** to
the serial :class:`~repro.harness.experiments.CircuitStudy` path for any
``jobs`` value — ``jobs=1`` runs the very same task functions inline, and a
machine where workers cannot be forked degrades to the same inline path.
Result ordering is deterministic: the returned mapping follows the caller's
circuit order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.benchmarks import load_circuit, load_kiss_machine
from repro.core.compaction import EffectiveSelection, select_effective_tests
from repro.core.config import FaultSimConfig, adaptive_batch_bits
from repro.core.generator import GenerationResult, generate_tests
from repro.core.testset import ScanTest
from repro.fsm.state_table import StateTable
from repro.gatelevel.bridging import enumerate_bridging_faults
from repro.gatelevel.dispatch import make_fault_simulator, partition_by_mask
from repro.gatelevel.ppsfp import PpsfpSimulator
from repro.gatelevel.scan import ScanCircuit
from repro.harness.runtime import StageTimings, stopwatch
from repro.obs import (
    ObsSnapshot,
    absorb_snapshot,
    is_active,
    worker_snapshot,
)
from repro.obs.progress import meter as progress_meter
from repro.obs.trace import span as trace_span
from repro.perf.artifacts import (
    STAGE_FAULT_SIM,
    STAGE_GENERATION,
    Fault,
    cached_scan_circuit,
    cached_sca,
    cached_uio_table,
    derive_detectability,
    detectability_key,
    lookup_detectability,
    store_detectability,
)
from repro.perf.cache import active_cache
from repro.perf.pool import get_pool
from repro.uio.search import UioTable

if TYPE_CHECKING:  # imported lazily at runtime to avoid a module cycle
    from repro.harness.experiments import CircuitStudy, StudyOptions
    from repro.obs.progress import ProgressMeter

__all__ = ["StudyArtifacts", "compute_studies"]


@dataclass
class StudyArtifacts:
    """Everything a :class:`CircuitStudy` lazily computes, fully materialized.

    :meth:`install` seeds a study's ``cached_property`` slots so subsequent
    table regeneration reuses the engine's results without recomputing.

    ``scope="functional"`` runs stop after test generation: the gate-level
    fields stay ``None`` and :meth:`install` leaves the corresponding study
    properties lazy.
    """

    name: str
    uio: tuple[UioTable, float]
    generation: GenerationResult
    scan_circuit: ScanCircuit | None = None
    stuck_at_faults: list[Fault] | None = None
    stuck_at_detectability: tuple[set[Fault], set[Fault]] | None = None
    stuck_at_selection: EffectiveSelection | None = None
    bridging_faults: list[Fault] | None = None
    bridging_detectability: tuple[set[Fault], set[Fault]] | None = None
    bridging_selection: EffectiveSelection | None = None
    #: representatives proven untestable by a verified certificate; they are
    #: never simulated, and the detectability partition already counts them
    stuck_at_proven: frozenset[Fault] | None = None

    def install(self, study: "CircuitStudy") -> None:
        """Seed ``study``'s cached properties with these artifacts."""
        values: dict[str, Any] = {
            "_uio": self.uio,
            "generation": self.generation,
            "scan_circuit": self.scan_circuit,
            "stuck_at_faults": self.stuck_at_faults,
            "stuck_at_detectability": self.stuck_at_detectability,
            "stuck_at_selection": self.stuck_at_selection,
            "bridging_faults": self.bridging_faults,
            "bridging_detectability": self.bridging_detectability,
            "bridging_selection": self.bridging_selection,
            "stuck_at_proven": self.stuck_at_proven,
        }
        # cached_property stores its result under the attribute name in the
        # instance __dict__; pre-populating it is the documented way to seed.
        # Functional-scope artifacts leave the gate-level slots unset so the
        # study computes them lazily if something does ask.
        study.__dict__.update(
            {key: value for key, value in values.items() if value is not None}
        )

    def signature(self) -> dict[str, Any]:
        """Timing-free summary used to compare runs for divergence."""
        uio, _ = self.uio
        signature: dict[str, Any] = {
            "uio_found": uio.n_found,
            "uio_max_len": uio.max_found_length,
            "tests": self.generation.n_tests,
            "test_length": self.generation.total_length,
        }
        if self.stuck_at_selection is not None:
            signature["stuck_at"] = _selection_signature(self.stuck_at_selection)
        if self.bridging_selection is not None:
            signature["bridging"] = _selection_signature(self.bridging_selection)
        return signature

    def summary(self) -> dict[str, Any]:
        """Compact scalar summary for ledger records and bench results.

        Unlike :meth:`signature` this never enumerates faults or tests —
        it is the per-circuit block persisted in ``BENCH_perf.json`` and
        the run ledger, so it must stay small and scheduling-invariant.
        """
        uio, _ = self.uio
        summary: dict[str, Any] = {
            "uio_found": uio.n_found,
            "uio_max_len": uio.max_found_length,
            "tests": self.generation.n_tests,
            "test_length": self.generation.total_length,
            "pct_length_one": round(self.generation.pct_length_one, 4),
        }
        for model, faults, selection in (
            ("stuck_at", self.stuck_at_faults, self.stuck_at_selection),
            ("bridging", self.bridging_faults, self.bridging_selection),
        ):
            if faults is None or selection is None:
                continue
            detected = len(selection.detected)
            summary[model] = {
                "faults": len(faults),
                "detected": detected,
                "coverage": round(detected / len(faults), 6) if faults else 1.0,
                "effective_tests": selection.n_effective,
            }
        return summary


def _selection_signature(selection: EffectiveSelection) -> dict[str, Any]:
    return {
        "n_faults": selection.n_faults,
        "n_effective": selection.n_effective,
        "effective_length": selection.effective_length,
        "detected": sorted(repr(fault) for fault in selection.detected),
        "rows": [
            (str(test), count, effective)
            for test, count, effective in selection.rows
        ],
    }


# ------------------------------------------------------------ phase 1: prep


#: The two fault models every circuit is graded against, in grading order.
MODELS = ("stuck_at", "bridging")


@dataclass
class _CircuitPrep:
    """Per-circuit result of phase 1 (picklable worker payload)."""

    name: str
    uio: tuple[UioTable, float]
    generation: GenerationResult
    scan_circuit: ScanCircuit | None
    stuck_at_faults: list[Fault] | None
    bridging_faults: list[Fault] | None
    #: tests in the exact order the effective-test selection simulates them
    tests: tuple[ScanTest, ...]
    timings: StageTimings
    #: spans + metrics drained from the worker (``None`` when run inline)
    obs: ObsSnapshot | None = None
    #: stuck-at representatives with a verified untestability certificate
    stuck_at_proven: frozenset[Fault] = frozenset()
    #: per fault model, the universe phase 2 simulates (certificate-proved
    #: stuck-at faults left out), its detectability cache key, and its
    #: cached detectability split (``None``: phase 2 derives it)
    universes: dict[str, list[Fault]] = field(default_factory=dict)
    detectability_keys: dict[str, str] = field(default_factory=dict)
    cached_splits: dict[str, tuple[set[Fault], set[Fault]] | None] = field(
        default_factory=dict
    )


def _prepare_task(snapshot: dict[str, Any], index: int) -> _CircuitPrep:
    """Phase-1 task: fully prepare circuit ``snapshot["names"][index]``."""
    name = snapshot["names"][index]
    options, scope = snapshot["options"], snapshot["scope"]
    with trace_span("circuit.prepare", circuit=name, scope=scope):
        prep = _prepare_circuit_stages(name, options, scope)
    prep.obs = worker_snapshot()
    return prep


def _prepare_circuit_stages(
    name: str, options: "StudyOptions", scope: str = "full"
) -> _CircuitPrep:
    timings = StageTimings()
    table = load_circuit(name)
    config = options.config
    length = config.resolved_uio_length(table.n_state_variables)
    uio = cached_uio_table(
        table, length, config.uio_node_budget, circuit=name, timings=timings
    )
    with timings.stage(name, STAGE_GENERATION):
        generation = generate_tests(table, config, uio[0])
    tests = tuple(generation.test_set.by_decreasing_length())
    if scope == "functional":
        # Functional tables (4/5) only need UIO + generation; skipping the
        # gate-level stages keeps serial and --jobs runs doing identical
        # work, which is what makes their ledger records jobs-invariant.
        return _CircuitPrep(
            name, uio, generation, None, None, None, tests, timings
        )
    scan = cached_scan_circuit(
        load_kiss_machine(name), options.synthesis, table,
        circuit=name, timings=timings,
    )
    sca = cached_sca(scan.netlist, circuit=name, timings=timings)
    stuck_at: list[Fault] = list(sca.universe.representatives)
    proven: frozenset[Fault] = frozenset(sca.untestable_representatives)
    # Certificate-proved representatives are neither simulated nor judged:
    # a verified certificate already places them in the undetectable bin,
    # and equivalent faults share verdicts, so the merged partition is
    # identical to grading the full representative list.
    bridging: list[Fault] = list(
        enumerate_bridging_faults(
            scan.netlist, limit=options.bridging_pair_limit, seed=name
        )
    )
    prep = _CircuitPrep(
        name, uio, generation, scan, stuck_at, bridging, tests, timings,
        stuck_at_proven=proven,
        universes={
            "stuck_at": [fault for fault in stuck_at if fault not in proven],
            "bridging": bridging,
        },
    )
    # Only the cache is read here.  A split it does not hold is derived in
    # phase 2 from the simulator that grades the universe anyway.
    for model in MODELS:
        key = detectability_key(scan, prep.universes[model])
        prep.detectability_keys[model] = key
        prep.cached_splits[model] = lookup_detectability(
            key, circuit=name, timings=timings
        )
    return prep


# -------------------------------------------------------- phase 2: simulate


@dataclass
class _ChunkResult:
    """Phase-2 result of one fault chunk (picklable worker payload)."""

    #: detection mask per test, over the chunk's fault-bit order
    masks: list[int]
    #: the chunk's detectable mask, when the task was asked to derive it
    detectable: int | None
    timings: StageTimings
    obs: ObsSnapshot | None


def _simulate_task(snapshot: dict[str, Any], index: int) -> _ChunkResult:
    """Detection mask per test for one fault chunk of one circuit.

    ``snapshot`` is the phase-primed artifact snapshot (see
    :func:`_run_phase`); ``index`` picks the chunk — the whole task message
    is just that integer.  When the chunk's universe had no cached
    detectability split, the task also derives the chunk's detectable mask
    from the simulator it built; each fault's verdict is independent of
    the others in its chunk, so phase 3 assembles the universe's split from
    the chunks.
    """
    name, chunk, derive = snapshot["chunks"][index]
    scan, table, tests = snapshot["circuits"][name]
    faultsim: FaultSimConfig = snapshot["faultsim"]
    timings = StageTimings()
    cache = active_cache()
    hits = cache.hits if cache is not None else 0
    misses = cache.misses if cache is not None else 0
    total_cycles = sum(len(test.inputs) for test in tests)
    detectable = None
    with trace_span(
        "sweep.chunk", circuit=name, n_faults=len(chunk), n_tests=len(tests)
    ):
        with stopwatch() as clock:
            simulator = make_fault_simulator(
                scan, table, chunk, faultsim, total_test_cycles=total_cycles
            )
            masks = simulator.detect_masks(tests)
        timings.add(name, STAGE_FAULT_SIM, clock.elapsed_s)
        _report_chunk(chunk, masks, isinstance(simulator, PpsfpSimulator))
        if derive:
            detectable = derive_detectability(
                simulator, circuit=name, timings=timings
            )
    if cache is not None:
        # The only cache traffic here is the compiled simulator source.
        timings.cache_hits += cache.hits - hits
        timings.cache_misses += cache.misses - misses
    return _ChunkResult(masks, detectable, timings, worker_snapshot())


def _report_chunk(chunk: list[Fault], masks: list[int], ppsfp: bool) -> None:
    """Fold one chunk's fault-sim effort into the metrics registry.

    A chunk is one batch of the dispatched simulator, so it reports into
    the same ``faultsim.*`` family as the interpreted batch simulator
    (:mod:`repro.gatelevel.fault_sim`): ``detected`` counts distinct faults
    some test caught; per-test mask evaluations are counted per engine
    (``faultsim.ppsfp.calls`` / ``faultsim.compiled_calls``).
    """
    from repro.obs.metrics import current_registry

    registry = current_registry()
    if registry is None:
        return
    union = 0
    for mask in masks:
        union |= mask
    registry.counter("faultsim.batches").add(1)
    calls = "faultsim.ppsfp.calls" if ppsfp else "faultsim.compiled_calls"
    registry.counter(calls).add(len(masks))
    registry.counter("faultsim.faults_simulated").add(len(chunk))
    registry.counter("faultsim.detected").add(union.bit_count())
    registry.histogram("faultsim.batch_detected").observe(union.bit_count())


def _fault_chunks(
    faults: list[Fault],
    faultsim: FaultSimConfig,
    n_pattern_bits: int,
    total_test_cycles: int,
) -> list[list[Fault]]:
    """Engine-aware chunks of one (circuit, fault model) universe.

    The PPSFP engine amortizes one exhaustive table build across the whole
    universe, so it gets a single chunk; the big-int engine gets balanced
    adaptive batch words.  Chunk boundaries are jobs-invariant — the
    persistent pool load-balances chunks dynamically instead of shrinking
    them per worker (which used to recompile the same circuit once per
    worker and made parallel runs *slower* than serial).  Boundaries never
    affect results — per-fault detection is batch-independent.
    """
    n = len(faults)
    if n == 0:
        return []
    engine = faultsim.select_engine(n, n_pattern_bits, total_test_cycles)
    if engine == "ppsfp":
        return [faults]
    size = adaptive_batch_bits(n)
    return [faults[start : start + size] for start in range(0, n, size)]


# ---------------------------------------------------------- phase 3: select


def _select_from_masks(
    prep: _CircuitPrep,
    faults: list[Fault],
    chunks: list[list[Fault]],
    chunk_masks: list[list[int]],
    undetectable: set[Fault],
) -> EffectiveSelection:
    """Replay the serial effective-test selection from precomputed masks."""
    per_test: list[set[Fault]] = [set() for _ in prep.tests]
    for chunk, masks in zip(chunks, chunk_masks):
        for index, mask in enumerate(masks):
            detected = per_test[index]
            while mask:
                low = (mask & -mask).bit_length() - 1
                detected.add(chunk[low])
                mask &= mask - 1
    iterator = iter(per_test)

    def simulate(test: ScanTest, remaining: frozenset[Fault]) -> set[Fault]:
        # select_effective_tests calls simulate() for a strict prefix of
        # by_decreasing_length() order — the same order per_test follows.
        return next(iterator) & remaining

    return select_effective_tests(
        prep.generation.test_set, simulate, faults,
        stop_when_exhausted=undetectable,
    )


def _assemble_split(
    chunks: list[list[Fault]], results: list[_ChunkResult]
) -> tuple[set[Fault], set[Fault]]:
    """A universe's detectability split from its chunks' detectable masks."""
    detectable: set[Fault] = set()
    undetectable: set[Fault] = set()
    for chunk, result in zip(chunks, results):
        assert result.detectable is not None, "chunk was not asked to derive"
        chunk_detectable, chunk_undetectable = partition_by_mask(
            chunk, result.detectable
        )
        detectable |= chunk_detectable
        undetectable |= chunk_undetectable
    return detectable, undetectable


# ------------------------------------------------------------ the scheduler


def _run_phase(
    jobs: int,
    function: Callable[[Any, int], Any],
    snapshot: dict[str, Any],
    n_tasks: int,
    *,
    progress: "ProgressMeter | None" = None,
) -> list[Any]:
    """One engine phase: ``function(snapshot, i)`` for every task index.

    With ``jobs > 1`` the persistent pool is primed once with ``snapshot``
    and receives index-only task messages; otherwise — and whenever the
    pool cannot be created — the exact same task function runs inline, so
    every path produces identical results.  ``progress`` (a live meter
    from :func:`repro.obs.progress.meter`, or ``None``) ticks once per
    completed task on either path.
    """
    inline = jobs <= 1 or n_tasks <= 1
    pool = None
    if not inline:
        pool = get_pool(jobs)
        inline = pool is None
    if inline:
        results = []
        for index in range(n_tasks):
            results.append(function(snapshot, index))
            if progress is not None:
                progress.update()
    else:
        cache = active_cache()
        root = str(cache.root) if cache is not None else None
        pool.prime(snapshot, cache_root=root, obs_on=is_active())
        on_result = None
        if progress is not None:
            on_result = lambda index, result: progress.update()  # noqa: E731
        results = pool.run(function, n_tasks, on_result=on_result)
    if progress is not None:
        progress.finish()
    return results


def compute_studies(
    circuits: Sequence[str],
    options: "StudyOptions | None" = None,
    *,
    jobs: int = 1,
    timings: StageTimings | None = None,
    scope: str = "full",
) -> dict[str, StudyArtifacts]:
    """Run the pipeline for ``circuits`` with ``jobs`` processes.

    Returns one :class:`StudyArtifacts` per circuit, keyed and ordered by
    the caller's circuit order.  ``timings``, when given, accumulates every
    stage record (including worker-side cache hit/miss counts).

    ``scope="functional"`` stops after test generation (no synthesis, fault
    enumeration, simulation, or selection) — what the functional tables
    (4/5) need, and cheap enough that serial runs afford it too.
    """
    from repro.harness.experiments import StudyOptions

    if scope not in ("full", "functional"):
        raise ValueError(f"unknown scope {scope!r}")
    options = options or StudyOptions()
    names = list(dict.fromkeys(circuits))

    # Worker snapshots are absorbed *inside* the phase span that dispatched
    # them, so worker spans re-parent under "sweep.prepare"/"sweep.simulate";
    # inline execution (jobs=1 / pool fallback) yields None snapshots because
    # those spans already live in the parent's log.
    with trace_span("sweep.prepare", circuits=len(names), jobs=jobs):
        prepare_snapshot = {
            "names": names, "options": options, "scope": scope,
        }
        preps: list[_CircuitPrep] = _run_phase(
            jobs, _prepare_task, prepare_snapshot, len(names),
            progress=progress_meter("prepare", len(names), circuits=names),
        )
        for prep in preps:
            absorb_snapshot(prep.obs)

    if scope == "functional":
        artifacts_fn: dict[str, StudyArtifacts] = {}
        for prep in preps:
            if timings is not None:
                timings.merge(prep.timings)
            artifacts_fn[prep.name] = StudyArtifacts(
                prep.name, prep.uio, prep.generation
            )
        return artifacts_fn

    faultsim = options.faultsim
    sim_chunks: list[tuple[str, list[Fault], bool]] = []
    sim_circuits: dict[str, tuple[ScanCircuit, StateTable, tuple[ScanTest, ...]]] = {}
    chunk_index: dict[tuple[str, str], list[int]] = {}
    chunk_lists: dict[tuple[str, str], list[list[Fault]]] = {}
    for prep in preps:
        table = load_circuit(prep.name)
        scan = prep.scan_circuit
        sim_circuits[prep.name] = (scan, table, prep.tests)
        pattern_bits = scan.n_state_variables + scan.n_primary_inputs
        total_cycles = sum(len(test.inputs) for test in prep.tests)
        for model in MODELS:
            derive = prep.cached_splits[model] is None
            chunks = _fault_chunks(
                prep.universes[model], faultsim, pattern_bits, total_cycles
            )
            chunk_lists[(prep.name, model)] = chunks
            positions: list[int] = []
            for chunk in chunks:
                positions.append(len(sim_chunks))
                sim_chunks.append((prep.name, chunk, derive))
            chunk_index[(prep.name, model)] = positions

    with trace_span("sweep.simulate", chunks=len(sim_chunks), jobs=jobs):
        simulate_snapshot = {
            "circuits": sim_circuits,
            "chunks": sim_chunks,
            "faultsim": faultsim,
        }
        sim_results: list[_ChunkResult] = _run_phase(
            jobs, _simulate_task, simulate_snapshot, len(sim_chunks),
            progress=progress_meter("simulate", len(sim_chunks), circuits=names),
        )
        for result in sim_results:
            absorb_snapshot(result.obs)

    artifacts: dict[str, StudyArtifacts] = {}
    with trace_span("sweep.select", circuits=len(names)):
        for prep in preps:
            if timings is not None:
                timings.merge(prep.timings)
            splits: dict[str, tuple[set[Fault], set[Fault]]] = {}
            selections: dict[str, EffectiveSelection] = {}
            for model, faults in (
                ("stuck_at", prep.stuck_at_faults or []),
                ("bridging", prep.bridging_faults or []),
            ):
                chunks = chunk_lists[(prep.name, model)]
                results = [
                    sim_results[position]
                    for position in chunk_index[(prep.name, model)]
                ]
                if timings is not None:
                    for result in results:
                        timings.merge(result.timings)
                split = prep.cached_splits[model]
                if split is None:
                    split = _assemble_split(chunks, results)
                    store_detectability(prep.detectability_keys[model], split)
                if model == "stuck_at":
                    split = (split[0], split[1] | set(prep.stuck_at_proven))
                splits[model] = split
                if model == "bridging" and not faults:
                    # Mirror CircuitStudy: empty bridging universe selects nothing.
                    selections[model] = select_effective_tests(
                        prep.generation.test_set, lambda test, remaining: set(), ()
                    )
                    continue
                selections[model] = _select_from_masks(
                    prep,
                    faults,
                    chunks,
                    [result.masks for result in results],
                    split[1],
                )
            artifacts[prep.name] = StudyArtifacts(
                prep.name,
                prep.uio,
                prep.generation,
                prep.scan_circuit,
                prep.stuck_at_faults,
                splits["stuck_at"],
                selections["stuck_at"],
                prep.bridging_faults,
                splits["bridging"],
                selections["bridging"],
                stuck_at_proven=prep.stuck_at_proven,
            )
    return artifacts
