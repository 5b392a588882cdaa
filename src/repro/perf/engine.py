"""Sweep engine: the one pipeline that grades :class:`CircuitStudy` objects.

The engine runs every circuit through three phases:

1. **Prepare** (one task per circuit): build the circuit's
   :class:`~repro.harness.experiments.CircuitStudy` and ask it for its
   inputs — UIO table, functional tests, synthesized and verified scan
   circuit, static analysis, fault universes — plus a cache lookup of each
   universe's detectability split.  The artifact cache serves UIO tables,
   synthesized circuits, static analyses and detectability splits across
   runs; nothing is derived here.
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
   detected sets, :func:`~repro.core.compaction.select_effective_tests`
   replays the paper's longest-first effective-test selection against
   them, and both are written into the study's ``grades``.

:func:`compute_studies` runs all three for a sweep.  A study whose grading
is read outside a sweep runs phases 2 and 3 for itself through
:func:`grade_studies`, for the one fault model that was asked for, so every
grade in the repository comes from this module.

Parallel phases run on the **persistent worker pool**
(:mod:`repro.perf.pool`): workers are forked once per process and reused
across phases and sweeps; each phase primes them with one shared read-only
snapshot and then sends index-only task messages, so no per-task artifact
pickling happens at all.  ``jobs=1`` runs the very same task functions
inline, and a machine where workers cannot be forked degrades to the same
inline path, so results are identical for any ``jobs`` value.  Result
ordering is deterministic: the returned mapping follows the caller's
circuit order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.compaction import EffectiveSelection, select_effective_tests
from repro.core.config import FaultSimConfig, adaptive_batch_bits
from repro.core.testset import ScanTest
from repro.gatelevel.dispatch import make_fault_simulator, partition_by_mask
from repro.gatelevel.ppsfp import PpsfpSimulator
from repro.harness.experiments import MODELS, CircuitStudy, Split, StudyOptions
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
    Fault,
    derive_detectability,
    store_detectability,
)
from repro.perf.cache import active_cache
from repro.perf.pool import get_pool

if TYPE_CHECKING:
    from repro.obs.progress import ProgressMeter

__all__ = ["compute_studies", "grade_studies"]


# ------------------------------------------------------------ phase 1: prep


def _prepare_task(
    snapshot: dict[str, Any], index: int
) -> tuple[CircuitStudy, ObsSnapshot | None]:
    """Phase-1 task: build the study of ``snapshot["names"][index]`` and
    compute what grading reads — its tests and, for a full sweep, its fault
    universes and their stored detectability splits."""
    name, scope = snapshot["names"][index], snapshot["scope"]
    with trace_span("circuit.prepare", circuit=name, scope=scope):
        study = CircuitStudy(name, snapshot["options"])
        _ = study.tests
        if scope == "full":
            for model in MODELS:
                study.stored_split(model)
            # The universes are computed; the analysis behind them is most
            # of a pickled study.
            del study.sca
    return study, worker_snapshot()


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
    position, chunk, derive = snapshot["chunks"][index]
    name, scan, table, tests, faultsim = snapshot["circuits"][position]
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
    study: CircuitStudy,
    faults: list[Fault],
    chunks: list[list[Fault]],
    chunk_masks: list[list[int]],
    undetectable: set[Fault],
) -> EffectiveSelection:
    """Replay the effective-test selection from precomputed masks."""
    per_test: list[set[Fault]] = [set() for _ in study.tests]
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
        study.generation.test_set, simulate, faults,
        stop_when_exhausted=undetectable,
    )


def _assemble_split(
    chunks: list[list[Fault]], results: list[_ChunkResult]
) -> Split:
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


def _grade(
    study: CircuitStudy,
    model: str,
    chunks: list[list[Fault]],
    results: list[_ChunkResult],
) -> tuple[Split, EffectiveSelection]:
    """One model's detectability split and effective-test selection."""
    key, split = study.stored_split(model)
    if split is None:
        split = _assemble_split(chunks, results)
        store_detectability(key, split)
    if model == "stuck_at":
        split = (split[0], split[1] | set(study.stuck_at_proven))
    selection = _select_from_masks(
        study, study.faults(model), chunks,
        [result.masks for result in results], split[1],
    )
    return split, selection


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


def grade_studies(
    studies: Sequence[CircuitStudy],
    models: Sequence[str] = MODELS,
    *,
    jobs: int = 1,
) -> None:
    """Phases 2 and 3: grade every study against every one of ``models``.

    Writes each model's detectability split and effective-test selection
    into ``study.grades``, and each chunk's stage records into
    ``study.timings``.
    """
    chunks: list[tuple[int, list[Fault], bool]] = []
    circuits = []
    plan: dict[tuple[int, str], tuple[list[list[Fault]], range]] = {}
    for position, study in enumerate(studies):
        scan, tests = study.scan_circuit, study.tests
        faultsim: FaultSimConfig = study.options.faultsim
        circuits.append((study.name, scan, study.table, tests, faultsim))
        pattern_bits = scan.n_state_variables + scan.n_primary_inputs
        total_cycles = sum(len(test.inputs) for test in tests)
        for model in models:
            derive = study.stored_split(model)[1] is None
            model_chunks = _fault_chunks(
                study.simulated_faults(model), faultsim, pattern_bits,
                total_cycles,
            )
            plan[position, model] = (
                model_chunks, range(len(chunks), len(chunks) + len(model_chunks))
            )
            chunks.extend((position, chunk, derive) for chunk in model_chunks)

    with trace_span("sweep.simulate", chunks=len(chunks), jobs=jobs):
        results: list[_ChunkResult] = _run_phase(
            jobs, _simulate_task, {"circuits": circuits, "chunks": chunks},
            len(chunks),
            progress=progress_meter(
                "simulate", len(chunks),
                circuits=[study.name for study in studies],
            ),
        )
        for result in results:
            absorb_snapshot(result.obs)

    with trace_span("sweep.select", circuits=len(studies)):
        for position, study in enumerate(studies):
            for model in models:
                model_chunks, indices = plan[position, model]
                model_results = [results[index] for index in indices]
                for result in model_results:
                    study.timings.merge(result.timings)
                study.grades[model] = _grade(
                    study, model, model_chunks, model_results
                )


def compute_studies(
    circuits: Sequence[str],
    options: StudyOptions | None = None,
    *,
    jobs: int = 1,
    timings: StageTimings | None = None,
    scope: str = "full",
) -> dict[str, CircuitStudy]:
    """Run the pipeline for ``circuits`` with ``jobs`` processes.

    Returns one graded :class:`CircuitStudy` per circuit, keyed and ordered
    by the caller's circuit order.  ``timings``, when given, accumulates
    every stage record (including worker-side cache hit/miss counts).

    ``scope="functional"`` stops after test generation (no synthesis, fault
    enumeration, simulation, or selection) — what the functional tables
    (4/5) need, and cheap enough that serial runs afford it too.
    """
    if scope not in ("full", "functional"):
        raise ValueError(f"unknown scope {scope!r}")
    options = options or StudyOptions()
    names = list(dict.fromkeys(circuits))

    # Worker snapshots are absorbed *inside* the phase span that dispatched
    # them, so worker spans re-parent under "sweep.prepare"/"sweep.simulate";
    # inline execution (jobs=1 / pool fallback) yields None snapshots because
    # those spans already live in the parent's log.
    with trace_span("sweep.prepare", circuits=len(names), jobs=jobs):
        prepared = _run_phase(
            jobs, _prepare_task,
            {"names": names, "options": options, "scope": scope}, len(names),
            progress=progress_meter("prepare", len(names), circuits=names),
        )
        studies: list[CircuitStudy] = []
        for study, snapshot in prepared:
            absorb_snapshot(snapshot)
            studies.append(study)

    if scope == "full":
        grade_studies(studies, jobs=jobs)
    if timings is not None:
        for study in studies:
            timings.merge(study.timings)
    return {study.name: study for study in studies}
