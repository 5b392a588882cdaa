"""Sweep engine: the one pipeline that grades :class:`CircuitStudy` objects.

The engine runs every circuit through three phases:

1. **Prepare** (one task per circuit): build the circuit's
   :class:`~repro.harness.experiments.CircuitStudy` and ask it for its
   inputs — UIO table, functional tests, synthesized and verified scan
   circuit, fault universes.  No static analysis runs: the collapsed
   stuck-at universe comes from
   :func:`~repro.gatelevel.stuck_at.stuck_at_representatives`, and the
   exhaustive tables decide every fault's detectability, certified
   untestable faults included.
2. **Simulate** (one task per fault chunk): every (circuit, fault model)
   universe is cut by :func:`repro.gatelevel.dispatch.fault_chunks` — one
   engine per universe, PPSFP chunks that each fit the table byte budget
   (a universe that fits stays one chunk) — and each task builds that
   engine's fault simulator for its chunk and produces one detection mask
   per test.  Chunking is sound because detection of a fault never depends
   on which other faults share the chunk — each bit/row is its own
   machine.  The task also returns the chunk's detectable mask, read from
   the simulator it built (:func:`repro.gatelevel.dispatch.detectable_mask`:
   a table comparison for PPSFP, the cone oracle for reference chunks);
   verdicts are as chunk-independent as detections.
3. **Select** (main process): each universe's detectability split is
   assembled from its chunks' detectable masks; chunk masks are merged into
   per-test detected sets,
   :func:`~repro.core.compaction.select_effective_tests` replays the
   paper's longest-first effective-test selection against them, and both
   are written into the study's ``grades``.

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
from repro.core.config import FaultSimConfig
from repro.core.testset import ScanTest
from repro.gatelevel.dispatch import (
    circuit_chunks,
    detectable_mask,
    make_fault_simulator,
    partition_by_mask,
)
from repro.harness.experiments import MODELS, CircuitStudy, Split, StudyOptions
from repro.harness.runtime import (
    STAGE_DETECTABILITY,
    STAGE_FAULT_SIM,
    StageTimings,
    stopwatch,
)
from repro.obs import (
    ObsSnapshot,
    absorb_snapshot,
    is_active,
    worker_snapshot,
)
from repro.obs.progress import meter as progress_meter
from repro.obs.trace import span as trace_span
from repro.perf.artifacts import Fault
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
    universes."""
    name, scope = snapshot["names"][index], snapshot["scope"]
    with trace_span("circuit.prepare", circuit=name, scope=scope):
        study = CircuitStudy(name, snapshot["options"])
        _ = study.tests
        if scope == "full":
            for model in MODELS:
                study.faults(model)
    return study, worker_snapshot()


# -------------------------------------------------------- phase 2: simulate


@dataclass
class _ChunkResult:
    """Phase-2 result of one fault chunk (picklable worker payload)."""

    #: detection mask per test, over the chunk's fault-bit order
    masks: list[int]
    #: the chunk's detectable mask, over the same bit order
    detectable: int
    timings: StageTimings
    obs: ObsSnapshot | None


def _simulate_task(snapshot: dict[str, Any], index: int) -> _ChunkResult:
    """Detection mask per test for one fault chunk of one circuit.

    ``snapshot`` is the phase-primed artifact snapshot (see
    :func:`_run_phase`); ``index`` picks the chunk — the whole task message
    is just that integer.  The task also derives the chunk's detectable
    mask from the simulator it built; each fault's verdict is independent
    of the others in its chunk, so phase 3 assembles the universe's split
    from the chunks.
    """
    position, engine, chunk = snapshot["chunks"][index]
    name, scan, table, tests = snapshot["circuits"][position]
    timings = StageTimings()
    with trace_span(
        "sweep.chunk", circuit=name, n_faults=len(chunk), n_tests=len(tests)
    ):
        with stopwatch() as clock:
            simulator = make_fault_simulator(
                scan, table, chunk, FaultSimConfig(engine)
            )
            masks = simulator.detect_masks(tests)
        timings.add(name, STAGE_FAULT_SIM, clock.elapsed_s)
        _report_chunk(chunk, masks, engine == "ppsfp")
        with timings.stage(name, STAGE_DETECTABILITY) as sp:
            sp.set(n_faults=len(chunk))
            detectable = detectable_mask(simulator)
    return _ChunkResult(masks, detectable, timings, worker_snapshot())


def _report_chunk(chunk: list[Fault], masks: list[int], ppsfp: bool) -> None:
    """Fold one chunk's fault-sim effort into the metrics registry.

    A chunk is one batch of the dispatched simulator, so it reports into
    the same ``faultsim.*`` family as the interpreted batch simulator
    (:mod:`repro.gatelevel.fault_sim`): ``detected`` counts distinct faults
    some test caught; a PPSFP chunk also counts its per-test mask
    evaluations (``faultsim.ppsfp.calls``).
    """
    from repro.obs.metrics import current_registry

    registry = current_registry()
    if registry is None:
        return
    union = 0
    for mask in masks:
        union |= mask
    registry.counter("faultsim.batches").add(1)
    if ppsfp:
        registry.counter("faultsim.ppsfp.calls").add(len(masks))
    registry.counter("faultsim.faults_simulated").add(len(chunk))
    registry.counter("faultsim.detected").add(union.bit_count())
    registry.histogram("faultsim.batch_detected").observe(union.bit_count())


# ---------------------------------------------------------- phase 3: select


def _select_from_masks(
    study: CircuitStudy,
    faults: list[Fault],
    chunks: list[list[Fault]],
    results: list[_ChunkResult],
    undetectable: set[Fault],
) -> EffectiveSelection:
    """Replay the effective-test selection from precomputed masks.

    The chunks' per-test masks, and their detectable masks, are shifted
    into one mask each over the simulated faults in chunk order.  ``live``
    starts as the detectable faults, the simulated faults outside
    ``undetectable``, and loses the faults each test reports, so it is
    ``remaining`` restricted to the simulated faults and only
    ``mask & live`` needs decoding.
    """
    simulated = [fault for chunk in chunks for fault in chunk]
    per_test = [0] * len(study.tests)
    live = 0
    offset = 0
    for chunk, result in zip(chunks, results):
        for index, mask in enumerate(result.masks):
            per_test[index] |= mask << offset
        live |= result.detectable << offset
        offset += len(chunk)
    iterator = iter(per_test)

    def simulate(test: ScanTest, remaining: frozenset[Fault]) -> list[Fault]:
        # select_effective_tests calls simulate() for a strict prefix of
        # by_decreasing_length() order — the same order per_test follows.
        nonlocal live
        mask = next(iterator) & live
        live &= ~mask
        newly = []
        while mask:
            low = mask & -mask
            newly.append(simulated[low.bit_length() - 1])
            mask ^= low
        return newly

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
    split = _assemble_split(chunks, results)
    selection = _select_from_masks(
        study, study.faults(model), chunks, results, split[1]
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
        pool.prime(snapshot, obs_on=is_active())
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
    chunks: list[tuple[int, str, list[Fault]]] = []
    circuits = []
    plan: dict[tuple[int, str], tuple[list[list[Fault]], range]] = {}
    for position, study in enumerate(studies):
        scan, tests = study.scan_circuit, study.tests
        faultsim: FaultSimConfig = study.options.faultsim
        circuits.append((study.name, scan, study.table, tests))
        for model in models:
            engine, model_chunks = circuit_chunks(
                scan, study.faults(model), faultsim
            )
            plan[position, model] = (
                model_chunks,
                range(len(chunks), len(chunks) + len(model_chunks)),
            )
            chunks.extend((position, engine, chunk) for chunk in model_chunks)

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
    every stage record, the workers' included.

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
