"""Tests for repro.perf: parallel engine, ATPG-run cache, bench harness."""

from __future__ import annotations

import json
import pickle
import statistics

import numpy as np
import pytest

from repro.benchmarks import circuit_names, load_circuit
from repro.core.config import (
    DEFAULT_BATCH_BITS_CAP,
    DEFAULT_PPSFP_BYTE_BUDGET,
    FaultSimConfig,
    adaptive_batch_bits,
    table_cell_bytes,
)
from repro.errors import FaultSimulationError
from repro.fsm.state_table import StateTable
from repro.gatelevel import fault_sim
from repro.gatelevel.detectability import assigned_pattern_mask, detectable_faults
from repro.gatelevel.dispatch import fault_chunks
from repro.harness import experiments as experiments_module
from repro.harness.experiments import CircuitStudy, StudyOptions, get_study, warm_studies
from repro.harness.runtime import StageTimings
from repro.perf.cache import (
    ARTIFACT_VERSIONS,
    ArtifactCache,
    CacheError,
    active_cache,
    artifact_key,
    cache_enabled,
    stable_hash,
)
from repro.perf import engine as engine_module
from repro.perf.artifacts import cached_atpg
from repro.perf.bench import OVERHEAD_PAIRS
from repro.perf.engine import compute_studies
from repro.perf.pool import WorkerPool, get_pool, shutdown_pool
from repro.uio.search import input_class_representatives

PARALLEL_CIRCUITS = ("lion", "mc")


def _pool_square(snapshot, index):
    """Module-level so fork workers can unpickle it by reference."""
    return snapshot["base"] + index * index


def _pool_fail_on_two(snapshot, index):
    if index == 2:
        raise ValueError("task 2 exploded")
    return index


# ------------------------------------------------------------- stable_hash


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(1, "a", (2.5, None)) == stable_hash(1, "a", (2.5, None))

    def test_type_prefixes_disambiguate(self):
        assert stable_hash(1) != stable_hash("1")
        assert stable_hash(True) != stable_hash(1)
        assert stable_hash((1, 2)) != stable_hash((12,))
        assert stable_hash("ab", "c") != stable_hash("a", "bc")

    def test_dict_order_insensitive(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_numpy_and_dataclass(self):
        left = np.array([[1, 2], [3, 4]], dtype=np.int32)
        right = np.array([[1, 2], [3, 4]], dtype=np.int64)
        assert stable_hash(left) == stable_hash(left.copy())
        assert stable_hash(left) != stable_hash(right)  # dtype in the key
        options = StudyOptions()
        assert stable_hash(options) == stable_hash(StudyOptions())
        assert stable_hash(options) != stable_hash(StudyOptions(max_fanin=3))

    def test_unhashable_type_raises(self):
        with pytest.raises(CacheError):
            stable_hash(object())

    def test_artifact_key_includes_version(self, monkeypatch):
        key = artifact_key("atpg", "x")
        monkeypatch.setitem(ARTIFACT_VERSIONS, "atpg", ARTIFACT_VERSIONS["atpg"] + 1)
        assert artifact_key("atpg", "x") != key

    def test_atpg_is_the_only_kind(self):
        assert set(ARTIFACT_VERSIONS) == {"atpg"}
        for kind in ("uio", "synthesis", "sca"):
            with pytest.raises(CacheError):
                artifact_key(kind, 1)

    def test_artifact_key_unknown_kind(self):
        with pytest.raises(CacheError):
            artifact_key("nonsense", 1)


# ----------------------------------------------------------- ArtifactCache


class TestArtifactCache:
    def test_round_trip_and_counters(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = stable_hash("payload")
        assert cache.get("atpg", key) is None
        cache.put("atpg", key, {"value": (1, 2, 3)})
        assert cache.get("atpg", key) == {"value": (1, 2, 3)}
        assert (cache.hits, cache.misses) == (1, 1)

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = stable_hash("x")
        path = cache._path("atpg", key)
        for entry in (
            b"not a pickle",  # UnpicklingError
            b"\x80\xc8",  # protocol 200: ValueError
            b"N)R.",  # REDUCE on None: TypeError
            b"X\x02\x00\x00\x00\xff\xfe.",  # UnicodeDecodeError
            b"\x95" + b"\xff" * 8,  # FRAME too long: OverflowError
        ):
            cache.put("atpg", key, [1, 2])
            path.write_bytes(entry)
            assert cache.get("atpg", key) is None, entry
            assert not path.exists(), entry
        assert (cache.hits, cache.misses) == (0, 5)

    def test_info_and_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("atpg", stable_hash(1), "a")
        cache.put("atpg", stable_hash(2), "b")
        info = cache.info()
        assert info["entries"] == 2
        assert info["kinds"]["atpg"]["entries"] == 2
        assert cache.clear() == 2
        assert cache.info()["entries"] == 0

    def test_active_cache_context(self, tmp_path):
        assert active_cache() is None
        with cache_enabled(tmp_path) as cache:
            assert active_cache() is cache
        assert active_cache() is None


def _lion_atpg(**kwargs):
    study = CircuitStudy("lion", StudyOptions())
    return cached_atpg(study.scan_circuit, study.table, **kwargs)


class TestCachedPipeline:
    """ATPG runs go through the cache; grading never touches it."""

    def test_cold_miss_then_warm_hit(self, tmp_path):
        with cache_enabled(tmp_path) as cache:
            cold = _lion_atpg()
            assert (cache.hits, cache.misses) == (0, 1)
            warm = _lion_atpg()
            assert (cache.hits, cache.misses) == (1, 1)
        assert warm == cold
        assert cache.info()["kinds"]["atpg"]["entries"] == 1

    def test_option_change_invalidates(self, tmp_path):
        with cache_enabled(tmp_path) as cache:
            _lion_atpg()
            _lion_atpg(backtrack_limit=7)  # a different limit, a different key
            assert (cache.hits, cache.misses) == (0, 2)

    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        with cache_enabled(tmp_path) as cache:
            _lion_atpg()
            monkeypatch.setitem(
                ARTIFACT_VERSIONS, "atpg", ARTIFACT_VERSIONS["atpg"] + 1
            )
            _lion_atpg()
            assert cache.hits == 0  # old entry ignored under the new version

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_grading_makes_no_lookup_and_stores_nothing(self, tmp_path, jobs):
        with cache_enabled(tmp_path) as cache:
            shutdown_pool()  # fork the workers while the cache is active
            studies = compute_studies(PARALLEL_CIRCUITS, StudyOptions(), jobs=jobs)
            assert all(study.grades for study in studies.values())
        info = cache.info()
        assert (info["entries"], cache.hits, cache.misses) == (0, 0, 0)


# -------------------------------------------------------- parallel engine


def _signatures(artifacts):
    return {name: value.signature() for name, value in artifacts.items()}


class TestParallelEngine:
    def test_parallel_identical_to_serial(self):
        """jobs=2 must reproduce the serial results bit-for-bit (stuck-at
        and bridging selections, detection sets, and row tables)."""
        options = StudyOptions()
        serial = compute_studies(PARALLEL_CIRCUITS, options, jobs=1)
        parallel = compute_studies(PARALLEL_CIRCUITS, options, jobs=2)
        assert _signatures(serial) == _signatures(parallel)
        for name in PARALLEL_CIRCUITS:
            assert (
                serial[name].stuck_at_selection.detected
                == parallel[name].stuck_at_selection.detected
            )
            assert (
                serial[name].bridging_selection.detected
                == parallel[name].bridging_selection.detected
            )

    def test_engine_matches_circuit_study(self):
        options = StudyOptions()
        artifacts = compute_studies(("lion",), options, jobs=1)["lion"]
        study = CircuitStudy("lion", options)
        assert artifacts.stuck_at_selection.rows == study.stuck_at_selection.rows
        assert artifacts.bridging_selection.rows == study.bridging_selection.rows
        assert artifacts.stuck_at_detectability == study.stuck_at_detectability

    def test_deterministic_ordering_and_timings(self):
        timings = StageTimings()
        artifacts = compute_studies(("mc", "lion"), jobs=1, timings=timings)
        assert list(artifacts) == ["mc", "lion"]
        assert set(timings.stages()) >= {
            "uio", "generation", "synthesis", "detectability", "fault-sim",
        }
        assert timings.total() > 0.0

    def test_warm_studies_installs(self):
        options = StudyOptions(bridging_pair_limit=40)
        artifacts = warm_studies(("lion",), options, jobs=1)
        study = get_study("lion", options)
        # Seeded cached_property: identical objects, no recomputation.
        assert study.stuck_at_selection is artifacts["lion"].stuck_at_selection
        assert study.generation is artifacts["lion"].generation


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(what)

    return refuse


class TestOnePipeline:
    """Every grade comes from the engine; a lazy study grades one model."""

    def test_lazy_grading_runs_the_engine(self, monkeypatch):
        calls = []
        simulate = engine_module._simulate_task

        def counting(snapshot, index):
            calls.append(index)
            return simulate(snapshot, index)

        monkeypatch.setattr(engine_module, "_simulate_task", counting)
        options = StudyOptions()
        study = CircuitStudy("lion", options)
        assert study.stuck_at_selection.n_effective > 0
        assert calls, "lazy stuck-at grading bypassed the engine"
        stuck_at_calls = len(calls)
        assert study.bridging_selection.n_effective > 0
        assert len(calls) > stuck_at_calls
        swept = compute_studies(("lion",), options)["lion"]
        assert study.signature() == swept.signature()
        assert study.summary() == swept.summary()

    def test_stuck_at_grading_never_enumerates_bridging_faults(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            experiments_module, "enumerate_bridging_faults",
            _refuse("stuck-at grading enumerated bridging faults"),
        )
        study = CircuitStudy("bbtas", StudyOptions())
        detectable, _ = study.stuck_at_detectability
        assert study.stuck_at_selection.detected == frozenset(detectable)
        assert list(study.grades) == ["stuck_at"]

    def test_functional_studies_summarize_without_grading(self, monkeypatch):
        studies = compute_studies(
            ("lion", "mc"), StudyOptions(), scope="functional"
        )
        monkeypatch.setattr(
            engine_module, "make_fault_simulator",
            _refuse("a functional study built a fault simulator"),
        )
        for study in studies.values():
            summary, signature = study.summary(), study.signature()
            for model in ("stuck_at", "bridging"):
                assert model not in summary and model not in signature
            assert study.grades == {}

    def test_warm_studies_registers_the_computed_studies(self):
        options = StudyOptions(bridging_pair_limit=40)
        studies = warm_studies(("lion", "mc"), options, jobs=1)
        for name, study in studies.items():
            assert isinstance(study, CircuitStudy)
            assert get_study(name, options) is study

    def test_prepared_study_leaves_the_static_analysis_behind(self):
        snapshot = {"names": ["bbara"], "options": StudyOptions(), "scope": "full"}
        study, _ = engine_module._prepare_task(snapshot, 0)
        assert "sca" not in vars(study)
        assert study.stuck_at_faults and study.bridging_faults


# ------------------------------------------- detectability from simulators


def _masked_cone_split(scan, faults):
    mask = assigned_pattern_mask(scan.encoding, scan.n_primary_inputs)
    return detectable_faults(scan.netlist, faults, pattern_mask=mask)


class TestDetectabilityFromSimulators:
    def test_bigint_engine_matches_auto(self):
        """Forced big-int chunks take the cone fallback, chunk by chunk."""
        names = ("lion", "bbtas")
        auto = compute_studies(names, StudyOptions(), jobs=1)
        bigint = compute_studies(
            names, StudyOptions(faultsim=FaultSimConfig(engine="bigint")), jobs=1
        )
        assert _signatures(bigint) == _signatures(auto)
        for name in names:
            assert (
                bigint[name].stuck_at_detectability
                == auto[name].stuck_at_detectability
            )
            assert (
                bigint[name].bridging_detectability
                == auto[name].bridging_detectability
            )

    def test_splits_equal_the_masked_cone_oracle(self):
        names = tuple(circuit_names("small")) + ("bbara",)
        artifacts = compute_studies(names, StudyOptions(), jobs=1)
        for name in names:
            computed = artifacts[name]
            study = CircuitStudy(name, StudyOptions())
            scan = study.scan_circuit
            stuck_at = _masked_cone_split(scan, computed.stuck_at_faults)
            bridging = _masked_cone_split(scan, computed.bridging_faults)
            assert computed.stuck_at_detectability == stuck_at, name
            assert study.stuck_at_detectability == stuck_at, name
            assert computed.bridging_detectability == bridging, name
            assert study.bridging_detectability == bridging, name

    def test_warm_run_derives_the_split_like_a_cold_run(
        self, tmp_path, monkeypatch
    ):
        names = ("lion", "bbtas")
        options = StudyOptions()
        derived: list = []
        real = engine_module.detectable_mask

        def counting(simulator):
            derived.extend(simulator.faults)
            return real(simulator)

        monkeypatch.setattr(engine_module, "detectable_mask", counting)
        uncached = compute_studies(names, options, jobs=1)
        runs = []
        with cache_enabled(tmp_path) as cache:
            for _ in ("cold", "warm"):
                derived.clear()
                timings = StageTimings()
                studies = compute_studies(names, options, jobs=1, timings=timings)
                # Every simulated fault of every universe got a verdict from
                # the simulator that graded it, on both runs.
                assert sorted(map(repr, derived)) == sorted(
                    repr(fault)
                    for study in studies.values()
                    for model in ("stuck_at", "bridging")
                    for fault in study.faults(model)
                )
                assert any(r.stage == "detectability" for r in timings.records)
                runs.append(studies)
        assert (cache.info()["entries"], cache.hits, cache.misses) == (0, 0, 0)
        for studies in runs:
            assert _signatures(studies) == _signatures(uncached)
            for name in names:
                assert (
                    studies[name].stuck_at_detectability
                    == uncached[name].stuck_at_detectability
                )
                assert (
                    studies[name].bridging_detectability
                    == uncached[name].bridging_detectability
                )


# ------------------------------------------------------------------ bench


class TestBench:
    def test_bench_report_schema(self, tmp_path):
        from repro.perf.bench import BENCH_SCHEMA, run_bench

        report = run_bench(("lion",), jobs=2)
        assert report["schema"] == BENCH_SCHEMA == "repro-fsatpg-bench/6"
        assert report["circuits"] == ["lion"]
        assert report["identical"] is True
        assert report["divergence"] == []
        # /6: no warm run, no cache directory, no cache traffic per run.
        assert set(report["runs"]) == {"serial_cold", "parallel_cold"}
        assert "cache_dir" not in report
        for record in report["runs"].values():
            assert record["wall_s"] > 0.0
            assert set(record) >= {"jobs", "wall_s", "stage_seconds", "per_circuit"}
            assert "cache" not in record
        # /4 additions: engine pinned in options, per-stage speedups.
        assert report["options"]["engine"] == "auto"
        assert set(report["stage_speedups"]) == {"parallel_cold"}
        serial_stages = report["runs"]["serial_cold"]["stage_seconds"]
        for ratios in report["stage_speedups"].values():
            assert set(ratios) == set(serial_stages)
            assert all(value >= 0.0 for value in ratios.values())
        # Observer overhead: the median over alternating pairs, each kept.
        observability = report["observability"]
        assert len(observability["pairs"]) == OVERHEAD_PAIRS
        assert observability["overhead_pct"] == pytest.approx(
            statistics.median(p["overhead_pct"] for p in observability["pairs"])
        )
        assert observability["spans"] > 0
        json.dumps(report)  # must be JSON-serializable as-is

    def test_observer_overhead_alternates_pairs_and_takes_median(
        self, monkeypatch
    ):
        from repro.obs.trace import tracing_active
        from repro.perf import bench

        calls: list[str] = []
        # Walls and CPU seconds per call, in call order: pair 1 off/on,
        # pair 2 on/off, ...; CPU is 0.25 s system time plus user time.
        walls = iter([1.0, 1.1, 2.2, 2.0, 1.0, 0.9])
        cpus = iter([1.0, 1.02, 2.04, 2.0, 1.0, 1.01])

        def stub_run(circuits, jobs, options):
            calls.append("on" if tracing_active() else "off")
            wall, cpu = next(walls), next(cpus)
            return {}, {
                "wall_s": wall,
                "stage_seconds": {"sca": wall / 2, "fault-sim": wall / 4},
                "resources": {"cpu_user_s": cpu - 0.25, "cpu_system_s": 0.25},
            }

        monkeypatch.setattr(bench, "_run", stub_run)
        block, _snapshot, divergence = bench._observer_overhead(
            ("lion",), None, {}, pairs=3
        )
        assert calls == ["off", "on", "on", "off", "off", "on"]
        assert [pair["order"] for pair in block["pairs"]] == [
            "disabled first", "enabled first", "disabled first",
        ]
        per_pair = [pair["overhead_pct"] for pair in block["pairs"]]
        assert per_pair == pytest.approx([10.0, 10.0, -10.0])
        assert block["overhead_pct"] == pytest.approx(10.0)  # the median
        assert block["disabled_wall_s"] == 1.0
        assert block["enabled_wall_s"] == 1.1
        # CPU seconds: each pair keeps both runs' user + system time.
        assert [
            (pair["disabled_cpu_s"], pair["enabled_cpu_s"]) for pair in block["pairs"]
        ] == pytest.approx([(1.0, 1.02), (2.0, 2.04), (1.0, 1.01)])
        per_pair_cpu = [pair["overhead_cpu_pct"] for pair in block["pairs"]]
        assert per_pair_cpu == pytest.approx([2.0, 2.0, 1.0])
        assert block["overhead_cpu_pct"] == pytest.approx(2.0)  # the median
        # The unobserved runs' stages are kept, with per-stage medians.
        assert [pair["disabled_stage_seconds"]["sca"] for pair in block["pairs"]] == [
            0.5, 1.0, 0.5,
        ]
        assert block["disabled_stage_seconds"] == {"sca": 0.5, "fault-sim": 0.25}
        assert divergence == []

    def test_speedups_divide_the_unobserved_pair_runs(self, tmp_path, monkeypatch):
        from repro.perf import bench

        class Graded:
            def signature(self):
                return {}

            def summary(self):
                return {}

        # serial_cold first and slowest, then the pairs (off/on, on/off,
        # off/on), then parallel_cold.
        walls = iter([4.0, 2.0, 2.2, 2.4, 2.6, 1.8, 2.0, 1.0])

        def stub_run(circuits, jobs, options):
            wall = next(walls)
            return {"lion": Graded()}, {
                "jobs": jobs,
                "wall_s": wall,
                "stage_seconds": {"sca": wall / 2, "fault-sim": wall / 4},
                "resources": {"cpu_user_s": wall, "cpu_system_s": 0.0},
            }

        monkeypatch.setattr(bench, "_run", stub_run)
        report = bench.run_bench(("lion",), jobs=1)
        assert report["runs"]["serial_cold"]["wall_s"] == 4.0
        # The unobserved pair runs read 2.0, 2.6 and 1.8 s: median 2.0 s.
        assert report["observability"]["disabled_wall_s"] == 2.0
        assert report["speedup_parallel_cold"] == pytest.approx(2.0)
        assert report["stage_speedups"] == {
            "parallel_cold": pytest.approx({"sca": 2.0, "fault-sim": 2.0}),
        }

    def test_bench_engine_override_recorded(self, tmp_path):
        from repro.perf.bench import run_bench

        report = run_bench(("lion",), jobs=2, engine="ppsfp")
        assert report["options"]["engine"] == "ppsfp"
        assert report["identical"] is True

    def test_regress_accepts_the_committed_baseline(self):
        """The committed ``BENCH_perf.json`` (schema /5) still gates: the
        fields ``regress`` reads are the same in /5 and /6."""
        from pathlib import Path

        from repro.obs.regress import run_regress

        path = Path(__file__).resolve().parents[1] / "BENCH_perf.json"
        report, code = run_regress(path, threshold_pct=1e9, min_rss_kb=1e12)
        assert code == 0, report.render()
        assert report.checked_circuits == len(json.loads(path.read_text())["circuits"])
        assert not any("schema" in note for note in report.notes)


# ------------------------------------------------- adaptive batch sizing


class TestAdaptiveBatchBits:
    def test_small_universe_exact_width(self):
        assert adaptive_batch_bits(1) == 1
        assert adaptive_batch_bits(100) == 100
        assert adaptive_batch_bits(DEFAULT_BATCH_BITS_CAP) == DEFAULT_BATCH_BITS_CAP

    def test_large_universe_balanced(self):
        assert adaptive_batch_bits(DEFAULT_BATCH_BITS_CAP + 1) == 1025
        assert adaptive_batch_bits(5000) == 1667  # three balanced batches
        assert adaptive_batch_bits(7, cap=3) == 3  # 3+2+2, not 3+3+1

    def test_empty_universe(self):
        assert adaptive_batch_bits(0) == 1

    def test_invalid_cap(self):
        with pytest.raises(FaultSimulationError):
            adaptive_batch_bits(10, cap=0)

    def test_detects_adaptive_default_matches_fixed(self, lion, monkeypatch):
        from repro.core.generator import generate_tests
        from repro.gatelevel.scan import ScanCircuit
        from repro.gatelevel.stuck_at import collapse_stuck_at
        from repro.gatelevel.synthesis import SynthesisOptions

        from repro.benchmarks import load_kiss_machine

        circuit = ScanCircuit.from_machine(
            load_kiss_machine("lion"), SynthesisOptions(max_fanin=4)
        )
        faults = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        test = generate_tests(lion).test_set.tests[0]
        adaptive = fault_sim.detects(circuit, lion, test, faults)
        monkeypatch.setattr("repro.core.config.DEFAULT_BATCH_BITS_CAP", 7)
        fixed = fault_sim.detects(circuit, lion, test, faults)
        assert adaptive == fixed


# ----------------------------------------------------- persistent pool


class TestWorkerPool:
    def test_requires_two_jobs(self):
        with pytest.raises(ValueError, match="at least 2"):
            WorkerPool(1)

    def test_prime_then_ordered_results(self):
        pool = WorkerPool(2)
        try:
            pool.prime({"base": 100})
            assert pool.run(_pool_square, 5) == [100, 101, 104, 109, 116]
            # Re-prime replaces the snapshot for later phases.
            pool.prime({"base": 0})
            assert pool.run(_pool_square, 3) == [0, 1, 4]
        finally:
            pool.shutdown()

    def test_error_drains_and_reraises_then_pool_survives(self):
        pool = WorkerPool(2)
        try:
            pool.prime({"base": 0})
            with pytest.raises(ValueError, match="task 2 exploded"):
                pool.run(_pool_fail_on_two, 6)
            # The pipes were drained, so the pool is still usable.
            assert pool.run(_pool_square, 4) == [0, 1, 4, 9]
        finally:
            pool.shutdown()

    def test_dead_workers_fall_back_inline(self):
        pool = WorkerPool(2)
        try:
            pool.prime({"base": 10})
            for worker in pool._workers:
                worker.kill()
            assert pool.n_alive == 0
            # Every task runs inline on the parent's snapshot reference.
            assert pool.run(_pool_square, 4) == [10, 11, 14, 19]
        finally:
            pool.shutdown()

    def test_shutdown_is_idempotent(self):
        pool = WorkerPool(2)
        pool.shutdown()
        pool.shutdown()
        assert pool.n_alive == 0


class TestPoolSingleton:
    def test_inline_below_two_jobs(self):
        assert get_pool(1) is None
        assert get_pool(0) is None

    def test_reuse_resize_and_shutdown(self):
        try:
            pool = get_pool(2)
            if pool is None:  # fork unavailable in this environment
                pytest.skip("worker processes unavailable")
            assert get_pool(2) is pool  # same size: reused as-is
            resized = get_pool(3)
            assert resized is not pool and resized.jobs == 3
            assert pool._closed  # the replaced pool was shut down
        finally:
            shutdown_pool()
            shutdown_pool()  # idempotent


# ---------------------------------------------- the dispatcher's chunk rule


class TestFaultChunks:
    """The dispatcher's chunk rule, pinned on registry dimensions without
    synthesizing anything."""

    def test_empty_universe(self):
        assert fault_chunks([], FaultSimConfig(), 4, cell_bits=8) == ("ppsfp", [])

    def test_ppsfp_gets_one_whole_universe_chunk(self):
        faults = list(range(300))
        chunks = fault_chunks(
            faults, FaultSimConfig(engine="ppsfp"), 6, cell_bits=8
        )
        assert chunks == ("ppsfp", [faults])

    def test_bigint_gets_adaptive_slices(self):
        faults = list(range(5000))
        config = FaultSimConfig(engine="bigint")
        size = adaptive_batch_bits(len(faults))
        engine, chunks = fault_chunks(faults, config, 6, cell_bits=8)
        assert engine == "bigint"
        assert [len(chunk) for chunk in chunks[:-1]] == [size] * (len(chunks) - 1)
        assert [fault for chunk in chunks for fault in chunk] == faults
        assert len(chunks) > 1

    def test_auto_dispatch_controls_chunking(self):
        faults = list(range(5000))
        config = FaultSimConfig()  # auto
        # Small pattern space: the whole table fits, one chunk.
        assert fault_chunks(faults, config, 6, cell_bits=8) == ("ppsfp", [faults])
        # 2^24 patterns: 16 MiB per fault, so eight faults per PPSFP chunk.
        engine, chunks = fault_chunks(faults, config, 24, cell_bits=8)
        assert engine == "ppsfp"
        assert {len(chunk) for chunk in chunks} == {8}

    @pytest.mark.parametrize(
        "faults, pattern_bits, cell_bits, n_chunks",
        [
            # nucpwr: 2^18 patterns of uint16 cells, 256 faults per table.
            (8_953, 18, 13, 35),  # stuck-at
            (1_000, 18, 13, 4),  # bridging
            # dvram: 334 MiB of uint16 cells for the whole universe.
            (10_687, 14, 14, 3),
            # log: 104 MiB, inside the budget.
            (3_324, 14, 9, 1),
        ],
    )
    def test_registry_universes_fit_the_byte_budget(
        self, faults, pattern_bits, cell_bits, n_chunks
    ):
        universe = list(range(faults))
        engine, chunks = fault_chunks(
            universe, FaultSimConfig(), pattern_bits, cell_bits=cell_bits
        )
        assert engine == "ppsfp"
        assert len(chunks) == n_chunks
        # Contiguous and balanced: equal chunks, then one no larger.
        assert [fault for chunk in chunks for fault in chunk] == universe
        sizes = [len(chunk) for chunk in chunks]
        assert len(set(sizes[:-1])) <= 1 and sizes[-1] <= sizes[0]
        cell_bytes = table_cell_bytes(cell_bits)
        assert all(
            (size * cell_bytes << pattern_bits) <= DEFAULT_PPSFP_BYTE_BUDGET
            for size in sizes
        )

    def test_cells_over_64_bits_get_reference_chunks(self):
        faults = list(range(5000))
        engine, chunks = fault_chunks(faults, FaultSimConfig(), 4, cell_bits=65)
        assert engine == "bigint"
        size = adaptive_batch_bits(len(faults))
        assert chunks == [faults[at : at + size] for at in range(0, 5000, size)]

    def test_boundaries_are_jobs_invariant(self):
        # fault_chunks has no jobs parameter at all: the same universe
        # always chunks identically, whatever the pool size.
        import inspect

        parameters = inspect.signature(fault_chunks).parameters
        assert "jobs" not in parameters


# ------------------------------------------------------------ memoization


class TestMemoization:
    def test_input_class_representatives_cached(self):
        table = load_circuit("lion")
        first = input_class_representatives(table)
        second = input_class_representatives(table)
        assert first is second  # served from the per-table cache
        assert table.input_representatives is first  # the memo's one home
        # An equal table built independently holds its own, equal memo.
        clone = StateTable(
            np.asarray(table.next_state),
            np.asarray(table.output),
            table.n_inputs,
            table.n_outputs,
            table.state_names,
            table.name,
        )
        assert input_class_representatives(clone) == first

    def test_state_table_pickle_round_trip(self):
        table = load_circuit("lion")
        clone = pickle.loads(pickle.dumps(table))
        assert clone == table
        assert hash(clone) == hash(table)
        assert clone.name == table.name
        with pytest.raises(AttributeError):
            clone.name = "mutated"


# ------------------------------------------------------------ cli surface


class TestCli:
    def test_cache_info_and_clear(self, tmp_path, capsys):
        from repro.cli import main

        with cache_enabled(tmp_path):
            _lion_atpg()
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert "  atpg " in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed" in capsys.readouterr().out
        assert ArtifactCache(tmp_path).info()["entries"] == 0

    def test_table_with_jobs_and_cache(self, tmp_path, capsys):
        """Table commands take ``--jobs`` but no cache: only ``atpg`` does."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["table6", "--circuits", "lion", "--cache-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err
        assert main(["table4", "--circuits", "lion", "--jobs", "2"]) == 0
        assert "lion" in capsys.readouterr().out
        assert main(["atpg", "lion", "--cache-dir", str(tmp_path)]) == 0
        assert ArtifactCache(tmp_path).info()["kinds"]["atpg"]["entries"] == 1
