"""Tests for repro.perf: parallel engine, artifact cache, bench harness."""

from __future__ import annotations

import dataclasses
import json
import pickle

import numpy as np
import pytest

from repro.benchmarks import circuit_names, load_circuit
from repro.core.config import (
    DEFAULT_BATCH_BITS_CAP,
    FaultSimConfig,
    adaptive_batch_bits,
)
from repro.errors import FaultSimulationError
from repro.fsm.encoding import StateEncoding
from repro.fsm.state_table import StateTable
from repro.gatelevel import fault_sim
from repro.gatelevel.detectability import assigned_pattern_mask, detectable_faults
from repro.gatelevel.scan import ScanCircuit
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
from repro.perf.artifacts import detectability_key
from repro.perf.engine import _fault_chunks, compute_studies
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
        key = artifact_key("uio", "x")
        monkeypatch.setitem(ARTIFACT_VERSIONS, "uio", ARTIFACT_VERSIONS["uio"] + 1)
        assert artifact_key("uio", "x") != key

    def test_artifact_key_unknown_kind(self):
        with pytest.raises(CacheError):
            artifact_key("nonsense", 1)


# ----------------------------------------------------------- ArtifactCache


class TestArtifactCache:
    def test_round_trip_and_counters(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = stable_hash("payload")
        assert cache.get("uio", key) is None
        cache.put("uio", key, {"value": (1, 2, 3)})
        assert cache.get("uio", key) == {"value": (1, 2, 3)}
        assert (cache.hits, cache.misses) == (1, 1)

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = stable_hash("x")
        cache.put("uio", key, [1, 2])
        path = cache._path("uio", key)
        path.write_bytes(b"not a pickle")
        assert cache.get("uio", key) is None
        assert not path.exists()

    def test_info_and_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("uio", stable_hash(1), "a")
        cache.put("synthesis", stable_hash(2), "b")
        info = cache.info()
        assert info["entries"] == 2
        assert info["kinds"]["uio"]["entries"] == 1
        assert cache.clear() == 2
        assert cache.info()["entries"] == 0

    def test_active_cache_context(self, tmp_path):
        assert active_cache() is None
        with cache_enabled(tmp_path) as cache:
            assert active_cache() is cache
        assert active_cache() is None


class TestCachedPipeline:
    def test_cold_miss_then_warm_hit(self, tmp_path):
        options = StudyOptions()
        with cache_enabled(tmp_path) as cache:
            study = CircuitStudy("lion", options)
            uio_cold = study.uio_table
            scan_cold = study.scan_circuit
            detect_cold = study.stuck_at_detectability
            misses = cache.misses
            assert misses > 0 and cache.hits == 0

            warm = CircuitStudy("lion", options)
            assert warm.uio_table.sequences == uio_cold.sequences
            assert warm.uio_table.machine_name == "lion"
            assert warm.scan_circuit.netlist.n_gates == scan_cold.netlist.n_gates
            assert warm.stuck_at_detectability == detect_cold
            assert cache.hits > 0 and cache.misses == misses

    def test_option_change_invalidates(self, tmp_path):
        with cache_enabled(tmp_path) as cache:
            CircuitStudy("lion", StudyOptions()).scan_circuit
            misses = cache.misses
            CircuitStudy("lion", StudyOptions(max_fanin=3)).scan_circuit
            assert cache.misses > misses  # different options, different key

    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        with cache_enabled(tmp_path) as cache:
            CircuitStudy("lion", StudyOptions()).uio_table
            monkeypatch.setitem(
                ARTIFACT_VERSIONS, "uio", ARTIFACT_VERSIONS["uio"] + 1
            )
            hits = cache.hits
            CircuitStudy("lion", StudyOptions()).uio_table
            assert cache.hits == hits  # old entry ignored under the new version


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
        assert set(study.stuck_at_proven) <= set(study.stuck_at_faults)


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

    def test_warm_run_reads_the_split_and_derives_nothing(
        self, tmp_path, monkeypatch
    ):
        names = ("lion", "bbtas")
        options = StudyOptions()
        with cache_enabled(tmp_path):
            cold = compute_studies(names, options, jobs=1)

            def derive(*args, **kwargs):
                raise AssertionError("a warm run derived detectability")

            monkeypatch.setattr(engine_module, "derive_detectability", derive)
            timings = StageTimings()
            warm = compute_studies(names, options, jobs=1, timings=timings)
        records = [r for r in timings.records if r.stage == "detectability"]
        assert len(records) == 2 * len(names)  # one per fault model
        assert all(r.cache == "hit" and r.seconds == 0.0 for r in records)
        assert _signatures(warm) == _signatures(cold)
        for name in names:
            assert warm[name].stuck_at_detectability == cold[name].stuck_at_detectability
            assert warm[name].bridging_detectability == cold[name].bridging_detectability

    def test_key_covers_the_state_assignment(self, tmp_path):
        scan = CircuitStudy("lion", StudyOptions()).scan_circuit
        faults = CircuitStudy("lion", StudyOptions()).stuck_at_faults
        encoding = scan.encoding
        recoded = ScanCircuit(
            dataclasses.replace(
                scan.circuit,
                encoding=StateEncoding(encoding.width, encoding.codes[::-1]),
            ),
            scan.name,
        )
        with cache_enabled(tmp_path):
            key = detectability_key(scan, faults)
            assert key and detectability_key(recoded, faults) != key
        assert detectability_key(scan, faults) == ""  # no cache, no key


# ------------------------------------------------------------------ bench


class TestBench:
    def test_bench_report_schema(self, tmp_path):
        from repro.perf.bench import BENCH_SCHEMA, run_bench

        report = run_bench(
            ("lion",), jobs=2, cache_root=tmp_path / "cache"
        )
        assert report["schema"] == BENCH_SCHEMA
        assert report["circuits"] == ["lion"]
        assert report["identical"] is True
        assert report["divergence"] == []
        assert set(report["runs"]) == {
            "serial_cold", "parallel_cold", "parallel_warm",
        }
        for record in report["runs"].values():
            assert record["wall_s"] > 0.0
            assert set(record) >= {
                "jobs", "wall_s", "stage_seconds", "per_circuit", "cache",
            }
        warm = report["runs"]["parallel_warm"]
        # The warm run must skip UIO/synthesis/detectability entirely.
        assert warm["cache"]["hits"] > 0
        assert warm["cache"]["misses"] == 0
        assert warm["stage_seconds"]["uio"] == 0.0
        assert warm["stage_seconds"]["synthesis"] == 0.0
        assert warm["stage_seconds"]["detectability"] == 0.0
        # /4 additions: engine pinned in options, per-stage speedups.
        assert report["options"]["engine"] == "auto"
        assert set(report["stage_speedups"]) == {
            "parallel_cold", "parallel_warm",
        }
        serial_stages = report["runs"]["serial_cold"]["stage_seconds"]
        for ratios in report["stage_speedups"].values():
            assert set(ratios) == set(serial_stages)
            assert all(value >= 0.0 for value in ratios.values())
        json.dumps(report)  # must be JSON-serializable as-is

    def test_bench_engine_override_recorded(self, tmp_path):
        from repro.perf.bench import run_bench

        report = run_bench(
            ("lion",), jobs=2, cache_root=tmp_path / "cache",
            engine="ppsfp",
        )
        assert report["options"]["engine"] == "ppsfp"
        assert report["identical"] is True


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


# ------------------------------------------------- engine-aware chunking


class TestFaultChunks:
    def test_empty_universe(self):
        assert _fault_chunks([], FaultSimConfig(), 4, 100) == []

    def test_ppsfp_gets_one_whole_universe_chunk(self):
        faults = list(range(300))
        chunks = _fault_chunks(faults, FaultSimConfig(engine="ppsfp"), 6, 100)
        assert chunks == [faults]

    def test_bigint_gets_adaptive_slices(self):
        faults = list(range(5000))
        config = FaultSimConfig(engine="bigint")
        size = adaptive_batch_bits(len(faults))
        chunks = _fault_chunks(faults, config, 6, 100)
        assert [len(chunk) for chunk in chunks[:-1]] == [size] * (
            len(chunks) - 1
        )
        assert [fault for chunk in chunks for fault in chunk] == faults
        assert len(chunks) > 1

    def test_auto_dispatch_controls_chunking(self):
        faults = list(range(5000))
        config = FaultSimConfig()  # auto
        # Small pattern space: PPSFP fits, one chunk.
        assert len(_fault_chunks(faults, config, 6, 10_000)) == 1
        # Huge pattern space: table would blow the cell budget -> big-int.
        assert len(_fault_chunks(faults, config, 30, 10_000)) > 1

    def test_boundaries_are_jobs_invariant(self):
        # _fault_chunks has no jobs parameter at all: the same universe
        # always chunks identically, whatever the pool size.
        import inspect

        parameters = inspect.signature(_fault_chunks).parameters
        assert "jobs" not in parameters


# ------------------------------------------------------------ memoization


class TestMemoization:
    def test_input_class_representatives_cached(self):
        table = load_circuit("lion")
        first = input_class_representatives(table)
        second = input_class_representatives(table)
        assert first is second  # served from the per-table cache
        # An equal table built independently shares the entry (hash/eq key).
        clone = StateTable(
            np.asarray(table.next_state),
            np.asarray(table.output),
            table.n_inputs,
            table.n_outputs,
            table.state_names,
            table.name,
        )
        assert input_class_representatives(clone) is first

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
            CircuitStudy("lion", StudyOptions()).uio_table
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert "uio" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed" in capsys.readouterr().out
        assert ArtifactCache(tmp_path).info()["entries"] == 0

    def test_table_with_jobs_and_cache(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "table4", "--circuits", "lion", "--jobs", "2",
            "--cache-dir", str(tmp_path),
        ])
        assert code == 0
        assert "lion" in capsys.readouterr().out
        assert ArtifactCache(tmp_path).info()["entries"] > 0
