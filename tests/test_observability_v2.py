"""Observability v2: resource telemetry, search forensics, pool
utilization, and live progress.

Four layers, each pinned here:

* **Resource telemetry** — per-span CPU/peak-memory attribution, the
  cross-process :class:`ResourceUsage` merge, ledger schema /2's required
  ``resources`` block, and the ``regress`` memory gate (including an
  injected regression that must fail).
* **Search forensics** — the bounded :class:`SearchTrace` ring buffer,
  verdict keep-policy (every aborted target plus the hardest N), and the
  ``explain --fault`` replay.
* **Pool utilization** — ``pool.worker.<i>.*`` gauges, the task-latency
  histogram, and the dead-worker pin: a worker killed mid-run must not
  cost results *or* observability (the inline re-run records both in the
  parent).
* **Progress** — throttled heartbeats and the ledger-history cost model.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import obs
from repro.atpg import generate_structural_tests
from repro.atpg.search import (
    DEFAULT_TRACE_CAPACITY,
    SearchBudget,
    SearchEvent,
    SearchTrace,
)
from repro.cli import main
from repro.core.config import FaultSimConfig
from repro.harness.experiments import CircuitStudy, StudyOptions
from repro.obs import absorb_snapshot, resources
from repro.obs.ledger import build_record, normalized, validate_record
from repro.obs.log import WARNING, set_verbosity
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.progress import (
    CostModel,
    ProgressMeter,
    enable_progress,
    meter,
    progress_enabled,
    set_command_context,
)
from repro.obs.provenance import set_provenance
from repro.obs.regress import compare_reports
from repro.obs.report import aggregate_spans, pool_utilization, render_pool
from repro.obs.resources import (
    ResourceUsage,
    UsageProbe,
    process_usage,
)
from repro.obs.trace import (
    events_from_jsonl,
    set_tracer,
    span,
    to_chrome,
    to_jsonl,
    validate_chrome_trace,
)
from repro.perf import pool as pool_module
from repro.perf.engine import compute_studies
from repro.perf.pool import WorkerPool, get_pool, shutdown_pool


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """No test leaks a tracer, registry, provenance log, or progress flag."""
    previous_tracer = set_tracer(None)
    previous_registry = set_registry(None)
    previous_provenance = set_provenance(None)
    previous_verbosity = set_verbosity(WARNING)
    yield
    set_tracer(previous_tracer)
    set_registry(previous_registry)
    set_provenance(previous_provenance)
    set_verbosity(previous_verbosity)
    enable_progress(False)
    set_command_context(None)


# ------------------------------------------------------- resource telemetry


class TestResourceUsage:
    def test_merge_sums_cpu_maxes_rss(self):
        left = ResourceUsage(cpu_user_s=1.0, cpu_system_s=0.5, max_rss_kb=100)
        right = ResourceUsage(cpu_user_s=2.0, cpu_system_s=0.25, max_rss_kb=300)
        merged = left.merged(right)
        assert merged.cpu_user_s == pytest.approx(3.0)
        assert merged.cpu_system_s == pytest.approx(0.75)
        assert merged.max_rss_kb == 300

    def test_dict_roundtrip(self):
        usage = ResourceUsage(cpu_user_s=1.5, cpu_system_s=0.5, max_rss_kb=42)
        assert ResourceUsage.from_dict(usage.to_dict()) == usage

    def test_process_usage_is_live(self):
        usage = process_usage()
        assert usage.cpu_user_s + usage.cpu_system_s > 0
        assert usage.max_rss_kb > 0

    def test_probe_windows_cpu(self):
        probe = UsageProbe()
        sum(i * i for i in range(200_000))
        sample = probe.sample()
        assert sample.cpu_user_s + sample.cpu_system_s >= 0.0
        assert sample.max_rss_kb > 0
        # The window is a delta: it must be far below process lifetime CPU.
        lifetime = process_usage()
        assert sample.cpu_user_s <= lifetime.cpu_user_s + 1e-9


class TestSpanResources:
    def test_span_cpu_attribution(self):
        with obs.observing() as session:
            with span("busy"):
                sum(i * i for i in range(300_000))
        (event,) = [e for e in session.tracer.events if e.name == "busy"]
        assert event.cpu_ns > 0
        assert event.cpu_ns <= event.duration_ns * 8  # sanity, not exactness

    def test_deep_memory_peaks_nest(self):
        with obs.observing(deep_memory=True) as session:
            with span("outer"):
                blob = [0] * 50_000
                with span("inner"):
                    inner_blob = [1] * 200_000
                del inner_blob
            del blob
        by_name = {e.name: e for e in session.tracer.events}
        assert by_name["inner"].mem_peak_bytes > 200_000 * 8 // 2
        # A parent's peak folds in its children's peaks.
        assert by_name["outer"].mem_peak_bytes >= by_name["inner"].mem_peak_bytes

    def test_memory_off_by_default(self):
        with obs.observing() as session:
            with span("plain"):
                _ = [0] * 100_000
        (event,) = session.tracer.events
        assert event.mem_peak_bytes == 0

    def test_jsonl_roundtrip_preserves_resources(self):
        with obs.observing(deep_memory=True) as session:
            with span("work"):
                _ = [0] * 100_000
        text = to_jsonl(session.tracer.events)
        (restored,) = events_from_jsonl(text)
        (original,) = session.tracer.events
        assert restored.cpu_ns // 1000 == original.cpu_ns // 1000
        assert restored.mem_peak_bytes == original.mem_peak_bytes

    def test_chrome_trace_requires_resource_args(self):
        with obs.observing() as session:
            with span("work"):
                pass
        chrome = to_chrome(session.tracer.events)
        assert validate_chrome_trace(chrome) == []
        (complete,) = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        del complete["args"]["cpu_us"]
        problems = validate_chrome_trace(chrome)
        assert any("cpu_us" in p for p in problems)

    def test_chrome_trace_memory_counter_track(self):
        with obs.observing(deep_memory=True) as session:
            with span("hungry"):
                _ = [0] * 100_000
        chrome = to_chrome(session.tracer.events)
        assert validate_chrome_trace(chrome) == []
        (counter,) = [e for e in chrome["traceEvents"] if e["ph"] == "C"]
        assert counter["name"] == "mem_peak"
        assert counter["args"]["bytes"] > 0
        # Without deep memory no peak is measured, so no counter track.
        with obs.observing() as session:
            with span("plain"):
                pass
        chrome = to_chrome(session.tracer.events)
        assert [e for e in chrome["traceEvents"] if e["ph"] == "C"] == []

    def test_counter_event_validation(self):
        bad = {"traceEvents": [
            {"name": "mem_peak", "ph": "C", "pid": 0, "tid": 0,
             "ts": 1.0, "args": {"bytes": "not-a-number"}},
        ]}
        assert any(
            "numeric" in p for p in validate_chrome_trace(bad)
        )

    def test_aggregate_spans_carries_resources(self):
        with obs.observing(deep_memory=True) as session:
            with span("outer"):
                with span("inner"):
                    sum(i for i in range(200_000))
        stats = {s.name: s for s in aggregate_spans(session.tracer.events)}
        assert stats["outer"].cpu_s >= stats["inner"].cpu_s
        assert stats["outer"].self_cpu_s <= stats["outer"].cpu_s + 1e-9
        assert stats["inner"].mem_peak_bytes >= 0


def _burn_cpu_task(snapshot, index):
    """Spin until this process has spent ``snapshot["cpu_s"]`` more CPU."""
    deadline = time.process_time() + snapshot["cpu_s"]
    while time.process_time() < deadline:
        pass
    return index


def _keep_child_totals(monkeypatch):
    """Restore the process-wide absorbed-usage totals after the test."""
    for name in ("_CHILD_CPU_USER", "_CHILD_CPU_SYSTEM", "_CHILD_MAX_RSS_KB"):
        monkeypatch.setattr(resources, name, getattr(resources, name))


class TestWorkerResourceMerge:
    def test_pool_usage_sums_cpu_and_maxes_rss(self, monkeypatch):
        """Worker usage the pool relays lands in probe windows: CPU sums
        over tasks, RSS takes the maximum."""
        _keep_child_totals(monkeypatch)
        usage = ResourceUsage(cpu_user_s=1.25, cpu_system_s=0.5, max_rss_kb=10**9)
        # Patched before the fork, so the workers report this per task.
        monkeypatch.setattr(pool_module, "drain_worker_usage", lambda: usage)
        pool = WorkerPool(2)
        try:
            pool.prime({})
            probe = UsageProbe()
            pool.run(_obs_pool_task, 2)
            sample = probe.sample()
        finally:
            pool.shutdown()
        assert sample.cpu_user_s >= 2.5
        assert sample.cpu_system_s >= 1.0
        assert sample.max_rss_kb == 10**9

    def test_worker_cpu_counted_with_observability_off(self, monkeypatch):
        _keep_child_totals(monkeypatch)
        assert not obs.is_active()
        pool = WorkerPool(2)
        try:
            pool.prime({"cpu_s": 0.3})
            probe = UsageProbe()
            pool.run(_burn_cpu_task, 2)
            sample = probe.sample()
        finally:
            pool.shutdown()
        assert sample.cpu_user_s + sample.cpu_system_s >= 0.5


class TestLedgerResources:
    def test_build_record_emits_resources(self):
        record = build_record("table5", semantic_args={})
        resources = record["resources"]
        assert set(resources) == {"cpu_user_s", "cpu_system_s", "max_rss_kb"}
        assert resources["max_rss_kb"] > 0
        assert validate_record(record) == []

    def test_validate_rejects_missing_resources(self):
        record = build_record("table5", semantic_args={})
        del record["resources"]
        assert any("resources" in p for p in validate_record(record))

    def test_validate_rejects_negative_cpu(self):
        record = build_record("table5", semantic_args={})
        record["resources"]["cpu_user_s"] = -1.0
        assert any("cpu_user_s" in p for p in validate_record(record))

    def test_resources_are_volatile(self):
        record = build_record("table5", semantic_args={})
        assert "resources" not in normalized(record)

    def test_pool_metrics_never_ledgered(self):
        record = build_record(
            "table5",
            semantic_args={},
            metrics={
                "pool.worker.0.busy_s": {"type": "gauge", "value": 1.0,
                                         "updates": 1},
                "atpg.targets": {"type": "counter", "value": 5},
            },
        )
        assert "atpg.targets" in record["metrics"]
        assert not any(k.startswith("pool.") for k in record["metrics"])


class TestRegressMemoryGate:
    BASE = {
        "schema": "repro-fsatpg-bench/5",
        "runs": {
            "serial_cold": {
                "stage_seconds": {},
                "resources": {"cpu_user_s": 1.0, "cpu_system_s": 0.1,
                              "max_rss_kb": 1000},
            }
        },
        "results": {},
    }

    def test_injected_memory_regression_fails(self):
        current = {
            "stage_seconds": {},
            "results": {},
            "resources": {"cpu_user_s": 1.0, "cpu_system_s": 0.1,
                          "max_rss_kb": 90_000},
        }
        report = compare_reports(self.BASE, current, min_rss_kb=0.0)
        (regression,) = report.regressions
        assert regression.kind == "memory"
        assert not report.ok

    def test_floor_absorbs_interpreter_noise(self):
        current = {
            "stage_seconds": {},
            "results": {},
            "resources": {"cpu_user_s": 1.0, "cpu_system_s": 0.1,
                          "max_rss_kb": 45_000},
        }
        report = compare_reports(self.BASE, current, min_rss_kb=51200.0)
        assert report.ok

    def test_pre_v5_baseline_skips_gate(self):
        baseline = {"schema": "repro-fsatpg-bench/4",
                    "runs": {"serial_cold": {"stage_seconds": {}}},
                    "results": {}}
        current = {"stage_seconds": {}, "results": {},
                   "resources": {"cpu_user_s": 0.0, "cpu_system_s": 0.0,
                                 "max_rss_kb": 10**9}}
        report = compare_reports(baseline, current, min_rss_kb=0.0)
        assert report.ok
        assert any("memory gate skipped" in note for note in report.notes)


# -------------------------------------------------------- search forensics


class TestSearchTrace:
    def test_ring_buffer_keeps_newest(self):
        trace = SearchTrace(3)
        for index in range(5):
            trace.record("decision", f"g{index}", 1, index)
        assert trace.total == 5
        assert trace.dropped == 2
        assert [e.line for e in trace.events()] == ["g2", "g3", "g4"]

    def test_event_roundtrip(self):
        event = SearchEvent("backtrack", "g7", 0, 3, d_frontier=2,
                            j_frontier=1)
        assert SearchEvent.from_dict(event.to_dict()) == event

    def test_budget_carries_trace(self):
        trace = SearchTrace(DEFAULT_TRACE_CAPACITY)
        budget = SearchBudget(backtrack_limit=10, trace=trace)
        assert budget.trace is trace


def _lion_scan():
    study = CircuitStudy("lion", StudyOptions())
    return study.scan_circuit, study.table, study.sca


class TestEngineForensics:
    def test_aborted_verdicts_keep_traces(self):
        scan, table, _sca = _lion_scan()
        run = generate_structural_tests(
            scan, table, backtrack_limit=1, replay=False
        )
        aborted = [v for v in run.verdicts if v.status == "aborted"]
        assert aborted, "backtrack_limit=1 must abort something on lion"
        for verdict in aborted:
            assert verdict.search_trace, verdict.fault.site()
            assert verdict.trace_total >= len(verdict.search_trace)
            kinds = {event.kind for event in verdict.search_trace}
            assert kinds <= {"decision", "backtrack"}

    def test_hardest_targets_keep_traces(self):
        scan, table, _sca = _lion_scan()
        run = generate_structural_tests(scan, table, trace_hardest=3,
                                        replay=False)
        traced = [v for v in run.verdicts if v.search_trace is not None]
        assert len(traced) >= 1
        hardest = max(run.verdicts, key=lambda v: (v.backtracks, v.decisions))
        assert hardest.search_trace is not None

    def test_trace_capacity_zero_disables(self):
        scan, table, _sca = _lion_scan()
        run = generate_structural_tests(scan, table, trace_capacity=0,
                                        replay=False)
        assert all(v.search_trace is None for v in run.verdicts)

    def test_traced_verdict_serializes(self):
        scan, table, _sca = _lion_scan()
        run = generate_structural_tests(scan, table, replay=False)
        traced = [v for v in run.verdicts if v.search_trace is not None]
        payload = traced[0].to_dict()
        block = payload["search_trace"]
        assert block["total"] >= len(block["events"])
        assert {"kind", "line", "value", "depth"} <= set(block["events"][0])
        json.dumps(payload)  # JSON-ready

    @pytest.mark.parametrize("algorithm", ("podem", "d"))
    def test_both_algorithms_emit_events(self, algorithm):
        scan, table, _sca = _lion_scan()
        run = generate_structural_tests(
            scan, table, algorithm=algorithm, trace_hardest=5, replay=False
        )
        traced = [v for v in run.verdicts if v.search_trace]
        assert traced
        event = traced[0].search_trace[0]
        assert event.depth >= 1
        if algorithm == "d":
            assert any(
                e.j_frontier >= 0 for v in traced for e in v.search_trace
            )


class TestExplainFaultCli:
    def test_human_replay(self, capsys):
        scan, table, _sca = _lion_scan()
        run = generate_structural_tests(scan, table, replay=False)
        target = max(
            run.verdicts, key=lambda v: (v.backtracks, v.decisions)
        ).fault.site()
        assert main(["--no-ledger", "explain", "lion", "--fault", target]) == 0
        out = capsys.readouterr().out
        assert target in out
        assert "search event(s)" in out
        assert "decision" in out

    def test_json_replay(self, capsys):
        assert main(["--no-ledger", "explain", "lion",
                     "--fault", "g7.pin1/sa1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["circuit"] == "lion"
        assert payload["search_trace"]["events"]

    def test_unknown_fault_errors(self, capsys):
        assert main(["--no-ledger", "explain", "lion",
                     "--fault", "nope/sa9"]) == 2
        assert "no collapsed fault" in capsys.readouterr().err


# ------------------------------------------------------- pool utilization


def _obs_pool_task(snapshot, index):
    """Module-level so fork workers can unpickle it by reference."""
    from repro.obs import worker_snapshot
    from repro.obs.metrics import counter_add

    with span("v2.task", index=index):
        counter_add("v2.tasks_run")
    return index * index, worker_snapshot()


def _die_on_zero_task(snapshot, index):
    """Kill the worker process handling index 0; parent runs it inline."""
    if index == 0 and os.getpid() != snapshot["parent_pid"]:
        os._exit(1)
    return _obs_pool_task(snapshot, index)


class TestPoolTelemetry:
    def test_gauges_and_histogram_published(self):
        with obs.observing() as session:
            pool = WorkerPool(2)
            try:
                pool.prime({}, obs_on=True)
                results = pool.run(_obs_pool_task, 6)
            finally:
                pool.shutdown()
            snapshot = session.registry.snapshot()
        assert [value for value, _ in results] == [i * i for i in range(6)]
        rows = pool_utilization(snapshot)
        assert [int(row["worker"]) for row in rows] == [0, 1]
        assert sum(int(row["tasks"]) for row in rows) == 6
        assert all(row["busy_s"] >= 0.0 for row in rows)
        assert snapshot["pool.tasks.dispatched"]["value"] == 6
        assert snapshot["pool.task_s"]["count"] == 6
        table = render_pool(snapshot)
        assert "worker" in table and "util %" in table

    def test_utilization_snapshot_accumulates(self):
        pool = WorkerPool(2)
        try:
            pool.prime({})
            pool.run(_obs_pool_task, 3)
            first = pool.utilization()
            pool.run(_obs_pool_task, 3)
            second = pool.utilization()
        finally:
            pool.shutdown()
        total_first = sum(w["tasks"] for w in first["workers"])
        total_second = sum(w["tasks"] for w in second["workers"])
        assert total_first == 3 and total_second == 6

    def test_dead_worker_keeps_results_and_observability(self):
        """Satellite pin: a worker killed mid-run must not silently drop
        its task's result *or* its observability.  The inline re-run
        records spans/metrics straight into the parent's collectors."""
        with obs.observing() as session:
            pool = WorkerPool(2)
            try:
                pool.prime({"parent_pid": os.getpid()}, obs_on=True)
                results = pool.run(_die_on_zero_task, 5)
            finally:
                pool.shutdown()
            for _value, snapshot in results:
                absorb_snapshot(snapshot)
            merged_metrics = session.registry.snapshot()
            spans = [e for e in session.tracer.events if e.name == "v2.task"]
        assert [value for value, _ in results] == [i * i for i in range(5)]
        # Every one of the 5 tasks ran its span + counter exactly once —
        # worker-side ones arrived via snapshots, the re-run inline.
        assert merged_metrics["v2.tasks_run"]["value"] == 5
        assert sorted(e.attrs["index"] for e in spans) == [0, 1, 2, 3, 4]
        assert merged_metrics["pool.workers.dead"]["value"] >= 1
        assert merged_metrics["pool.tasks.inline"]["value"] >= 1


# ------------------------------------------------------------- progress


class TestProgressMeter:
    def test_throttles_and_finishes(self):
        clock = [0.0]
        lines: list[str] = []
        m = ProgressMeter("atpg lion", 10, interval_s=1.0,
                          clock=lambda: clock[0], emit=lines.append)
        m.update()          # first update may emit
        clock[0] = 0.2
        m.update()          # throttled
        clock[0] = 1.5
        m.update()          # emits 3/10
        m.finish()
        assert len(lines) == 3
        assert "1/10" in lines[0]
        assert "3/10" in lines[1]
        assert "done 10/10" in lines[-1]

    def test_eta_prefers_measured_rate(self):
        clock = [0.0]
        m = ProgressMeter("x", 10, expected_s=100.0,
                          clock=lambda: clock[0], emit=lambda line: None)
        assert m.eta_s() == pytest.approx(100.0)  # seeded before first item
        clock[0] = 2.0
        m.done = 4
        assert m.eta_s() == pytest.approx(3.0)  # 6 left at 2/s

    def test_meter_gated_by_enable(self):
        assert meter("x", 5) is None
        enable_progress(True)
        assert progress_enabled()
        m = meter("x", 5)
        assert isinstance(m, ProgressMeter)
        assert meter("x", 0) is None
        enable_progress(False)
        assert meter("x", 5) is None


class TestCostModel:
    RECORDS = [
        {"command": "atpg", "exit_code": 0, "wall_s": 16.0,
         "circuits": ["lion"]},
        {"command": "atpg", "exit_code": 0, "wall_s": 32.0,
         "circuits": ["lion"]},
        {"command": "atpg", "exit_code": 1, "wall_s": 1000.0,
         "circuits": ["lion"]},  # failed: ignored
        {"command": "table5", "exit_code": 0, "wall_s": 5.0,
         "circuits": ["lion"]},
    ]

    def test_median_rate_and_prediction(self):
        model = CostModel(self.RECORDS)
        # lion: 4 states x 2^2 inputs = 16 transitions, so the two good
        # atpg records rate at 1.0 and 2.0 s/unit; median 1.5.
        assert model.rate("atpg") == pytest.approx(1.5)
        assert model.predict_wall_s("atpg", ["lion"]) == pytest.approx(24.0)

    def test_no_history_predicts_none(self):
        model = CostModel(self.RECORDS)
        assert model.rate("bench") is None
        assert model.predict_wall_s("bench", ["lion"]) is None

    def test_unknown_circuits_contribute_nothing(self):
        model = CostModel(self.RECORDS)
        assert model.predict_wall_s("atpg", ["not-a-circuit"]) is None


# ------------------------------------- cross-process merge (ppsfp, jobs=2)


class TestCrossProcessMerge:
    def test_ppsfp_jobs2_merges_metrics_and_spans(self):
        if get_pool(2) is None:
            pytest.skip("worker processes unavailable")
        options = StudyOptions(faultsim=FaultSimConfig(engine="ppsfp"))
        try:
            with obs.observing() as session:
                parallel = compute_studies(("lion", "mc"), options, jobs=2)
            serial = compute_studies(("lion", "mc"), options, jobs=1)
        finally:
            shutdown_pool()
        # Bit-identical results regardless of scheduling.
        for name in ("lion", "mc"):
            assert parallel[name].signature() == serial[name].signature()
        metrics = session.registry.snapshot()
        # Worker-side fault-sim counters merged into the parent registry.
        assert metrics["faultsim.ppsfp.calls"]["value"] > 0
        assert metrics["faultsim.batches"]["value"] >= 2
        # Worker spans re-parented under the dispatching phase span.
        events = session.tracer.events
        by_id = {e.span_id: e for e in events}
        chunk_spans = [e for e in events if e.name == "sweep.chunk"]
        assert chunk_spans
        for chunk in chunk_spans:
            assert by_id[chunk.parent_id].name == "sweep.simulate"
        # And the run carries merged worker CPU in its span resources.
        prepare = [e for e in events if e.name == "circuit.prepare"]
        assert prepare and all(e.cpu_ns >= 0 for e in prepare)


# ------------------------------------------------------------ CLI surface


class TestCliSurface:
    def test_history_format_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path))
        assert main(["table5", "--circuits", "lion"]) == 0
        capsys.readouterr()
        assert main(["history", "table5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "table5"
        assert payload["total"] == 1
        (record,) = payload["records"]
        assert record["resources"]["max_rss_kb"] > 0

    def test_stats_json_carries_resources_and_pool(self, capsys):
        assert main(["--no-ledger", "stats", "lion",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all("cpu_s" in row and "mem_peak_bytes" in row
                   for row in payload["spans"])
        assert any(row["mem_peak_bytes"] > 0 for row in payload["spans"])
        assert "pool" in payload

    def test_progress_flag_emits_heartbeats(self, capsys):
        assert main(["--no-ledger", "--progress", "table4",
                     "--circuits", "lion"]) == 0
        err = capsys.readouterr().err
        assert "progress" in err and "done" in err

    def test_ledger_record_resources_from_probe(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path))
        assert main(["table4", "--circuits", "lion"]) == 0
        lines = [
            json.loads(line)
            for line in (tmp_path / "ledger.jsonl").read_text().splitlines()
        ]
        (record,) = lines
        assert validate_record(record) == []
        assert record["resources"]["max_rss_kb"] > 0
