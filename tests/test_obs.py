"""Tests for repro.obs: span tracing, metrics, logging, reports, and CLI."""

from __future__ import annotations

import io
import json

import pytest

from repro import obs
from repro.cli import main
from repro.harness.experiments import StudyOptions
from repro.harness.runtime import StageTimings
from repro.obs.log import (
    DEBUG,
    ERROR,
    INFO,
    WARNING,
    ObsLogger,
    get_logger,
    set_verbosity,
    verbosity_from_flags,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    counter_add,
    gauge_set,
    histogram_observe,
    set_registry,
)
from repro.obs.provenance import set_provenance
from repro.obs.report import aggregate_spans, render_stats
from repro.obs.trace import (
    SpanRecord,
    Tracer,
    complete_event,
    events_from_jsonl,
    render_span_tree,
    set_tracer,
    span,
    span_tree,
    to_chrome,
    to_jsonl,
    traced,
    validate_chrome_trace,
)
from repro.perf.engine import compute_studies


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """No test leaks a tracer, registry, provenance log, or verbosity change."""
    previous_tracer = set_tracer(None)
    previous_registry = set_registry(None)
    previous_provenance = set_provenance(None)
    previous_verbosity = set_verbosity(WARNING)
    yield
    set_tracer(previous_tracer)
    set_registry(previous_registry)
    set_provenance(previous_provenance)
    set_verbosity(previous_verbosity)


# ------------------------------------------------------------------- spans


class TestSpan:
    def test_measures_without_tracer(self):
        with span("work") as sp:
            total = sum(range(100))
        assert total == 4950
        assert sp.elapsed_s >= 0.0

    def test_complete_event_noop_without_tracer(self):
        complete_event("phase", 0.5)  # must not raise

    def test_nesting_and_parentage(self):
        tracer = Tracer()
        set_tracer(tracer)
        with span("outer", circuit="lion"):
            with span("inner") as sp:
                sp.set(found=3)
        inner, outer = tracer.events  # completion order
        assert (inner.name, outer.name) == ("inner", "outer")
        assert outer.span_id == 1 and outer.parent_id is None
        assert inner.span_id == 2 and inner.parent_id == 1
        assert outer.attrs == {"circuit": "lion"}
        assert inner.attrs == {"found": 3}
        assert inner.duration_ns <= outer.duration_ns

    def test_traced_decorator(self):
        tracer = Tracer()
        set_tracer(tracer)

        @traced(circuit="lion")
        def compute():
            return 7

        assert compute() == 7
        (event,) = tracer.events
        assert event.name == "compute"
        assert event.attrs == {"circuit": "lion"}

    def test_complete_event_is_child_of_current_span(self):
        tracer = Tracer()
        set_tracer(tracer)
        with span("parent"):
            complete_event("aggregate", 0.25, steps=4)
        aggregate = next(e for e in tracer.events if e.name == "aggregate")
        assert aggregate.parent_id == 1
        assert aggregate.duration_ns == int(0.25e9)
        assert aggregate.attrs == {"steps": 4}

    def test_add_complete_explicit_start(self):
        tracer = Tracer()
        record = tracer.add_complete("fixed", 0.001, start_ns=12345)
        assert record.start_ns == 12345
        assert record.duration_ns == 1_000_000

    def test_snapshot_reset_drains(self):
        tracer = Tracer()
        set_tracer(tracer)
        with span("a"):
            pass
        drained = tracer.snapshot(reset=True)
        assert [e.name for e in drained] == ["a"]
        assert tracer.events == []


class TestAbsorb:
    def test_reids_and_reparents_under_current_span(self):
        parent = Tracer()
        set_tracer(parent)
        worker_events = [
            SpanRecord(2, 1, "w.child", 1100, 50, 999),
            SpanRecord(1, None, "w.root", 1000, 200, 999),
        ]
        with span("sched"):
            parent.absorb(worker_events)
        assert span_tree(parent.events) == [
            {
                "name": "sched",
                "children": [
                    {
                        "name": "w.root",
                        "children": [{"name": "w.child", "children": []}],
                    }
                ],
            }
        ]
        ids = {e.name: e.span_id for e in parent.events}
        assert len(set(ids.values())) == 3  # no collisions after re-iding

    def test_absorb_snapshot_none_is_noop(self):
        session = obs.enable()
        obs.absorb_snapshot(None)
        assert session.tracer.events == []
        obs.disable()

    def test_worker_snapshot_none_outside_worker(self):
        assert not obs.in_worker()
        assert obs.worker_snapshot() is None

    def test_worker_snapshot_roundtrip(self, monkeypatch):
        monkeypatch.setattr(obs, "_IN_WORKER", True)
        worker_session = obs.enable()
        with span("task"):
            counter_add("work.items", 3)
        snapshot = obs.worker_snapshot()
        assert snapshot is not None and bool(snapshot)
        # drained: the worker's collectors are empty again
        assert worker_session.tracer.events == []
        monkeypatch.setattr(obs, "_IN_WORKER", False)
        with obs.observing() as session:
            with span("dispatch"):
                obs.absorb_snapshot(snapshot)
        assert span_tree(session.tracer.events) == [
            {"name": "dispatch", "children": [{"name": "task", "children": []}]}
        ]
        assert session.registry.counter("work.items").value == 3

    def test_obs_snapshot_bool(self):
        assert not obs.ObsSnapshot()
        assert obs.ObsSnapshot(spans=[SpanRecord(1, None, "a", 0, 1, 0)])
        assert obs.ObsSnapshot(metrics={"c": {"type": "counter", "value": 1}})


# ------------------------------------------------------------------ exports


def _sample_events() -> list[SpanRecord]:
    return [
        SpanRecord(2, 1, "child", 1500, 400, 100, {"k": 1}),
        SpanRecord(1, None, "root", 1000, 2000, 100),
        SpanRecord(3, 1, "remote", 9000, 100, 200),
    ]


class TestExport:
    def test_chrome_shape_and_validation(self):
        trace = to_chrome(_sample_events())
        assert trace["displayTimeUnit"] == "ms"
        assert validate_chrome_trace(trace) == []
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = sorted(e["args"]["name"] for e in meta)
        assert names == ["main", "worker-1"]  # pids normalized to ordinals
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert min(e["ts"] for e in complete) == 0.0  # rebased to earliest

    def test_validate_rejects_bad_traces(self):
        assert validate_chrome_trace(42) == ["trace must be a JSON object or array"]
        assert validate_chrome_trace({}) == [
            "top-level object lacks a 'traceEvents' array"
        ]
        problems = validate_chrome_trace(
            [
                "not an object",
                {"ph": "X", "pid": 0, "tid": 0, "ts": "soon", "dur": -1},
                {"name": "x", "ph": "ZZ", "pid": 0, "tid": 0},
            ]
        )
        text = "\n".join(problems)
        assert "event[0]: not an object" in text
        assert "missing required field 'name'" in text
        assert "'ts' must be a number" in text
        assert "negative duration" in text
        assert "invalid phase 'ZZ'" in text

    def test_jsonl_roundtrip(self):
        events = _sample_events()
        back = events_from_jsonl(to_jsonl(events))
        assert [(e.span_id, e.parent_id, e.name) for e in back] == [
            (e.span_id, e.parent_id, e.name) for e in events
        ]
        assert back[0].attrs == {"k": 1}
        assert back[1].duration_ns == 2000  # µs-truncated, multiple of 1000
        assert events_from_jsonl("") == []

    def test_jsonl_is_valid_json_per_line(self):
        lines = to_jsonl(_sample_events()).strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            assert json.loads(line)["name"]


class TestSpanTree:
    def test_orders_by_span_id_and_strips_everything_else(self):
        tree = span_tree(_sample_events())
        assert tree == [
            {
                "name": "root",
                "children": [
                    {"name": "child", "children": []},
                    {"name": "remote", "children": []},
                ],
            }
        ]

    def test_render(self):
        assert render_span_tree(_sample_events()) == "root\n  child\n  remote"

    def test_unknown_parent_becomes_root(self):
        orphan = [SpanRecord(5, 99, "orphan", 0, 1, 0)]
        assert span_tree(orphan) == [{"name": "orphan", "children": []}]


# ------------------------------------------------------------------ metrics


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").add()
        registry.counter("c").add(4)
        registry.gauge("g").set(7)
        registry.histogram("h").observe(3)
        registry.histogram("h").observe(600)
        assert registry.counter("c").value == 5
        assert registry.gauge("g").value == 7
        histogram = registry.histogram("h")
        assert histogram.count == 2
        assert histogram.peak == 600
        assert histogram.mean == pytest.approx(301.5)
        assert registry.names() == ("c", "g", "h")
        assert len(registry) == 3 and "c" in registry

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="is a Counter"):
            registry.gauge("x")

    def test_histogram_bounds_validation(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=())
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(5, 1))
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_helpers_noop_when_disabled(self):
        counter_add("c")
        gauge_set("g", 1)
        histogram_observe("h", 1)

    def test_helpers_record_when_enabled(self):
        registry = MetricsRegistry()
        set_registry(registry)
        counter_add("c", 2)
        gauge_set("g", 9)
        histogram_observe("h", 4)
        assert registry.counter("c").value == 2
        assert registry.gauge("g").value == 9
        assert registry.histogram("h").count == 1

    def test_merge_snapshot_additive(self):
        worker = MetricsRegistry()
        worker.counter("c").add(3)
        worker.gauge("g").set(5)
        worker.histogram("h").observe(10)
        parent = MetricsRegistry()
        parent.counter("c").add(1)
        parent.gauge("untouched")  # zero updates: must survive merges
        parent.merge_snapshot(worker.snapshot())
        parent.merge_snapshot(worker.snapshot())
        assert parent.counter("c").value == 7
        assert parent.gauge("g").value == 5
        assert parent.gauge("untouched").updates == 0
        histogram = parent.histogram("h")
        assert histogram.count == 2 and histogram.peak == 10

    def test_merge_rejects_mismatched_bounds(self):
        left = MetricsRegistry()
        left.histogram("h", bounds=(1, 2))
        right = MetricsRegistry()
        right.histogram("h", bounds=(1, 2, 3)).observe(1)
        with pytest.raises(ValueError, match="bucket bounds differ"):
            left.merge_snapshot(right.snapshot())

    def test_merge_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="unknown metric type"):
            MetricsRegistry().merge_snapshot({"x": {"type": "mystery"}})

    def test_snapshot_sorted_and_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("b").add()
        registry.counter("a").add()
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a", "b"]
        json.dumps(snapshot)  # must not raise

    def test_render_sections(self):
        registry = MetricsRegistry()
        registry.counter("hits").add(12)
        registry.gauge("depth").set(4)
        registry.histogram("sizes").observe(3)
        text = registry.render()
        assert "counters" in text and "gauges" in text and "histograms" in text
        assert "hits" in text and "n=1" in text


# ----------------------------------------------------------------- sessions


class TestObserving:
    def test_enable_disable(self):
        assert not obs.is_active()
        session = obs.enable()
        assert obs.is_active()
        with span("x"):
            counter_add("c")
        assert [e.name for e in session.tracer.events] == ["x"]
        assert session.registry.counter("c").value == 1
        obs.disable()
        assert not obs.is_active()

    def test_observing_restores_previous(self):
        outer = obs.enable()
        with obs.observing() as inner:
            assert obs.current_tracer() is inner.tracer
            with span("inner-only"):
                pass
        assert obs.current_tracer() is outer.tracer
        assert outer.tracer.events == []
        assert [e.name for e in inner.tracer.events] == ["inner-only"]
        obs.disable()


# ------------------------------------------------------------------ logging


class TestLog:
    def test_verbosity_from_flags(self):
        assert verbosity_from_flags() == WARNING
        assert verbosity_from_flags(verbose=1) == INFO
        assert verbosity_from_flags(verbose=2) == DEBUG
        assert verbosity_from_flags(verbose=3, quiet=True) == ERROR

    def test_structured_line_format(self):
        stream = io.StringIO()
        logger = ObsLogger("fuzz", stream)
        set_verbosity(INFO)
        logger.info("case 17/200", oracle="uio-verify", b=1)
        assert stream.getvalue() == "[info ] fuzz: case 17/200 b=1 oracle=uio-verify\n"

    def test_threshold_gates(self):
        stream = io.StringIO()
        logger = ObsLogger("x", stream)
        logger.info("hidden")  # default threshold is WARNING
        logger.warning("shown")
        set_verbosity(ERROR)
        logger.warning("also hidden")
        logger.error("loud")
        assert stream.getvalue() == "[warn ] x: shown\n[error] x: loud\n"

    def test_get_logger_cached(self):
        assert get_logger("same") is get_logger("same")


# ------------------------------------------------------------------- report


class TestReport:
    def test_aggregate_self_time(self):
        events = [
            SpanRecord(1, None, "root", 0, 1000, 0),
            SpanRecord(2, 1, "child", 100, 400, 0),
            SpanRecord(3, 1, "child", 500, 300, 0),
        ]
        child, root = aggregate_spans(events)  # sorted by self time
        assert (root.name, root.calls) == ("root", 1)
        assert root.self_s == pytest.approx((1000 - 700) / 1e9)
        assert (child.name, child.calls) == ("child", 2)
        assert child.self_s > root.self_s
        assert child.total_s == pytest.approx(700 / 1e9)
        assert child.mean_ms == pytest.approx(350 / 1e6)

    def test_render_stats(self):
        events = [SpanRecord(1, None, "root", 0, 1_000_000, 0)]
        registry = MetricsRegistry()
        registry.counter("c").add(2)
        text = render_stats(events, registry)
        assert "spans: 1 events, 1 distinct names" in text
        assert "root" in text and "counters" in text

    def test_render_stats_truncates(self):
        events = [
            SpanRecord(i, None, f"name{i}", 0, 1000 * i, 0) for i in range(1, 6)
        ]
        assert "... 3 more span name(s)" in render_stats(events, top=2)


# -------------------------------------------------------- StageTimings glue


class TestStageTimingsSpans:
    def test_stage_seconds_come_from_the_span(self):
        with obs.observing() as session:
            timings = StageTimings()
            with timings.stage("lion", "uio") as sp:
                sum(range(1000))
                sp.set(states=4)
        (record,) = timings.records
        (event,) = session.tracer.events
        assert event.name == "uio"
        assert record.seconds == event.duration_ns / 1e9
        assert event.attrs == {"circuit": "lion", "states": 4}

    def test_add_emits_equivalent_span(self):
        with obs.observing() as session:
            StageTimings().add("lion", "uio", 0.0)
        (event,) = session.tracer.events
        assert event.name == "uio" and event.duration_ns == 0
        assert event.attrs == {"circuit": "lion"}

    def test_stage_works_without_tracer(self):
        timings = StageTimings()
        with timings.stage("lion", "uio"):
            pass
        assert timings.records[0].seconds >= 0.0


# ----------------------------------------------------- pipeline integration


def _observed_run(jobs: int):
    with obs.observing() as session:
        compute_studies(("lion",), StudyOptions(), jobs=jobs)
    return session


class TestPipelineObservability:
    def test_expected_span_names_present(self):
        session = _observed_run(jobs=1)
        names = {event.name for event in session.tracer.events}
        for expected in (
            "sweep.prepare", "circuit.prepare", "uio.search",
            "testgen.chaining", "testgen.transfer", "sweep.simulate",
            "sweep.chunk", "faultsim.ppsfp.build", "sweep.select",
        ):
            assert expected in names, expected
        assert validate_chrome_trace(session.tracer.to_chrome()) == []

    def test_expected_metrics_present(self):
        session = _observed_run(jobs=1)
        registry = session.registry
        assert registry.counter("uio.search.nodes_expanded").value > 0
        assert registry.counter("testgen.tests").value == 9  # the paper's lion
        assert registry.counter("testgen.chained").value > 0
        assert registry.counter("faultsim.batches").value >= 2  # 2 fault models
        assert registry.counter("faultsim.ppsfp.calls").value > 0
        assert registry.counter("faultsim.detected").value > 0
        assert registry.histogram("faultsim.batch_detected").count >= 2

    def test_transfer_search_metrics(self, lion):
        # the default transfer bound of 1 uses a precomputed successor list,
        # so the BFS metrics need a direct call to exercise them
        from repro.uio.transfer import find_transfer, transfer_map

        with obs.observing() as session:
            assert find_transfer(lion, 0, (1,), 2) is not None
            assert find_transfer(lion, 0, (), 2) is None
            transfer_map(lion, (0,), 2)
        registry = session.registry
        assert registry.counter("transfer.bfs.searches").value == 2
        assert registry.counter("transfer.bfs.unreachable").value == 1
        assert registry.histogram("transfer.bfs.frontier_peak").count == 2
        assert registry.histogram("transfer.bfs.length").count == 1
        assert registry.counter("transfer.map.searches").value == 1
        assert registry.counter("transfer.map.states_reached").value > 0
        assert [e.name for e in session.tracer.events] == ["transfer.map"]

    def test_two_runs_identical_modulo_timestamps(self):
        first = _observed_run(jobs=1)
        second = _observed_run(jobs=1)
        first_tree = span_tree(first.tracer.events)
        second_tree = span_tree(second.tracer.events)
        assert first_tree == second_tree
        assert first.registry.snapshot() == second.registry.snapshot()

    def test_worker_spans_merge_under_parent(self):
        session = _observed_run(jobs=2)
        tree = span_tree(session.tracer.events)
        simulate = next(
            node for node in tree if node["name"] == "sweep.simulate"
        )
        chunk_names = [child["name"] for child in simulate["children"]]
        assert chunk_names and set(chunk_names) == {"sweep.chunk"}
        # chunks ran in pool workers: their recorded pids differ from ours
        chunk_pids = {
            event.pid
            for event in session.tracer.events
            if event.name == "sweep.chunk"
        }
        assert any(pid != session.tracer.pid for pid in chunk_pids)
        # worker metrics merged back additively
        assert session.registry.counter("faultsim.detected").value > 0
        assert validate_chrome_trace(session.tracer.to_chrome()) == []


# ---------------------------------------------------------------------- CLI


class TestCli:
    def test_trace_table_target(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert main([
            "trace", "table5", "--circuit", "lion",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "lion" in out  # the table itself
        assert "uio.search" in out  # the span tree
        assert f"wrote metrics snapshot to {metrics_path}" in out
        trace = json.loads(trace_path.read_text())
        assert validate_chrome_trace(trace) == []
        metrics = json.loads(metrics_path.read_text())
        assert metrics["testgen.tests"]["value"] == 9

    def test_trace_circuit_target(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(["trace", "lion", "--trace-out", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "testgen.chaining" in out
        assert validate_chrome_trace(json.loads(trace_path.read_text())) == []

    def test_trace_unknown_target(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "bogus"])
        assert excinfo.value.code == 2
        assert "unknown target" in capsys.readouterr().err

    def test_stats_command(self, capsys):
        assert main(["stats", "lion", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "spans:" in out and "self s" in out
        assert "counters" in out and "uio.search.nodes_expanded" in out

    def test_table_command_trace_out_wrapper(self, tmp_path, capsys):
        trace_path = tmp_path / "table5.json"
        assert main([
            "table5", "--circuits", "lion", "--trace-out", str(trace_path),
        ]) == 0
        captured = capsys.readouterr()
        assert "lion" in captured.out
        assert f"span(s) to {trace_path}" in captured.err
        assert validate_chrome_trace(json.loads(trace_path.read_text())) == []

    def test_cache_info_session_line(self, tmp_path, capsys):
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        # No lookups happened, so no hit rate is claimed (0/0 is not 0%).
        assert "session   no lookups yet (hit rate n/a)" in out

    def test_global_verbose_routes_fuzz_progress(self, capsys):
        assert main(["-v", "fuzz", "--cases", "1"]) == 0
        err = capsys.readouterr().err
        assert "[info ] fuzz:" in err

    def test_fuzz_quiet_by_default(self, capsys):
        assert main(["fuzz", "--cases", "1"]) == 0
        assert "[info ]" not in capsys.readouterr().err
