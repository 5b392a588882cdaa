"""Tests of the run ledger, the regression gate, and the history views."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import ledger
from repro.obs.history import (
    command_records,
    history_rows,
    render_history,
    render_html,
    sparkline,
)
from repro.obs.regress import compare_reports, options_from_baseline, run_regress


def read_ledger() -> list[dict]:
    return ledger.read_records()


def norm(record: dict) -> str:
    return json.dumps(ledger.normalized(record), sort_keys=True)


# --------------------------------------------------------------- unit level


class TestLedgerBasics:
    def test_args_hash_is_order_insensitive(self):
        left = ledger.args_hash("table5", {"a": 1, "b": [2, 3]})
        right = ledger.args_hash("table5", {"b": [2, 3], "a": 1})
        assert left == right
        assert len(left) == 16

    def test_args_hash_separates_commands_and_values(self):
        base = ledger.args_hash("table5", {"circuits": ["lion"]})
        assert base != ledger.args_hash("table4", {"circuits": ["lion"]})
        assert base != ledger.args_hash("table5", {"circuits": ["mc"]})

    def test_build_append_read_roundtrip(self, tmp_path):
        record = ledger.build_record(
            "table5",
            semantic_args={"circuits": ["lion"]},
            circuits=["lion"],
            wall_s=1.5,
            stage_seconds={"uio": 0.2, "generation": 0.1},
            metrics={"uio.nodes": {"type": "counter", "value": 7}},
            results={"lion": {"tests": 9}},
            cache_hits=3,
            cache_misses=1,
        )
        assert ledger.validate_record(record) == []
        path = ledger.append_record(record, tmp_path)
        assert path == tmp_path / ledger.LEDGER_FILENAME
        (read,) = ledger.read_records(tmp_path)
        assert read == json.loads(json.dumps(record))
        assert read["cache"]["hit_rate"] == 0.75

    def test_ledger_dir_env_override_and_disable(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ledger.LEDGER_ENV, str(tmp_path))
        assert ledger.ledger_dir() == tmp_path
        assert ledger.ledger_enabled()
        monkeypatch.setenv(ledger.LEDGER_ENV, "")
        assert ledger.ledger_dir() is None
        assert not ledger.ledger_enabled()
        assert ledger.append_record({"schema": "x"}) is None
        assert ledger.read_records() == []

    def test_scheduling_metrics_are_dropped(self):
        record = ledger.build_record(
            "table6",
            semantic_args={},
            metrics={
                "faultsim.batches": {"type": "counter", "value": 4},
                "faultsim.detected": {"type": "counter", "value": 40},
            },
        )
        assert "faultsim.batches" not in record["metrics"]
        assert "faultsim.detected" in record["metrics"]

    def test_corrupt_line_is_skipped_with_warning(self, tmp_path, capsys):
        good = ledger.build_record("table5", semantic_args={})
        ledger.append_record(good, tmp_path)
        path = tmp_path / ledger.LEDGER_FILENAME
        with open(path, "a") as handle:
            handle.write('{"truncated": \n')
            handle.write('"just a string"\n')
        ledger.append_record(good, tmp_path)
        records = ledger.read_records(tmp_path)
        assert len(records) == 2
        err = capsys.readouterr().err
        assert "corrupt ledger line 2" in err
        assert "non-object ledger line 3" in err

    def test_validate_record_flags_problems(self):
        assert ledger.validate_record([]) == ["record is not a JSON object"]
        record = ledger.build_record("x", semantic_args={})
        record["schema"] = "bogus/9"
        record["jobs"] = "four"
        record["stage_seconds"] = {"uio": -1.0}
        del record["git_sha"]
        problems = ledger.validate_record(record)
        assert any("schema" in p for p in problems)
        assert any("jobs" in p for p in problems)
        assert any("stage_seconds" in p for p in problems)
        assert any("git_sha" in p for p in problems)

    def test_normalized_drops_volatile_fields(self):
        record = ledger.build_record(
            "table5",
            semantic_args={},
            argv=["table5", "--jobs", "2"],
            jobs=2,
            wall_s=3.2,
            stage_seconds={"uio": 0.5, "generation": 0.1},
            cache_hits=9,
        )
        view = ledger.normalized(record)
        for key in ("ts", "git_sha", "argv", "jobs", "wall_s", "cache"):
            assert key not in view
        assert view["stage_seconds"] == ["generation", "uio"]


# ------------------------------------------------------------ CLI ledgering


class TestCliLedgering:
    def test_table5_appends_a_valid_record(self, capsys):
        assert main(["table5", "--circuits", "lion"]) == 0
        (record,) = read_ledger()
        assert ledger.validate_record(record) == []
        assert record["command"] == "table5"
        assert record["circuits"] == ["lion"]
        assert record["results"]["lion"]["tests"] == 9
        assert record["provenance"]["decisions"] == {
            "chained": 7, "scan_out": 9,
        }
        assert set(record["stage_seconds"]) == {"uio", "generation"}

    def test_same_workload_twice_normalizes_identically(self, capsys):
        assert main(["table5", "--circuits", "lion,mc"]) == 0
        assert main(["table5", "--circuits", "lion,mc"]) == 0
        first, second = read_ledger()
        assert norm(first) == norm(second)

    def test_jobs_2_normalizes_identically_to_serial(self, capsys):
        assert main(["table5", "--circuits", "lion,mc"]) == 0
        assert main(["table5", "--circuits", "lion,mc", "--jobs", "2"]) == 0
        serial, parallel = read_ledger()
        assert serial["jobs"] == 1 and parallel["jobs"] == 2
        assert norm(serial) == norm(parallel)

    def test_table6_jobs_invariant_including_metrics(self, capsys):
        assert main(["table6", "--circuits", "lion"]) == 0
        assert main(["table6", "--circuits", "lion", "--jobs", "2"]) == 0
        serial, parallel = read_ledger()
        assert norm(serial) == norm(parallel)
        assert serial["results"]["lion"]["stuck_at"]["coverage"] > 0.5

    def test_table6_records_the_ppsfp_replay_counters(self, capsys):
        # lion's two universes replay its 9 tests (28 cycles) once each;
        # the astray lookups count the per-fault steps off the fault-free
        # trajectory, the difference words the lane words of its 168
        # fault rows that the table build patched, and the pairs the
        # (fault, gate) rows of the faults' cones it evaluated: 531
        # stuck-at and 530 bridging.  None depends on how the sweep is
        # scheduled.
        assert main(["table6", "--circuits", "lion"]) == 0
        assert main(["table6", "--circuits", "lion", "--jobs", "2"]) == 0
        serial, parallel = read_ledger()
        for record in (serial, parallel):
            metrics = record["metrics"]
            assert metrics["faultsim.ppsfp.cycles"]["value"] == 56
            assert metrics["faultsim.ppsfp.astray_steps"]["value"] == 254
            assert metrics["faultsim.ppsfp.pattern_words"]["value"] == 168
            assert metrics["faultsim.ppsfp.diff_words"]["value"] == 153
            assert metrics["faultsim.ppsfp.pairs"]["value"] == 1061

    def test_generate_is_ledgered(self, capsys):
        assert main(["generate", "lion", "--no-tests"]) == 0
        (record,) = read_ledger()
        assert record["command"] == "generate"
        assert record["results"]["lion"]["tests"] == 9
        assert record["args_hash"] == ledger.args_hash(
            "generate",
            {"circuits": ["lion"], "uio_length": None,
             "transfer_length": 1, "scan_ratio": 1},
        )

    def test_no_ledger_flag_suppresses_recording(self, capsys):
        assert main(["--no-ledger", "table5", "--circuits", "lion"]) == 0
        assert read_ledger() == []

    def test_ledger_dir_flag_redirects(self, tmp_path, capsys):
        target = tmp_path / "elsewhere"
        code = main(["--ledger-dir", str(target),
                     "table5", "--circuits", "lion"])
        assert code == 0
        assert (target / ledger.LEDGER_FILENAME).exists()

    def test_info_is_not_ledgered(self, capsys):
        assert main(["info", "lion"]) == 0
        assert read_ledger() == []

    def test_bench_ledgers_itself(self, tmp_path, capsys):
        out = tmp_path / "BENCH.json"
        code = main(["-q", "bench", "--circuits", "lion", "--jobs", "2",
                     "--cache-dir", str(tmp_path / "cache"),
                     "-o", str(out)])
        assert code == 0
        (record,) = read_ledger()
        assert record["command"] == "bench"
        assert record["results"]["lion"]["tests"] == 9
        assert record["cache"]["hits"] > 0
        report = json.loads(out.read_text())
        assert report["schema"] == "repro-fsatpg-bench/5"
        for label, run in report["runs"].items():
            assert run["resources"]["max_rss_kb"] > 0, label
        assert report["runs"]["parallel_cold"].get("pool") is None or (
            sum(w["tasks"] for w in report["runs"]["parallel_cold"]["pool"]["workers"]) > 0
        )
        assert report["results"] == record["results"]


# ---------------------------------------------------------------- history


def synthetic_records(n: int = 3) -> list[dict]:
    records = []
    for index in range(n):
        record = ledger.build_record(
            "table5",
            semantic_args={"circuits": ["lion"]},
            circuits=["lion"],
            jobs=1 + index % 2,
            wall_s=1.0 + index,
            results={
                "lion": {
                    "tests": 9 + index,
                    "test_length": 28,
                    "stuck_at": {"coverage": 0.9, "faults": 100,
                                 "detected": 90, "effective_tests": 5},
                }
            },
        )
        records.append(record)
    return records


class TestHistoryViews:
    def test_command_records_filters(self):
        records = synthetic_records() + [
            ledger.build_record("bench", semantic_args={})
        ]
        assert len(command_records(records, "table5")) == 3
        assert len(command_records(records, "bench")) == 1

    def test_history_rows_summarize_results(self):
        (row,) = history_rows(synthetic_records(1))
        assert row[2] == "1"  # jobs
        assert row[5] == "9"  # tests
        assert row[6] == "28"  # total length
        assert row[7] == "90.00"  # stuck-at coverage %

    def test_render_history_limits_and_titles(self):
        text = render_history(synthetic_records(5), "table5", limit=2)
        assert "table5 history (2 of 5 runs)" in text
        assert text.count("\n") >= 3

    def test_render_history_empty(self):
        assert "no ledger records" in render_history([], "table5")

    def test_sparkline_svg(self):
        svg = sparkline([1.0, 2.0, 1.5])
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert sparkline([1.0]) == ""

    def test_render_html_dashboard(self):
        html = render_html(synthetic_records(3))
        assert "<!doctype html>" in html
        assert "table5" in html
        assert "<svg" in html
        assert "<table>" in html

    def test_render_html_empty(self):
        assert "The ledger is empty." in render_html([])

    def test_render_html_single_record(self):
        # Degenerate ledger: one record must render without sparklines
        # (they need >= 2 points), plots (>= 3 circuits), or min/max traps.
        html = render_html(synthetic_records(1))
        assert "<!doctype html>" in html
        assert "<table>" in html
        assert 'class="spark"' not in html
        assert "<figure>" not in html

    def test_render_history_single_record(self):
        text = render_history(synthetic_records(1), "table5")
        assert "table5 history (1 of 1 runs)" in text

    def test_fleet_summary_degenerate_and_schema1(self):
        from repro.obs.history import fleet_summary

        empty = fleet_summary([])
        assert empty["runs"] == 0
        assert empty["cache_hit_rate"] == 0.0
        # Schema /1 records (no resources block) contribute zero CPU.
        record = dict(synthetic_records(1)[0])
        record.pop("resources")
        summary = fleet_summary([record])
        assert summary["runs"] == 1
        assert summary["cpu_s"] == 0.0

    def test_history_and_report_cli(self, tmp_path, capsys):
        assert main(["table5", "--circuits", "lion"]) == 0
        capsys.readouterr()
        assert main(["history", "table5"]) == 0
        out = capsys.readouterr().out
        assert "table5 history (1 of 1 runs)" in out
        target = tmp_path / "report.html"
        assert main(["report", "--out", str(target)]) == 0
        assert "table5" in target.read_text()


# ------------------------------------------------------------- regression


def make_baseline(tmp_path: Path, circuits=("lion",)) -> Path:
    """A minimal but real /4 baseline measured on the current tree."""
    from repro.obs.regress import collect_current

    current = collect_current(list(circuits))
    baseline = {
        "schema": "repro-fsatpg-bench/4",
        "circuits": list(circuits),
        "options": {
            "config": {"max_uio_length": None, "max_transfer_length": 1,
                       "scan_ratio": 1},
            "max_fanin": 4,
            "bridging_pair_limit": 500,
            "engine": "auto",
        },
        "runs": {"serial_cold": {"stage_seconds": current["stage_seconds"]}},
        "results": current["results"],
    }
    path = tmp_path / "BENCH_base.json"
    path.write_text(json.dumps(baseline))
    return path


class TestRegressionGate:
    def test_clean_tree_passes(self, tmp_path, capsys):
        baseline = make_baseline(tmp_path)
        report, code = run_regress(baseline, threshold_pct=500,
                                   min_seconds=0.5)
        assert code == 0
        assert report is not None and report.ok
        assert report.checked_circuits == 1

    def test_quality_delta_fails(self, tmp_path):
        path = make_baseline(tmp_path)
        baseline = json.loads(path.read_text())
        baseline["results"]["lion"]["tests"] += 1
        path.write_text(json.dumps(baseline))
        report, code = run_regress(path, threshold_pct=500, min_seconds=0.5)
        assert code == 1
        (regression,) = [r for r in report.regressions if r.kind == "quality"]
        assert regression.subject == "lion.tests"
        assert regression.baseline == 10 and regression.current == 9

    def test_missing_circuit_fails(self, tmp_path):
        path = make_baseline(tmp_path)
        baseline = json.loads(path.read_text())
        baseline["results"]["ghost9"] = {"tests": 1}
        path.write_text(json.dumps(baseline))
        report, code = run_regress(path, threshold_pct=500, min_seconds=0.5)
        assert code == 1
        assert any(r.subject == "ghost9" for r in report.regressions)

    def test_injected_slowdown_fails(self, tmp_path, monkeypatch):
        baseline = make_baseline(tmp_path)
        # Slow the work *inside* the uio stage span, the way a real
        # regression would: the stage clock must see the extra time.
        import repro.perf.artifacts as artifacts

        real = artifacts.compute_uio_table

        def slow(*args, **kwargs):
            import time

            time.sleep(0.2)
            return real(*args, **kwargs)

        monkeypatch.setattr(artifacts, "compute_uio_table", slow)
        report, code = run_regress(baseline, threshold_pct=25,
                                   min_seconds=0.01)
        assert code == 1
        assert any(
            r.kind == "stage-time" and r.subject == "uio"
            for r in report.regressions
        )

    def test_noise_floor_skips_fast_stages(self):
        report = compare_reports(
            {
                "runs": {"serial_cold": {"stage_seconds": {"uio": 0.001}}},
                "results": {},
            },
            {"stage_seconds": {"uio": 0.004}, "results": {}},
            threshold_pct=25, min_seconds=0.05,
        )
        assert report.ok  # 4x slower but both under the floor
        assert any("pre-/3" in note for note in report.notes)

    def test_pre_v3_baseline_skips_quality_gate_with_note(self):
        report = compare_reports(
            {"runs": {"serial_cold": {"stage_seconds": {}}}},
            {"stage_seconds": {}, "results": {"lion": {"tests": 9}}},
        )
        assert report.ok
        assert any("quality gate skipped" in note for note in report.notes)

    def test_options_from_baseline_roundtrip(self, tmp_path):
        path = make_baseline(tmp_path)
        options = options_from_baseline(json.loads(path.read_text()))
        assert options.max_fanin == 4
        assert options.config.max_transfer_length == 1

    def test_unreadable_baseline_exits_2(self, tmp_path, capsys):
        report, code = run_regress(tmp_path / "missing.json")
        assert report is None and code == 2
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        report, code = run_regress(bad)
        assert report is None and code == 2

    def test_regress_cli(self, tmp_path, capsys):
        baseline = make_baseline(tmp_path)
        code = main(["regress", "--baseline", str(baseline),
                     "--threshold", "500", "--min-seconds", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "no regressions" in out
        code = main(["regress", "--baseline", str(tmp_path / "nope.json")])
        assert code == 2


# --------------------------------------------------- trace/stats JSON mode


class TestJsonFormats:
    def test_trace_format_json_roundtrip(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(["trace", "table5", "--circuit", "lion",
                     "--trace-out", str(trace_path),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target"] == "table5"
        assert payload["spans"], "expected at least one span"
        names = {event["name"] for event in payload["spans"]}
        assert {"uio", "generation"} <= names
        assert payload["tree"][0]["name"]
        assert trace_path.exists()

    def test_stats_format_json_roundtrip(self, capsys):
        assert main(["stats", "lion", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = {row["name"]: row for row in payload["spans"]}
        assert "generation" in rows
        assert rows["generation"]["calls"] >= 1
        assert isinstance(payload["metrics"], dict)

    def test_fuzz_ledgered_with_results(self, capsys):
        assert main(["fuzz", "--cases", "2", "--seed", "0",
                     "--format", "json"]) == 0
        (record,) = read_ledger()
        assert record["command"] == "fuzz"
        assert record["results"]["fuzz"]["executed_cases"] == 2
        assert record["results"]["fuzz"]["failures"] == 0


class TestValidateLedgerScript:
    def test_script_accepts_valid_and_rejects_corrupt(self, tmp_path, capsys):
        import importlib.util
        import sys

        spec = importlib.util.spec_from_file_location(
            "validate_ledger",
            Path(__file__).resolve().parents[1] / "scripts"
            / "validate_ledger.py",
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules["validate_ledger"] = module
        spec.loader.exec_module(module)

        ledger.append_record(
            ledger.build_record("table5", semantic_args={}), tmp_path
        )
        assert module.main([str(tmp_path)]) == 0
        with open(tmp_path / ledger.LEDGER_FILENAME, "a") as handle:
            handle.write("{broken\n")
        assert module.main([str(tmp_path)]) == 1
        assert module.main([str(tmp_path / "void")]) == 1


@pytest.fixture(autouse=True)
def _fresh_study_cache():
    """CLI runs warm the in-process study cache; isolate tests from it."""
    from repro.harness import experiments

    experiments._STUDIES.clear()
    yield
    experiments._STUDIES.clear()
