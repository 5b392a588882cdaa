"""Tests for the ledger analytics engine (``repro.obs.analytics``).

The acceptance bar from the issue: on synthetic ledgers generated from
known power laws the fits must recover each planted exponent within 5%,
and ``tables``/``diff`` output must be byte-identical across repeated
runs on the same ledger.
"""

from __future__ import annotations

import json

import pytest

from repro.benchmarks.registry import get_spec
from repro.cli import main
from repro.obs import ledger
from repro.obs.analytics import (
    Frame,
    attribute_deltas,
    best_fit,
    circuit_frame,
    detect_anomalies,
    diff_payload,
    diff_records,
    linear_fit,
    power_fit,
    record_id,
    render_attribution,
    render_diff,
    render_fits_latex,
    render_fits_markdown,
    resolve_record,
    robust_z_scores,
    run_frame,
    scaling_fits,
    tables_payload,
    validate_diff_payload,
    validate_tables_payload,
)

# Four bundled circuits with pairwise-distinct state counts, so every
# planted power law is sampled at four distinct sizes.
CIRCUITS = ("lion", "bbtas", "bbara", "dk16")


# ------------------------------------------------------------------ frame


class TestFrame:
    def test_init_and_len(self):
        frame = Frame({"a": [1, 2], "b": ["x", "y"]})
        assert len(frame) == 2
        assert frame.names == ("a", "b")
        assert frame.column("a") == [1, 2]

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            Frame({"a": [1, 2], "b": [1]})

    def test_from_rows_fills_missing_with_none(self):
        frame = Frame.from_rows([{"a": 1}, {"a": 2, "b": 3}])
        assert frame.column("b") == [None, 3]

    def test_where_and_filter(self):
        frame = Frame({"a": [1, 2, 3], "b": ["x", "y", "x"]})
        assert frame.where(b="x").column("a") == [1, 3]
        assert frame.filter(lambda row: row["a"] > 1).column("a") == [2, 3]

    def test_group_by(self):
        frame = Frame({"a": [1, 2, 3], "b": ["x", "y", "x"]})
        groups = frame.group_by("b")
        assert {key: len(part) for key, part in groups.items()} == {
            ("x",): 2,
            ("y",): 1,
        }

    def test_sorted_by_totally_orders_mixed_values(self):
        frame = Frame({"a": [3, None, "txt", 1.5]})
        assert frame.sorted_by("a").column("a") == [None, 1.5, 3, "txt"]

    def test_numeric_drops_non_numbers_and_bools(self):
        frame = Frame({"a": [1, None, True, "x", 2.5]})
        assert frame.numeric("a") == [1.0, 2.5]

    def test_pairs_aligns_only_joint_numeric_rows(self):
        frame = Frame({"x": [1, 2, None], "y": [10, None, 30]})
        assert frame.pairs("x", "y") == [(1.0, 10.0)]


# ------------------------------------------------------------------- fits


class TestFits:
    def test_power_fit_recovers_exact_law(self):
        xs = [4.0, 8.0, 16.0, 32.0]
        fit = power_fit(xs, [3.0 * x**1.7 for x in xs])
        assert fit is not None
        assert fit.exponent == pytest.approx(1.7, rel=1e-9)
        assert fit.coeff == pytest.approx(3.0, rel=1e-9)
        assert fit.r2 == pytest.approx(1.0)

    def test_linear_fit_recovers_exact_line(self):
        xs = [1.0, 2.0, 3.0]
        fit = linear_fit(xs, [2.0 * x + 5.0 for x in xs])
        assert fit is not None
        assert fit.exponent == pytest.approx(2.0)
        assert fit.coeff == pytest.approx(5.0)

    def test_power_fit_demands_positive_data(self):
        assert power_fit([1.0, 2.0], [1.0, 0.0]) is None
        assert power_fit([0.0, 2.0], [1.0, 2.0]) is None
        assert power_fit([2.0, 2.0], [1.0, 2.0]) is None

    def test_best_fit_prefers_power_for_power_data(self):
        xs = [2.0, 4.0, 8.0, 16.0]
        fit = best_fit(xs, [x**2.0 for x in xs])
        assert fit is not None
        assert fit.model == "power"

    def test_formula_is_readable(self):
        fit = power_fit([1.0, 2.0, 4.0], [2.0, 4.0, 8.0])
        assert fit is not None
        assert "^" in fit.formula("tests", "n_states")


# ------------------------------------------------ synthetic scaling ledger

#: Planted laws: metric -> (coefficient, exponent) against n_states.
PLANTED = {
    "tests": (2.0, 1.5),
    "test_length": (1.0, 2.0),
    "clock_cycles": (3.0, 1.25),
    "wall_s": (0.001, 2.5),
    "max_rss_kb": (500.0, 1.0),
    "stage.generation": (0.002, 2.25),
}


def planted_records(repeats: int = 2) -> list[dict]:
    """Single-circuit table5 records following the planted power laws."""
    records = []
    for _ in range(repeats):
        for circuit in CIRCUITS:
            size = get_spec(circuit).n_states
            law = {
                metric: coeff * size**exponent
                for metric, (coeff, exponent) in PLANTED.items()
            }
            records.append(
                ledger.build_record(
                    "table5",
                    semantic_args={"circuits": [circuit]},
                    circuits=[circuit],
                    wall_s=law["wall_s"],
                    stage_seconds={"generation": law["stage.generation"]},
                    resources={
                        "cpu_user_s": 0.1,
                        "cpu_system_s": 0.0,
                        "max_rss_kb": int(law["max_rss_kb"]),
                    },
                    results={
                        circuit: {
                            "tests": round(law["tests"], 6),
                            "test_length": round(law["test_length"], 6),
                            "clock_cycles": round(law["clock_cycles"], 6),
                            "stuck_at": {
                                "faults": 100,
                                "detected": 90,
                                "coverage": 0.9,
                            },
                        }
                    },
                )
            )
    return records


class TestScalingFits:
    def test_distinct_state_counts(self):
        sizes = [get_spec(name).n_states for name in CIRCUITS]
        assert len(set(sizes)) == len(sizes)

    def test_planted_exponents_recovered_within_5pct(self):
        frame = circuit_frame(planted_records())
        fits = {
            (f.metric, f.size): f
            for f in scaling_fits(frame)
        }
        for metric, (coeff, exponent) in PLANTED.items():
            fit = fits[(metric, "n_states")].fit
            assert fit.model == "power", metric
            assert fit.exponent == pytest.approx(exponent, rel=0.05), metric
            assert fit.coeff == pytest.approx(coeff, rel=0.05), metric
            assert fit.r2 > 0.99, metric

    def test_residuals_near_zero_on_exact_data(self):
        frame = circuit_frame(planted_records())
        fits = [
            f for f in scaling_fits(frame, metrics=("tests",))
            if f.size == "n_states"
        ]
        assert fits
        for fit in fits:
            for _, residual in fit.residuals:
                assert abs(residual) < 0.05

    def test_multi_circuit_records_excluded_from_timing_fits(self):
        record = ledger.build_record(
            "table5",
            semantic_args={},
            circuits=["lion", "bbtas"],
            wall_s=9.9,
            results={"lion": {"tests": 4}, "bbtas": {"tests": 8}},
        )
        frame = circuit_frame([record])
        assert frame.column("wall_s") == [None, None]
        assert sorted(zip(frame.column("circuit"), frame.column("tests"))) \
            == [("bbtas", 8.0), ("lion", 4.0)]

    def test_record_order_does_not_change_fits(self):
        records = planted_records()
        forward = tables_payload(records)
        backward = tables_payload(list(reversed(records)))
        assert forward == backward


class TestRendering:
    def test_markdown_is_deterministic_and_complete(self):
        records = planted_records()
        fits = scaling_fits(circuit_frame(records))
        first = render_fits_markdown(fits, "table5")
        second = render_fits_markdown(
            scaling_fits(circuit_frame(records)), "table5"
        )
        assert first == second
        assert "| metric | size axis | model | fit | R² | circuits |" in first
        assert "tests" in first and "residual" in first

    def test_latex_is_deterministic_and_escaped(self):
        fits = scaling_fits(circuit_frame(planted_records()))
        first = render_fits_latex(fits, "table5")
        assert first == render_fits_latex(fits, "table5")
        assert r"\begin{table}" in first
        assert "max\\_rss\\_kb" in first

    def test_empty_fits_render_cleanly(self):
        assert "No fit" in render_fits_markdown([], "table5")
        assert render_fits_latex([], "table5").startswith("%")

    def test_tables_payload_validates(self):
        payload = tables_payload(planted_records())
        assert validate_tables_payload(payload) == []
        assert payload["commands"]["table5"]["circuits"] == sorted(CIRCUITS)

    def test_validate_rejects_malformed_payload(self):
        assert validate_tables_payload([]) != []
        assert validate_tables_payload({"schema": "nope"}) != []
        bad = tables_payload(planted_records())
        bad["commands"]["table5"]["fits"][0]["fit"]["r2"] = float("nan")
        assert validate_tables_payload(bad) != []


# ------------------------------------------------------------------- diff


def two_records() -> list[dict]:
    base = ledger.build_record(
        "table5",
        semantic_args={"circuits": ["lion"]},
        circuits=["lion"],
        wall_s=1.0,
        stage_seconds={"uio": 0.2, "generation": 0.8},
        metrics={"testgen.tests": {"value": 9}},
        resources={"cpu_user_s": 1.0, "cpu_system_s": 0.1,
                   "max_rss_kb": 1000},
        results={"lion": {"tests": 9}},
    )
    other = ledger.build_record(
        "table5",
        semantic_args={"circuits": ["lion"]},
        circuits=["lion"],
        wall_s=2.0,
        stage_seconds={"uio": 0.2, "generation": 1.7},
        metrics={"testgen.tests": {"value": 11}},
        resources={"cpu_user_s": 1.9, "cpu_system_s": 0.1,
                   "max_rss_kb": 1500},
        results={"lion": {"tests": 11}},
    )
    return [base, other]


class TestResolveRecord:
    def test_aliases_and_indices(self):
        records = two_records()
        assert resolve_record(records, "last")[0] == 1
        assert resolve_record(records, "prev")[0] == 0
        assert resolve_record(records, "@0")[0] == 0
        assert resolve_record(records, "-1")[0] == 1

    def test_id_prefix_lookup(self):
        records = two_records()
        target = record_id(records[0])
        index, found = resolve_record(records, target[:8])
        assert index == 0
        assert record_id(found) == target

    def test_all_digit_id_prefix_is_not_an_index(self):
        """An id prefix made only of decimal digits still selects by id."""
        records = two_records()
        counter = 0
        while True:
            record = {"command": "table5", "counter": counter}
            prefix = record_id(record)[:8]
            if prefix.isdigit():
                break
            counter += 1
        records.append(record)
        assert int(prefix) >= len(records)  # an out-of-range position
        index, found = resolve_record(records, prefix)
        assert index == 2
        assert found == record
        with pytest.raises(ValueError, match="out of range"):
            resolve_record(records, "@" + prefix)  # @N stays positional

    def test_args_hash_prefers_newest_match(self):
        records = two_records()
        # Both records share the args hash; the newest wins.
        index, _ = resolve_record(records, records[0]["args_hash"])
        assert index == 1

    def test_unknown_selector_raises(self):
        with pytest.raises(ValueError):
            resolve_record(two_records(), "zz-no-such")
        with pytest.raises(ValueError):
            resolve_record(two_records(), "@99")


class TestDiff:
    def test_stage_attribution_largest_first(self):
        base, other = two_records()
        diff = diff_records(base, other, 0, 1)
        assert diff.stages[0].name == "generation"
        assert diff.stages[0].delta == pytest.approx(0.9)
        assert diff.wall.delta == pytest.approx(1.0)

    def test_result_deltas_flattened(self):
        base, other = two_records()
        diff = diff_records(base, other)
        assert ("lion.tests", 9, 11) in diff.results

    def test_render_is_deterministic(self):
        base, other = two_records()
        first = render_diff(diff_records(base, other, 0, 1))
        second = render_diff(diff_records(base, other, 0, 1))
        assert first == second
        assert "stage attribution" in first

    def test_payload_validates(self):
        base, other = two_records()
        payload = diff_payload(diff_records(base, other, 0, 1))
        assert validate_diff_payload(payload) == []
        payload["stages"][0]["delta"] = 123.0
        assert any(
            "inconsistent" in p for p in validate_diff_payload(payload)
        )

    def test_attribution_shares_sum_to_100(self):
        deltas = attribute_deltas({"a": 1.0, "b": 2.0}, {"a": 2.0, "b": 2.0})
        text = render_attribution(deltas)
        assert "a +1.000s (100%)" in text


# -------------------------------------------------------------- anomalies


def repeated_records(walls: list[float]) -> list[dict]:
    return [
        ledger.build_record(
            "table5",
            semantic_args={"circuits": ["lion"]},
            circuits=["lion"],
            wall_s=wall,
            stage_seconds={"generation": wall / 2.0},
            resources={"cpu_user_s": wall, "cpu_system_s": 0.0,
                       "max_rss_kb": 1000},
            results={"lion": {"tests": 9}},
        )
        for wall in walls
    ]


class TestAnomalies:
    def test_robust_z_flags_the_outlier(self):
        scores = robust_z_scores([1.0, 1.1, 0.9, 1.0, 1.05, 10.0])
        assert abs(scores[-1]) > 3.5
        assert all(abs(score) < 3.5 for score in scores[:-1])

    def test_flat_history_never_flags(self):
        assert robust_z_scores([0.0] * 6) == [0.0] * 6
        assert detect_anomalies(repeated_records([1.0] * 8)) == []

    def test_outlier_run_detected(self):
        records = repeated_records([1.0, 1.1, 0.9, 1.0, 1.05, 1.0, 12.0])
        anomalies = detect_anomalies(records)
        assert anomalies
        worst = anomalies[0]
        assert worst.index == 6
        assert worst.field in ("wall_s", "cpu_s", "stage.generation")
        assert worst.z > 3.5

    def test_short_history_is_exempt(self):
        records = repeated_records([1.0, 1.0, 12.0])
        assert detect_anomalies(records) == []

    def test_history_renders_warnings(self):
        from repro.obs.history import render_history

        records = repeated_records([1.0, 1.1, 0.9, 1.0, 1.05, 1.0, 12.0])
        text = render_history(
            records, "table5", anomalies=detect_anomalies(records)
        )
        assert "anomalies (" in text
        assert "wall_s" in text

    def test_report_shows_anomaly_panel(self):
        from repro.obs.history import render_html

        records = repeated_records([1.0, 1.1, 0.9, 1.0, 1.05, 1.0, 12.0])
        html = render_html(records)
        assert "Anomalies" in html
        assert "&#9888;" in html


# ------------------------------------------------------------------ prune


class TestPrune:
    def write_ledger(self, tmp_path, records, corrupt_lines=0):
        root = tmp_path / "ledger"
        root.mkdir(parents=True, exist_ok=True)
        path = root / ledger.LEDGER_FILENAME
        with open(path, "w") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            for _ in range(corrupt_lines):
                handle.write('{"truncated": \n')
        return root

    def test_keeps_newest_per_circuit(self, tmp_path):
        records = repeated_records([1.0, 2.0, 3.0, 4.0])
        root = self.write_ledger(tmp_path, records)
        summary = ledger.prune_records(2, root)
        assert summary == {"kept": 2, "pruned": 2, "corrupt": 0}
        kept = ledger.read_records(root)
        assert [r["wall_s"] for r in kept] == [3.0, 4.0]

    def test_multi_circuit_record_survives_via_any_group(self, tmp_path):
        shared = ledger.build_record(
            "table5", semantic_args={}, circuits=["lion", "mc"], wall_s=1.0
        )
        lion_only = repeated_records([2.0, 3.0])
        root = self.write_ledger(tmp_path, [shared] + lion_only)
        summary = ledger.prune_records(2, root)
        # `shared` is lion's 3rd-newest but mc's newest: it must survive.
        assert summary["kept"] == 3 and summary["pruned"] == 0
        kept = ledger.read_records(root)
        assert kept[0]["circuits"] == ["lion", "mc"]

    def test_corrupt_lines_dropped_and_counted(self, tmp_path):
        records = repeated_records([1.0, 2.0])
        root = self.write_ledger(tmp_path, records, corrupt_lines=2)
        summary = ledger.prune_records(5, root)
        assert summary == {"kept": 2, "pruned": 0, "corrupt": 2}
        assert len(ledger.read_records(root)) == 2

    def test_surviving_lines_are_byte_identical(self, tmp_path):
        records = repeated_records([1.0, 2.0, 3.0])
        root = self.write_ledger(tmp_path, records)
        before = (root / ledger.LEDGER_FILENAME).read_text().splitlines()
        ledger.prune_records(2, root)
        after = (root / ledger.LEDGER_FILENAME).read_text().splitlines()
        assert after == before[-2:]

    def test_missing_ledger_returns_none(self, tmp_path):
        assert ledger.prune_records(3, tmp_path / "nowhere") is None

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            ledger.prune_records(0, tmp_path)


# ------------------------------------------------------------ CLI plumbing


def seed_ledger(records):
    root = ledger.ledger_dir()
    assert root is not None
    for record in records:
        ledger.append_record(record, root)


class TestAnalyticsCli:
    def test_tables_byte_identical_across_runs(self, capsys):
        seed_ledger(planted_records())
        assert main(["tables"]) == 0
        first = capsys.readouterr().out
        assert main(["tables"]) == 0
        assert capsys.readouterr().out == first
        assert "Scaling fits" in first

    def test_tables_json_validates(self, capsys):
        seed_ledger(planted_records())
        assert main(["tables", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert validate_tables_payload(payload) == []

    def test_tables_latex_out_file(self, tmp_path, capsys):
        seed_ledger(planted_records())
        target = tmp_path / "fits.tex"
        assert main(["tables", "--format", "latex",
                     "--out", str(target)]) == 0
        assert r"\begin{table}" in target.read_text()

    def test_diff_cli_human_and_json(self, capsys):
        seed_ledger(two_records())
        assert main(["diff", "prev", "last"]) == 0
        human = capsys.readouterr().out
        assert "stage attribution" in human
        assert main(["diff", "@0", "@1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert validate_diff_payload(payload) == []

    def test_diff_cli_byte_identical(self, capsys):
        seed_ledger(two_records())
        assert main(["diff", "prev", "last"]) == 0
        first = capsys.readouterr().out
        assert main(["diff", "prev", "last"]) == 0
        assert capsys.readouterr().out == first

    def test_diff_empty_ledger_errors(self, capsys):
        assert main(["diff", "last"]) == 2
        assert "empty" in capsys.readouterr().err

    def test_diff_unknown_selector_errors(self, capsys):
        seed_ledger(two_records())
        assert main(["diff", "zz-no-such", "last"]) == 2
        assert "no record matches" in capsys.readouterr().err

    def test_history_shows_and_suppresses_anomalies(self, capsys):
        seed_ledger(repeated_records([1.0, 1.1, 0.9, 1.0, 1.05, 1.0, 12.0]))
        assert main(["history", "table5"]) == 0
        assert "anomalies (" in capsys.readouterr().out
        assert main(["history", "table5", "--no-anomalies"]) == 0
        assert "anomalies (" not in capsys.readouterr().out

    def test_history_json_carries_anomalies(self, capsys):
        seed_ledger(repeated_records([1.0, 1.1, 0.9, 1.0, 1.05, 1.0, 12.0]))
        assert main(["history", "table5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["anomalies"]
        assert payload["anomalies"][0]["z"] > 3.5

    def test_ledger_prune_cli(self, capsys):
        seed_ledger(repeated_records([1.0, 2.0, 3.0]))
        assert main(["ledger", "prune", "--keep", "1"]) == 0
        assert "kept 1 record(s), pruned 2" in capsys.readouterr().out
        assert len(ledger.read_records()) == 1

    def test_ledger_prune_empty(self, capsys):
        assert main(["ledger", "prune", "--keep", "3"]) == 0
        assert "nothing to prune" in capsys.readouterr().out

    def test_report_includes_scaling_plots(self, tmp_path):
        seed_ledger(planted_records())
        target = tmp_path / "report.html"
        assert main(["report", "--out", str(target)]) == 0
        text = target.read_text()
        assert "Scaling" in text
        assert "fitline" in text
        assert text.count("<figure>") >= 2


# --------------------------------------------------------------- run frame


class TestRunFrame:
    def test_run_frame_columns(self):
        frame = run_frame(planted_records(repeats=1))
        assert len(frame) == len(CIRCUITS)
        assert "stage_total_s" in frame.names
        assert all(isinstance(v, str) for v in frame.column("id"))

    def test_schema_1_records_lack_resources(self):
        record = {
            "schema": "repro-fsatpg-ledger/1",
            "ts": "2026-01-01T00:00:00Z",
            "command": "table5",
            "wall_s": 1.0,
            "circuits": ["lion"],
            "stage_seconds": {},
            "cache": {"hits": 0, "misses": 0},
            "results": {},
        }
        frame = run_frame([record])
        assert frame.column("max_rss_kb") == [None]
        assert frame.column("cpu_user_s") == [None]
