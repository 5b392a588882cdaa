"""Tests of the command-line interface."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import _LIMITS, build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "lion"])
        assert args.circuit == "lion"
        assert args.uio_length is None
        assert args.transfer_length == 1
        assert args.show_tests

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["atpg", "lion", "--backtrack-limit", "-1"], "--backtrack-limit"),
            (["explain", "lion", "--fault", "g0.out/sa0",
              "--backtrack-limit", "-1"], "--backtrack-limit"),
            (["explain", "lion", "--fault", "g0.out/sa0",
              "--trace-capacity", "-1"], "--trace-capacity"),
            (["table5", "--uio-length", "-1"], "--uio-length"),
            (["generate", "lion", "--uio-length", "-1"], "--uio-length"),
        ],
    )
    def test_negative_search_limits_are_refused(self, argv, option, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        errors = [
            line for line in capsys.readouterr().err.splitlines()
            if "error:" in line
        ]
        assert errors == [
            f"repro-fsatpg {argv[0]}: error: argument {option}: "
            "must be >= 0, got -1"
        ]

    @pytest.mark.parametrize(
        "argv, option, message",
        [
            (["table6", "--circuits", "lion", "--max-fanin", "1"],
             "--max-fanin", "must be 0 (unbounded) or >= 2, got 1"),
            (["analyze", "lion", "--max-fanin", "-1"],
             "--max-fanin", "must be 0 (unbounded) or >= 2, got -1"),
            (["table5", "--transfer-length", "-2"],
             "--transfer-length", "must be >= 0, got -2"),
            (["table6", "--bridging-limit", "-3"],
             "--bridging-limit", "must be >= 0, got -3"),
            (["table7", "--scan-ratio", "0"],
             "--scan-ratio", "must be >= 1, got 0"),
            (["stats", "lion", "--top", "0"], "--top", "must be >= 1, got 0"),
            (["stats", "lion", "--top", "-2"], "--top", "must be >= 1, got -2"),
        ],
    )
    def test_out_of_range_limits_are_refused(self, argv, option, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        errors = [
            line for line in capsys.readouterr().err.splitlines()
            if "error:" in line
        ]
        assert errors == [f"repro-fsatpg {argv[0]}: error: argument {option}: {message}"]

    def test_boundary_limits_parse(self):
        args = build_parser().parse_args(
            ["table6", "--max-fanin", "0", "--uio-length", "0",
             "--transfer-length", "0", "--scan-ratio", "1",
             "--bridging-limit", "0"]
        )
        assert (args.max_fanin, args.uio_length, args.transfer_length,
                args.scan_ratio, args.bridging_limit) == (0, 0, 0, 1, 0)
        assert build_parser().parse_args(["atpg", "lion", "--max-fanin", "2"]).max_fanin == 2
        assert build_parser().parse_args(["stats", "lion", "--top", "1"]).top == 1

    def test_every_limit_option_shares_one_validator(self):
        seen = set()

        def walk(parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for subparser in action.choices.values():
                        walk(subparser)
                for flag in action.option_strings:
                    if flag in _LIMITS:
                        assert action.type is _LIMITS[flag]["type"], flag
                        seen.add(flag)

        walk(build_parser())
        assert seen == set(_LIMITS)

    def test_zero_search_limits_parse(self):
        args = build_parser().parse_args(
            ["explain", "lion", "--fault", "g0.out/sa0",
             "--backtrack-limit", "0", "--trace-capacity", "0"]
        )
        assert (args.backtrack_limit, args.trace_capacity) == (0, 0)

    def test_search_limit_must_be_an_int(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["atpg", "lion", "--backtrack-limit", "x"])
        assert exit_info.value.code == 2
        assert "invalid int value: 'x'" in capsys.readouterr().err

    def test_atpg_has_no_algorithm_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["atpg", "lion", "--algorithm", "d"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --algorithm d" in capsys.readouterr().err


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "lion"]) == 0
        out = capsys.readouterr().out
        assert "lion" in out
        assert "exact" in out
        assert "transitions       16" in out

    def test_generate_prints_tests_and_stats(self, capsys):
        assert main(["generate", "lion", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "# 9 tests, total length 28" in out
        assert "96.00% of per-transition baseline" in out
        assert "strict coverage: complete" in out
        assert "(0, (0,0,1), 1)" in out

    def test_generate_no_tests_flag(self, capsys):
        assert main(["generate", "lion", "--no-tests"]) == 0
        out = capsys.readouterr().out
        assert "(0, (0,0,1), 1)" not in out

    def test_generate_transfer_length_zero(self, capsys):
        assert main(["generate", "shiftreg", "--transfer-length", "0"]) == 0
        assert "tests" in capsys.readouterr().out

    def test_table2_command(self, capsys):
        assert main(["table2", "lion"]) == 0
        out = capsys.readouterr().out
        assert "00 11" in out

    def test_table5_with_circuit_list(self, capsys):
        assert main(["table5", "--circuits", "lion,shiftreg"]) == 0
        out = capsys.readouterr().out
        assert "lion" in out and "shiftreg" in out

    def test_table4_small_tier(self, capsys):
        assert main(["table4", "--tier", "small"]) == 0
        out = capsys.readouterr().out
        assert "bbtas" in out

    def test_table9_custom_circuit(self, capsys):
        assert main(["table9", "--circuits", "dk512"]) == 0
        out = capsys.readouterr().out
        assert "dk512" in out

    def test_unknown_circuit_raises(self):
        from repro.errors import BenchmarkError

        with pytest.raises(BenchmarkError):
            main(["info", "bogus"])

    def test_max_fanin_zero_means_unbounded(self, capsys):
        assert main(["table5", "--circuits", "lion", "--max-fanin", "0"]) == 0


class TestNewSubcommands:
    def test_export_json_stdout(self, capsys):
        assert main(["export", "lion"]) == 0
        out = capsys.readouterr().out
        assert '"format": "repro-scan-tests"' in out

    def test_export_vectors_to_file(self, tmp_path, capsys):
        target = tmp_path / "lion.vec"
        assert main(["export", "lion", "--format", "vectors", "-o", str(target)]) == 0
        text = target.read_text()
        assert "scan-in  00" in text
        assert "wrote 9 tests" in capsys.readouterr().out

    def test_export_roundtrip(self, tmp_path):
        from repro.core.export import test_set_from_json

        target = tmp_path / "lion.json"
        assert main(["export", "lion", "-o", str(target)]) == 0
        test_set = test_set_from_json(target.read_text())
        assert test_set.n_tests == 9

    def test_nonscan_command(self, capsys):
        assert main(["nonscan", "lion"]) == 0
        out = capsys.readouterr().out
        assert "verified          43.75%" in out
        assert "100.00% verified" in out

    def test_delay_command(self, capsys):
        assert main(["delay", "lion"]) == 0
        out = capsys.readouterr().out
        assert "0.00% coverage" in out
        assert "at-speed pairs" in out

class TestAnalyzeCommand:
    def test_analyze_human_report(self, capsys):
        assert main(["analyze", "lion"]) == 0
        out = capsys.readouterr().out
        assert "circuit        lion" in out
        assert "representatives" in out
        assert "hardest nets by SCOAP" in out

    def test_analyze_json_payload_is_verified_and_valid(self, capsys):
        import json as json_module

        assert main(["analyze", "lion", "--format", "json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-fsatpg-sca/1"
        assert payload["circuit"] == "lion"
        assert payload["verified"] is True
        collapse = payload["collapse"]
        assert collapse["faults"] >= collapse["representatives"] >= 1
        assert collapse["ratio"] >= 1.0
        assert "scoap" in payload

    def test_analyze_no_scoap_trims_payload(self, capsys):
        import json as json_module

        assert main(["analyze", "lion", "--format", "json", "--no-scoap"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert "scoap" not in payload

    def test_analyze_unknown_circuit_raises(self):
        from repro.errors import BenchmarkError

        with pytest.raises(BenchmarkError):
            main(["analyze", "not-a-circuit"])
