"""Tests of the differential fuzzing subsystem.

Each oracle is proved non-vacuous by breaking one of its two
implementations (via monkeypatching the alias the oracle calls) and
asserting the oracle notices.  The shrinker, corpus, runner, and CLI are
tested directly.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.cli import main
from repro.core.faultmodel import FunctionalFaultResult
from repro.errors import FuzzError
from repro.fsm.builders import random_dense_table
from repro.fuzz import (
    FuzzConfig,
    MachineSpec,
    generate_machine,
    load_corpus,
    oracle_names,
    run_fuzz,
    save_failure,
    shrink_machine,
    spec_stream,
)
from repro.fuzz import oracles as oracles_mod
from repro.fuzz.generators import BRIDGING_LIMIT, MACHINE_VARIANTS, random_gate_faults
from repro.fuzz.oracles import (
    FuzzCase,
    Oracle,
    OracleFailure,
    OracleSkip,
    get_oracle,
    resolve_oracles,
)
from repro.fuzz.runner import OracleTimeout, _time_limit
from repro.fuzz.shrink import drop_input_bit, drop_output_bit, drop_state
from repro.gatelevel.bridging import BridgeKind, BridgingFault
from repro.gatelevel.fault_sim import detects as interpreted_detects
from repro.gatelevel.ppsfp import PpsfpSimulator
from repro.perf.cache import ArtifactCache
from repro.uio import search as search_mod
from repro.uio.search import UioTable


def small_case(seed: int = 5, variant: str = "dense") -> FuzzCase:
    spec = MachineSpec(variant, 4, 1, 1, seed)
    return FuzzCase(spec.label(), generate_machine(spec), spec=spec)


class TestGenerators:
    def test_spec_stream_is_deterministic(self):
        first = list(spec_stream(10, seed=3))
        second = list(spec_stream(10, seed=3))
        assert first == second
        assert list(spec_stream(10, seed=4)) != first

    def test_spec_stream_cycles_variants(self):
        variants = [spec.variant for spec in spec_stream(8, seed=0)]
        assert variants == list(MACHINE_VARIANTS) * 2

    def test_generate_machine_deterministic_and_labeled(self):
        spec = MachineSpec("strongly-connected", 5, 2, 2, 99)
        table = generate_machine(spec)
        assert table == generate_machine(spec)
        assert table.name == spec.label()

    def test_strongly_connected_variant_reaches_every_state(self):
        table = generate_machine(MachineSpec("strongly-connected", 6, 2, 1, 1))
        reached = {0}
        frontier = [0]
        while frontier:
            state = frontier.pop()
            for combo in range(table.n_input_combinations):
                nxt = int(table.next_state[state, combo])
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        assert reached == set(range(6))

    def test_bad_specs_rejected(self):
        with pytest.raises(FuzzError):
            MachineSpec("nope", 2, 1, 1, 0)
        with pytest.raises(FuzzError):
            MachineSpec("dense", 0, 1, 1, 0)
        with pytest.raises(FuzzError):
            list(spec_stream(-1, 0))

    def test_random_gate_faults_mixes_models_deterministically(self):
        case = small_case()
        faults = random_gate_faults(case.scan_circuit(), "x")
        assert faults == random_gate_faults(case.scan_circuit(), "x")
        kinds = {type(fault).__name__ for fault in faults}
        assert "StuckAtFault" in kinds


class TestOracleRegistry:
    def test_oracles_registered(self):
        assert len(oracle_names()) >= 8
        assert "sim-ppsfp-vs-interpreted" in oracle_names()
        assert oracle_names() == tuple(sorted(oracle_names()))

    def test_unknown_oracle_raises(self):
        with pytest.raises(FuzzError, match="unknown oracle"):
            get_oracle("nope")

    def test_resolve_defaults_to_all(self):
        assert [o.name for o in resolve_oracles(None)] == list(oracle_names())
        assert [o.name for o in resolve_oracles(("uio-verify",))] == ["uio-verify"]

    def test_all_oracles_pass_on_healthy_case(self):
        case = small_case()
        for name in oracle_names():
            get_oracle(name).run(case)  # must not raise


class TestBrokenImplementationsAreCaught:
    """Each oracle must notice when one of its two sides is broken."""

    def test_uio_verify_catches_forgotten_sequences(self, monkeypatch):
        case = small_case(seed=0)  # this machine has length-1 UIOs
        real = oracles_mod.compute_uio_table

        def forgetful(table, max_length, *args, **kwargs):
            found = real(table, max_length, *args, **kwargs)
            if max_length > 1:  # "optimized" long search loses everything
                return UioTable(found.machine_name, max_length, {}, frozenset())
            return found

        monkeypatch.setattr(oracles_mod, "compute_uio_table", forgetful)
        with pytest.raises(OracleFailure, match="length-1 UIO"):
            get_oracle("uio-verify").run(case)

    def test_uio_verify_catches_bogus_sequence(self, monkeypatch):
        case = small_case()
        real = oracles_mod.compute_uio_table

        def corrupt(table, max_length, *args, **kwargs):
            found = real(table, max_length, *args, **kwargs)
            sequences = dict(found.sequences)
            if sequences:
                state, seq = next(iter(sequences.items()))
                sequences[state] = type(seq)(
                    seq.state, seq.inputs, (seq.final_state + 1) % table.n_states
                )
            return UioTable(
                found.machine_name, found.max_length, sequences,
                found.budget_exhausted,
            )

        monkeypatch.setattr(oracles_mod, "compute_uio_table", corrupt)
        with pytest.raises(OracleFailure):
            get_oracle("uio-verify").run(case)

    @pytest.mark.parametrize("corruption", ["drops-length-1-uio", "calls-merged"])
    def test_uio_verify_reproves_root_verdicts(self, monkeypatch, corruption):
        # Both searches of the oracle read one root classification, so a
        # corrupted classification passes its other two checks.
        case = small_case(seed=0)  # this machine has length-1 UIOs
        real = search_mod._classify_roots

        def corrupt(table):
            roots = list(real(table))
            state = next(s for s, root in enumerate(roots) if root[0] is not None)
            unique, merged, open_inputs = roots[state]
            if corruption == "drops-length-1-uio":
                roots[state] = (None, merged, open_inputs)
            else:
                roots[state] = (None, len(table.input_representatives), ())
            return tuple(roots)

        monkeypatch.setattr(search_mod, "_classify_roots", corrupt)
        with pytest.raises(OracleFailure, match="separates state .* but the search stored"):
            get_oracle("uio-verify").run(case)

    def test_coverage_catches_dropped_test(self, monkeypatch):
        case = small_case()
        real = oracles_mod.generate_tests

        def lossy(table, *args, **kwargs):
            result = real(table, *args, **kwargs)
            result.test_set.tests[:] = result.test_set.tests[:-1]
            return result

        monkeypatch.setattr(oracles_mod, "generate_tests", lossy)
        with pytest.raises(OracleFailure):
            get_oracle("coverage-chaining").run(case)

    def test_kiss_roundtrip_catches_corrupt_writer(self, monkeypatch):
        case = small_case()
        real = oracles_mod.table_to_kiss

        def corrupt(table):
            output = table.output.copy()
            output[0, 0] ^= 1  # writer flips one output bit
            return real(
                type(table)(
                    table.next_state, output, table.n_inputs, table.n_outputs,
                    table.state_names, table.name,
                )
            )

        monkeypatch.setattr(oracles_mod, "table_to_kiss", corrupt)
        with pytest.raises(OracleFailure, match="round-trip"):
            get_oracle("kiss-roundtrip").run(case)

    def test_sim_equivalence_catches_blind_interpreter(self, monkeypatch):
        case = small_case()
        simulator = PpsfpSimulator(
            case.scan_circuit(), case.table, case.gate_faults()
        )
        assert any(
            simulator.detects(test) for test in case.generation().test_set
        ), "precondition: the PPSFP simulator detects something"
        monkeypatch.setattr(
            oracles_mod, "interpreted_detects", lambda *a, **k: set()
        )
        with pytest.raises(OracleFailure, match="diverge"):
            get_oracle("sim-ppsfp-vs-interpreted").run(case)

    def test_sim_equivalence_catches_a_flipped_mask_bit(self, monkeypatch):
        case = small_case()
        get_oracle("sim-ppsfp-vs-interpreted").run(case)  # healthy first
        real = PpsfpSimulator.detect_mask
        monkeypatch.setattr(
            PpsfpSimulator, "detect_mask", lambda self, test: real(self, test) ^ 1
        )
        with pytest.raises(OracleFailure, match="diverge"):
            get_oracle("sim-ppsfp-vs-interpreted").run(case)

    def test_sim_equivalence_catches_a_diverging_batched_mask(self, monkeypatch):
        case = small_case()
        real = PpsfpSimulator.detect_masks

        def batched(self, tests):
            masks = real(self, tests)
            return [*masks[:-1], masks[-1] ^ 1]

        # The per-test path keeps the healthy walk; only batches break.
        monkeypatch.setattr(
            PpsfpSimulator, "detect_mask", lambda self, test: real(self, [test])[0]
        )
        monkeypatch.setattr(PpsfpSimulator, "detect_masks", batched)
        with pytest.raises(OracleFailure, match="batched PPSFP mask"):
            get_oracle("sim-ppsfp-vs-interpreted").run(case)

    def test_detectability_catches_optimistic_derivation(self, monkeypatch):
        case = small_case()
        get_oracle("detectability-ppsfp-vs-cone").run(case)  # healthy first
        monkeypatch.setattr(
            oracles_mod, "detectable_mask", lambda simulator: simulator.ones
        )
        with pytest.raises(OracleFailure, match="disagrees"):
            get_oracle("detectability-ppsfp-vs-cone").run(case)

    def test_detectability_catches_a_lost_pattern_mask(self, monkeypatch):
        # Three states on two state bits: code 3 is unassigned, and on this
        # machine some faults are visible only through it.
        spec = MachineSpec("dense", 3, 1, 1, 0)
        case = FuzzCase(spec.label(), generate_machine(spec), spec=spec)
        get_oracle("detectability-ppsfp-vs-cone").run(case)  # healthy first
        real = oracles_mod.detectable_faults

        def unmasked(netlist, faults, **kwargs):
            kwargs.pop("pattern_mask", None)
            return real(netlist, faults, **kwargs)

        monkeypatch.setattr(oracles_mod, "detectable_faults", unmasked)
        with pytest.raises(OracleFailure, match="disagrees"):
            get_oracle("detectability-ppsfp-vs-cone").run(case)

    def test_bridging_conditions_catches_a_truncated_sample(self, monkeypatch):
        case = small_case()
        real = oracles_mod.enumerate_bridging_faults
        netlist = case.scan_circuit().netlist
        assert len(real(netlist)) > 2 * BRIDGING_LIMIT, (
            "precondition: the sample is a proper subset of the universe"
        )
        get_oracle("bridging-conditions").run(case)  # healthy first

        def first_pairs(netlist, limit=None, seed=0):
            faults = real(netlist)
            return faults if limit is None else faults[: 2 * limit]

        monkeypatch.setattr(oracles_mod, "enumerate_bridging_faults", first_pairs)
        with pytest.raises(OracleFailure, match="limit=16"):
            get_oracle("bridging-conditions").run(case)

    def test_bridging_conditions_catches_a_lost_pair(self, monkeypatch):
        case = small_case()
        real = oracles_mod.enumerate_bridging_faults
        monkeypatch.setattr(
            oracles_mod, "enumerate_bridging_faults",
            lambda netlist, limit=None, seed=0: real(netlist, limit, seed)[2:],
        )
        with pytest.raises(OracleFailure, match="limit=None"):
            get_oracle("bridging-conditions").run(case)

    def test_scan_vs_nonscan_catches_blind_simulator(self, monkeypatch):
        case = small_case()
        get_oracle("scan-vs-nonscan").run(case)  # healthy first

        def blind(table, test_set, faults):
            ordered = list(dict.fromkeys(faults))
            return FunctionalFaultResult(frozenset(), frozenset(ordered))

        monkeypatch.setattr(oracles_mod, "simulate_functional_faults", blind)
        with pytest.raises(OracleFailure, match="classified differently"):
            get_oracle("scan-vs-nonscan").run(case)

    def test_synthesis_replay_catches_wrong_netlist_trace(self, monkeypatch):
        case = small_case()
        circuit_type = type(case.scan_circuit())
        original = circuit_type.run_test

        def wrong(self, test):
            final, outputs = original(self, test)
            return final, tuple(out ^ 1 for out in outputs)

        monkeypatch.setattr(circuit_type, "run_test", wrong)
        with pytest.raises(OracleFailure, match="replay"):
            get_oracle("synthesis-replay").run(case)

    def test_cache_replay_catches_corrupt_cache(self, monkeypatch):
        case = small_case()
        get_oracle("cache-replay").run(case)  # healthy first
        real_put = ArtifactCache.put

        def lossy(self, kind, key, value):
            real_put(self, kind, key, value)
            # The entry on disk loses a verdict the cold run returned.
            assert value.verdicts, "precondition: the run has verdicts"
            stored = dataclasses.replace(value, verdicts=value.verdicts[1:])
            self._path(kind, key).write_bytes(pickle.dumps(stored))

        monkeypatch.setattr(ArtifactCache, "put", lossy)
        with pytest.raises(OracleFailure, match="warm ATPG run differs"):
            get_oracle("cache-replay").run(case)

    def test_cache_replay_catches_a_missed_replay(self, monkeypatch):
        monkeypatch.setattr(ArtifactCache, "get", lambda self, kind, key: None)
        with pytest.raises(OracleFailure, match="0 hit"):
            get_oracle("cache-replay").run(small_case())

    def test_gate_oracles_skip_oversized_machines(self):
        table = random_dense_table(1, 12, 1, seed=0)
        case = FuzzCase("big", table)
        with pytest.raises(OracleSkip):
            get_oracle("sim-ppsfp-vs-interpreted").run(case)
        with pytest.raises(OracleSkip):
            get_oracle("synthesis-replay").run(case)
        with pytest.raises(OracleSkip):
            get_oracle("cache-replay").run(case)

    def test_kiss_roundtrip_skips_zero_width(self):
        table = random_dense_table(0, 3, 2, seed=1)
        with pytest.raises(OracleSkip):
            get_oracle("kiss-roundtrip").run(FuzzCase("no-inputs", table))


class TestBridgingPolarityRegression:
    """The PPSFP and the interpreted simulators agree on a bridge whose
    wired-AND and wired-OR polarities behave differently.

    Pinned from the fuzzer stream: on this machine the AND short between
    lines 8 and 18 is detected by the first generated test while the OR
    short on the same line pair is not — exactly the asymmetry a polarity
    mix-up in either simulator would invert.
    """

    def test_polarity_sensitive_bridge_agrees(self):
        table = generate_machine(MachineSpec("dense", 4, 2, 2, 0))
        case = FuzzCase("polarity-pin", table)
        circuit = case.scan_circuit()
        faults = [
            BridgingFault(8, 18, BridgeKind.AND),
            BridgingFault(8, 18, BridgeKind.OR),
        ]
        simulator = PpsfpSimulator(circuit, table, faults)
        test = case.generation().test_set.tests[0]
        ppsfp = simulator.detects(test)
        interpreted = frozenset(interpreted_detects(circuit, table, test, faults))
        assert ppsfp == interpreted
        assert faults[0] in ppsfp and faults[1] not in ppsfp


class TestShrinker:
    def test_reductions_produce_valid_tables(self):
        table = generate_machine(MachineSpec("dense", 5, 2, 2, 11))
        assert drop_state(table, 2).n_states == 4
        assert drop_input_bit(table, 1).n_inputs == 1
        assert drop_output_bit(table, 0).n_outputs == 1

    def test_reduction_bounds_checked(self):
        table = generate_machine(MachineSpec("dense", 1, 1, 1, 0))
        with pytest.raises(FuzzError):
            drop_state(table, 0)
        with pytest.raises(FuzzError):
            drop_input_bit(table, 3)

    def test_shrink_converges_to_minimal_witness(self):
        table = generate_machine(MachineSpec("dense", 9, 3, 2, 42))
        result = shrink_machine(table, lambda t: t.n_states >= 3)
        assert result.reduced
        assert result.table.n_states == 3  # one fewer kills the predicate
        assert result.table.n_inputs == 1
        assert result.table.n_outputs == 1

    def test_shrink_treats_predicate_crash_as_not_failing(self):
        table = generate_machine(MachineSpec("dense", 6, 2, 1, 7))

        def predicate(candidate):
            if candidate.n_states < 4:
                raise RuntimeError("different bug")
            return True

        result = shrink_machine(table, predicate)
        assert result.table.n_states == 4

    def test_shrink_respects_attempt_budget(self):
        table = generate_machine(MachineSpec("dense", 9, 3, 3, 1))
        result = shrink_machine(table, lambda t: True, max_attempts=3)
        assert result.attempts == 3


class TestCorpus:
    def test_round_trip(self, tmp_path):
        table = generate_machine(MachineSpec("cube", 5, 2, 2, 3))
        entry = save_failure(tmp_path, "uio-verify", table, "detail text")
        loaded = load_corpus(tmp_path)
        assert len(loaded) == 1
        assert loaded[0].table == table
        assert loaded[0].oracle == "uio-verify"
        assert loaded[0].metadata["detail"] == "detail text"
        assert (tmp_path / entry.relative_path).exists()

    def test_digest_deduplicates(self, tmp_path):
        table = generate_machine(MachineSpec("cube", 4, 1, 1, 9))
        save_failure(tmp_path, "kiss-roundtrip", table, "first")
        save_failure(tmp_path, "kiss-roundtrip", table, "second")
        assert len(load_corpus(tmp_path)) == 1

    def test_missing_corpus_is_empty(self, tmp_path):
        assert load_corpus(tmp_path / "nope") == []

    def test_corrupt_entry_is_an_error(self, tmp_path):
        bad = tmp_path / "uio-verify"
        bad.mkdir()
        (bad / "deadbeef.kiss").write_text("not kiss at all\n")
        with pytest.raises(FuzzError, match="unreadable"):
            load_corpus(tmp_path)

    def test_zero_width_tables_rejected(self, tmp_path):
        table = random_dense_table(0, 2, 1, seed=0)
        with pytest.raises(FuzzError, match="zero-width"):
            save_failure(tmp_path, "uio-verify", table, "x")


class TestRunner:
    def test_clean_campaign_passes(self):
        report = run_fuzz(FuzzConfig(cases=6, seed=0))
        assert report.ok
        assert report.executed_cases == 6
        assert set(report.stats) == set(oracle_names())
        assert report.stats["uio-verify"]["ok"] == 6

    def test_failure_is_shrunk_and_persisted(self, tmp_path, monkeypatch):
        real = oracles_mod.compute_uio_table

        def broken(table, max_length, *args, **kwargs):
            if max_length > 1:  # lossy long search: forgets every sequence
                return UioTable(table.name, max_length, {}, frozenset())
            return real(table, max_length, *args, **kwargs)

        monkeypatch.setattr(oracles_mod, "compute_uio_table", broken)
        report = run_fuzz(
            FuzzConfig(
                cases=4,
                seed=0,
                oracles=("uio-verify",),
                corpus_dir=str(tmp_path),
                max_failures=2,
            )
        )
        assert not report.ok
        assert report.stop_reason.startswith("reached 2 failures")
        shrunk = [f for f in report.failures if f.shrunk_from]
        assert shrunk, "first failure must be shrunk"
        assert shrunk[0].n_states <= 6
        assert shrunk[0].corpus_path is not None
        assert load_corpus(tmp_path)

    def test_corpus_replays_before_generation(self, tmp_path, monkeypatch):
        table = generate_machine(MachineSpec("dense", 3, 1, 1, 2))
        save_failure(tmp_path, "uio-verify", table, "stored failure")
        report = run_fuzz(
            FuzzConfig(cases=0, corpus_dir=str(tmp_path))
        )
        assert report.replayed_entries == 1
        assert report.executed_cases == 0
        assert report.ok  # the bug this entry once caught is fixed

    def test_hanging_oracle_times_out(self, monkeypatch):
        def hang(case):
            while True:
                pass

        monkeypatch.setitem(
            oracles_mod._REGISTRY,
            "hang",
            Oracle("hang", "never returns", hang),
        )
        report = run_fuzz(
            FuzzConfig(
                cases=1, oracles=("hang",), shrink=False, oracle_timeout_s=0.2
            )
        )
        assert not report.ok
        assert "timeout" in report.failures[0].detail

    def test_time_limit_raises_and_restores(self):
        with pytest.raises(OracleTimeout):
            with _time_limit(0.05):
                while True:
                    pass
        with _time_limit(5.0):
            pass  # timer cleared, no stray alarm

    def test_reports_are_byte_identical(self):
        config = FuzzConfig(cases=8, seed=7)
        first = run_fuzz(config)
        second = run_fuzz(config)
        assert first.render() == second.render()
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())


class TestFuzzCli:
    def test_pass_run_exits_zero(self, capsys):
        assert main(["fuzz", "--cases", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out

    def test_deterministic_seed_byte_identical(self, capsys):
        assert main(["fuzz", "--cases", "25", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["fuzz", "--cases", "25", "--seed", "7"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.encode() == second.encode()

    def test_unknown_oracle_exits_two(self, capsys):
        assert main(["fuzz", "--oracle", "bogus", "--cases", "1"]) == 2
        assert "unknown oracle" in capsys.readouterr().err

    def test_failures_exit_one_and_fill_corpus(
        self, tmp_path, capsys, monkeypatch
    ):
        real = oracles_mod.compute_uio_table

        def broken(table, max_length, *args, **kwargs):
            if max_length > 1:
                return UioTable(table.name, max_length, {}, frozenset())
            return real(table, max_length, *args, **kwargs)

        monkeypatch.setattr(oracles_mod, "compute_uio_table", broken)
        code = main([
            "fuzz", "--cases", "2", "--oracle", "uio-verify",
            "--corpus", str(tmp_path), "--max-failures", "1",
        ])
        assert code == 1
        assert "FAIL uio-verify" in capsys.readouterr().out
        assert load_corpus(tmp_path)

    def test_json_format(self, capsys):
        assert main(["fuzz", "--cases", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["requested_cases"] == 2

    def test_list_oracles(self, capsys):
        assert main(["fuzz", "--list-oracles"]) == 0
        out = capsys.readouterr().out
        for name in oracle_names():
            assert name in out

    def test_replay_only_mode(self, tmp_path, capsys):
        table = generate_machine(MachineSpec("dense", 3, 1, 1, 4))
        save_failure(tmp_path, "kiss-roundtrip", table, "old bug")
        assert main(["fuzz", "--cases", "0", "--corpus", str(tmp_path)]) == 0
        assert "corpus-replays=1" in capsys.readouterr().out


class TestHypothesisStrategies:
    def test_state_tables_strategy_importable_and_bounded(self):
        from hypothesis import find

        from repro.fuzz.strategies import machine_specs, state_tables

        spec = find(machine_specs(), lambda s: True)
        assert spec.variant in MACHINE_VARIANTS
        table = find(
            state_tables(min_states=2, max_states=4, min_inputs=1, min_outputs=1),
            lambda t: True,
        )
        assert 2 <= table.n_states <= 4
        assert table.n_inputs >= 1
