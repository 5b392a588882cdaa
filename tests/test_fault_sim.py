"""Unit tests for the sequential fault simulator (interpreted + compiled)."""

from __future__ import annotations

import pytest

from repro.benchmarks import load_circuit, load_kiss_machine
from repro.core.baseline import per_transition_tests
from repro.core.generator import generate_tests
from repro.gatelevel.bridging import enumerate_bridging_faults
from repro.gatelevel.compiled import CompiledFaultSimulator
from repro.gatelevel.detectability import detectable_faults
from repro.gatelevel.fault_sim import detects, simulate_tests
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import StuckAtFault, collapse_stuck_at
from repro.gatelevel.synthesis import SynthesisOptions


@pytest.fixture(scope="module")
def lion_setup():
    table = load_circuit("lion")
    circuit = ScanCircuit.from_machine(load_kiss_machine("lion"),
                                       SynthesisOptions(max_fanin=4))
    tests = generate_tests(table).test_set
    return table, circuit, tests


class TestStuckAtDetection:
    def test_input_stuck_detected(self, lion_setup):
        table, circuit, tests = lion_setup
        # State bit y0 stuck at 1: scanning in state 0 then observing must fail.
        fault = StuckAtFault(circuit.circuit.state_input_lines[0], None, 1)
        result = simulate_tests(circuit, table, tests, [fault])
        assert fault in result.detected

    def test_undetectable_faults_stay_undetected(self, lion_setup):
        table, circuit, tests = lion_setup
        reps = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        _, undetectable = detectable_faults(circuit.netlist, reps)
        result = simulate_tests(circuit, table, tests, sorted(undetectable))
        assert not result.detected

    def test_functional_tests_detect_all_detectable(self, lion_setup):
        """The paper's headline claim on the worked example."""
        table, circuit, tests = lion_setup
        reps = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        detectable, _ = detectable_faults(circuit.netlist, reps)
        result = simulate_tests(circuit, table, tests, sorted(detectable))
        assert result.detected == frozenset(detectable)

    def test_baseline_tests_also_detect_all_detectable(self, lion_setup):
        """Length-1 per-transition tests are combinationally exhaustive."""
        table, circuit, _ = lion_setup
        reps = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        detectable, _ = detectable_faults(circuit.netlist, reps)
        baseline = per_transition_tests(table)
        result = simulate_tests(circuit, table, baseline, sorted(detectable))
        assert result.detected == frozenset(detectable)


class TestBridgingDetection:
    def test_bridging_coverage_complete(self, lion_setup):
        table, circuit, tests = lion_setup
        faults = enumerate_bridging_faults(circuit.netlist)
        assert faults, "multi-level lion must expose bridging sites"
        detectable, _ = detectable_faults(circuit.netlist, faults)
        result = simulate_tests(circuit, table, tests, sorted(detectable, key=repr))
        assert result.detected == frozenset(detectable)

    def test_and_bridge_changes_behaviour(self, lion_setup):
        table, circuit, tests = lion_setup
        faults = enumerate_bridging_faults(circuit.netlist)
        detectable, _ = detectable_faults(circuit.netlist, faults)
        # sanity: at least one bridge is detectable on this netlist
        assert detectable


class TestFaultDropping:
    def test_per_test_counts_sum_to_detected(self, lion_setup):
        table, circuit, tests = lion_setup
        reps = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        result = simulate_tests(circuit, table, tests, reps)
        assert sum(result.per_test_new) == len(result.detected)

    def test_no_drop_mode_consistent(self, lion_setup):
        table, circuit, tests = lion_setup
        reps = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        dropped = simulate_tests(circuit, table, tests, reps, drop_detected=True)
        kept = simulate_tests(circuit, table, tests, reps, drop_detected=False)
        assert dropped.detected == kept.detected

    def test_small_batch_bits_equivalent(self, lion_setup, monkeypatch):
        table, circuit, tests = lion_setup
        reps = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        test = tests.by_decreasing_length()[0]
        default = detects(circuit, table, test, reps)
        monkeypatch.setattr("repro.core.config.DEFAULT_BATCH_BITS_CAP", 7)
        assert detects(circuit, table, test, reps) == default


class TestCompiledEquivalence:
    @pytest.mark.parametrize("name", ["lion", "bbtas", "dk512", "beecount"])
    def test_compiled_matches_interpreted(self, name):
        table = load_circuit(name)
        circuit = ScanCircuit.from_machine(
            load_kiss_machine(name), SynthesisOptions(max_fanin=4)
        )
        faults = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        faults += enumerate_bridging_faults(circuit.netlist, limit=40)
        simulator = CompiledFaultSimulator(circuit, table, faults)
        tests = generate_tests(table).test_set
        for test in list(tests)[:10]:
            compiled = simulator.detects(test)
            interpreted = detects(circuit, table, test, faults)
            assert compiled == frozenset(interpreted), str(test)

    def test_detect_mask_bit_mapping(self, lion_setup):
        table, circuit, tests = lion_setup
        faults = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        simulator = CompiledFaultSimulator(circuit, table, faults)
        test = tests.by_decreasing_length()[0]
        mask = simulator.detect_mask(test)
        expected = simulator.detects(test)
        reconstructed = {
            faults[bit] for bit in range(len(faults)) if (mask >> bit) & 1
        }
        assert reconstructed == set(expected)

    def test_empty_universe_rejected(self, lion_setup):
        table, circuit, _ = lion_setup
        from repro.errors import FaultSimulationError

        with pytest.raises(FaultSimulationError):
            CompiledFaultSimulator(circuit, table, [])


class TestPinFaultSemantics:
    def test_pin_fault_affects_only_reader(self):
        """A branch fault on one consumer must not disturb the other branch."""
        # Machine whose synthesized netlist shares a literal across terms is
        # implicitly exercised above; here check the scan-test mechanics on
        # lion against hand-computed behaviour of a single pin fault.
        table = load_circuit("lion")
        circuit = ScanCircuit.from_machine(load_kiss_machine("lion"))
        netlist = circuit.netlist
        # pick a 2+-fanin gate with a multi-fanout fanin
        fanouts = netlist.fanouts()
        choice = None
        for gate in netlist.gates:
            for pin, line in enumerate(gate.fanins):
                if gate.n_fanins >= 2 and len(fanouts[line]) >= 2:
                    choice = (gate.index, pin, line)
                    break
            if choice:
                break
        assert choice is not None
        gate_index, pin, line = choice
        pin_fault = StuckAtFault(gate_index, pin, 0)
        stem_fault = StuckAtFault(line, None, 0)
        tests = generate_tests(table).test_set
        pin_hits = simulate_tests(circuit, table, tests, [pin_fault]).detected
        stem_hits = simulate_tests(circuit, table, tests, [stem_fault]).detected
        # The stem fault must be at least as detectable as its branch fault.
        assert len(stem_hits) >= len(pin_hits)
