"""Unit tests for the sequential fault simulator: the interpreted reference
and its agreement with the dispatched production engine."""

from __future__ import annotations

import re

import pytest

from repro.benchmarks import load_circuit, load_kiss_machine
from repro.core.baseline import per_transition_tests
from repro.core.generator import generate_tests
from repro.errors import FaultSimulationError
from repro.gatelevel.bridging import BridgeKind, BridgingFault, enumerate_bridging_faults
from repro.gatelevel.detectability import detectable_faults
from repro.gatelevel.dispatch import make_fault_simulator
from repro.gatelevel.fault_sim import InterpretedSimulator, detects, simulate_tests
from repro.gatelevel.ppsfp import PpsfpSimulator
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
    """The dispatched production simulator against the interpreted one."""

    @pytest.mark.parametrize("name", ["lion", "bbtas", "dk512", "beecount"])
    def test_compiled_matches_interpreted(self, name):
        table = load_circuit(name)
        circuit = ScanCircuit.from_machine(
            load_kiss_machine(name), SynthesisOptions(max_fanin=4)
        )
        faults = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        faults += enumerate_bridging_faults(circuit.netlist, limit=40)
        simulator = make_fault_simulator(circuit, table, faults)
        tests = generate_tests(table).test_set
        for test in list(tests)[:10]:
            production = simulator.detects(test)
            interpreted = detects(circuit, table, test, faults)
            assert production == frozenset(interpreted), str(test)

    def test_detect_mask_bit_mapping(self, lion_setup):
        table, circuit, tests = lion_setup
        faults = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        simulator = InterpretedSimulator(circuit, table, faults)
        test = tests.by_decreasing_length()[0]
        mask = simulator.detect_mask(test)
        expected = simulator.detects(test)
        reconstructed = {
            faults[bit] for bit in range(len(faults)) if (mask >> bit) & 1
        }
        assert reconstructed == set(expected)

    def test_empty_universe_rejected(self, lion_setup):
        table, circuit, _ = lion_setup
        with pytest.raises(FaultSimulationError):
            InterpretedSimulator(circuit, table, [])


class TestInterpretedSimulator:
    def test_fault_bit_order_matches_input_order(self, lion_setup):
        table, circuit, _ = lion_setup
        faults = [
            StuckAtFault(0, None, 1),
            StuckAtFault(1, None, 0),
            StuckAtFault(2, None, 1),
        ]
        simulator = InterpretedSimulator(circuit, table, faults)
        assert simulator.faults == faults

    def test_width_matches_universe(self, lion_setup):
        table, circuit, tests = lion_setup
        faults = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        simulator = InterpretedSimulator(circuit, table, faults)
        assert simulator._batch.ones == (1 << len(faults)) - 1
        assert all(mask >> len(faults) == 0
                   for mask in simulator.detect_masks(list(tests)))

    def test_detects_roundtrip_with_mask(self, lion_setup):
        table, circuit, tests = lion_setup
        faults = sorted(set(collapse_stuck_at(circuit.netlist).values()))[:10]
        simulator = InterpretedSimulator(circuit, table, faults)
        test = tests.tests[1]
        mask = simulator.detect_mask(test)
        assert mask >> len(faults) == 0
        assert simulator.detects(test) == frozenset(
            faults[bit] for bit in range(len(faults)) if (mask >> bit) & 1
        )
        assert simulator.detect_masks(list(tests)) == [
            simulator.detect_mask(each) for each in tests
        ]


class TestSingleFaultAgainstScalarModel:
    """Single-fault runs of the interpreted reference vs hand-computed
    expectations."""

    def test_state_input_stuck_detected_by_any_test_from_other_state(
        self, lion_setup
    ):
        table, circuit, tests = lion_setup
        # y0 (MSB of the state code) stuck at 1.
        y0 = circuit.circuit.state_input_lines[0]
        fault = StuckAtFault(y0, None, 1)
        simulator = InterpretedSimulator(circuit, table, [fault])
        # τ0 scans in state 0 (code 00): the machine behaves as state 2
        # (code 10) immediately: outputs differ at the first vector
        # (state 0 emits 0 under input 00, state 2 emits 1).
        assert simulator.detect_mask(tests.tests[0]) == 1

    def test_fault_free_bits_never_fire(self, lion_setup):
        table, circuit, tests = lion_setup
        simulator = InterpretedSimulator(circuit, table, [StuckAtFault(0, None, 1)])
        for test in tests:
            assert simulator.detect_mask(test) in (0, 1)

    def test_and_vs_or_bridge_differ(self, lion_setup):
        table, circuit, tests = lion_setup
        pairs = enumerate_bridging_faults(circuit.netlist)
        assert pairs
        line1, line2 = pairs[0].line1, pairs[0].line2
        and_fault = BridgingFault(line1, line2, BridgeKind.AND)
        or_fault = BridgingFault(line1, line2, BridgeKind.OR)
        simulator = InterpretedSimulator(circuit, table, [and_fault, or_fault])
        masks = simulator.detect_masks(list(tests))
        # The two polarities are different faults: on lion's first pair some
        # test detects exactly one of them.
        assert any(mask in (0b01, 0b10) for mask in masks)


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


class TestSitesOffTheNetlist:
    """A fault that is not a site of the netlist is refused, by name, by
    the one site encoder both engines read, and a stuck-at one by the
    collapse too."""

    @staticmethod
    def _assert_refused(lion_setup, fault):
        table, circuit, _ = lion_setup
        # A valid fault first: the error names the one that is not a site.
        faults = [StuckAtFault(0, None, 1), fault]
        for engine in (PpsfpSimulator, InterpretedSimulator):
            with pytest.raises(FaultSimulationError, match=re.escape(fault.site())):
                engine(circuit, table, faults)
        if isinstance(fault, StuckAtFault):
            with pytest.raises(FaultSimulationError, match="not a site"):
                collapse_stuck_at(circuit.netlist, faults)

    def test_gate_off_the_netlist(self, lion_setup):
        self._assert_refused(lion_setup, StuckAtFault(10**6, None, 0))

    def test_gate_past_int64(self, lion_setup):
        self._assert_refused(lion_setup, StuckAtFault(10**30, None, 0))

    def test_pin_past_the_gates_own_fanins(self, lion_setup):
        netlist = lion_setup[1].netlist
        gate = next(g.index for g in netlist.gates if g.n_fanins == 2)
        # Pin 3 is inside the netlist's widest gate, not inside this one.
        assert max(g.n_fanins for g in netlist.gates) > 3
        self._assert_refused(lion_setup, StuckAtFault(gate, 3, 0))

    def test_pin_of_an_input(self, lion_setup):
        line = lion_setup[1].netlist.inputs[0]
        self._assert_refused(lion_setup, StuckAtFault(line, 0, 1))

    def test_bridge_off_the_netlist(self, lion_setup):
        netlist = lion_setup[1].netlist
        gate = next(g.index for g in netlist.gates if g.n_fanins == 2)
        self._assert_refused(lion_setup, BridgingFault(gate, 10**6, BridgeKind.AND))
