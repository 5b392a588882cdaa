"""Unit tests for the transition-delay fault model.

The simulator reads capture verdicts off the stuck-at detection masks of
the per-transition tests.  The cycle-by-cycle simulator it was first
written as, which re-evaluates the slow line's fanout cone at every
launch/capture pair, is kept here as its reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.benchmarks import load_circuit, load_kiss_machine
from repro.core.baseline import per_transition_tests
from repro.core.generator import generate_tests
from repro.errors import FaultSimulationError
from repro.gatelevel.delay import (
    DelaySimResult,
    TransitionDelayFault,
    enumerate_transition_delay_faults,
    simulate_delay_faults,
)
from repro.gatelevel.netlist import ALL_ONES, _evaluate_gate
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.synthesis import SynthesisOptions


def _cone_diff(netlist, values, line, forced, observed):
    """Does forcing ``line`` to ``forced`` change any observed line?"""
    local = {line: forced}
    for index in netlist.fanout_closure([line]):
        if index == line:
            continue
        gate = netlist.gate(index)
        fanin_values = [local.get(fanin, values[fanin]) for fanin in gate.fanins]
        local[index] = _evaluate_gate(gate.kind, fanin_values)
    return any(
        out_line in local and bool(np.any(local[out_line] ^ values[out_line]))
        for out_line in observed
    )


def reference_delay(circuit, table, tests):
    """At every launch/capture pair, evaluate the netlist at both patterns
    and detect each launched fault whose line, frozen at its launch value,
    changes a next-state or output line of the capture cycle."""
    netlist = circuit.netlist
    remaining = dict.fromkeys(enumerate_transition_delay_faults(netlist))
    detected = set()
    n_pairs = 0
    one = np.uint64(1)
    for test in tests:
        state, previous = test.initial_state, None
        for combo in test.inputs:
            values = netlist.evaluate(circuit._input_words(state, combo))
            if previous is not None:
                n_pairs += 1
                for fault in list(remaining):
                    old = int(previous[fault.line, 0] & one)
                    new = int(values[fault.line, 0] & one)
                    if (old, new) != ((0, 1) if fault.rising else (1, 0)):
                        continue
                    forced = np.full(1, ALL_ONES if old else 0, dtype=np.uint64)
                    if _cone_diff(netlist, values, fault.line, forced, netlist.outputs):
                        detected.add(fault)
                        del remaining[fault]
            previous = values
            state, _ = table.step(state, combo)
    return DelaySimResult(frozenset(detected), frozenset(remaining), n_pairs)


@pytest.fixture(scope="module")
def lion_circuit(request):
    table = load_circuit("lion")
    circuit = ScanCircuit.from_machine(
        load_kiss_machine("lion"), SynthesisOptions(max_fanin=4)
    )
    return table, circuit


class TestEnumeration:
    def test_two_faults_per_line(self, lion_circuit):
        _, circuit = lion_circuit
        faults = enumerate_transition_delay_faults(circuit.netlist)
        lines = {fault.line for fault in faults}
        assert len(faults) == 2 * len(lines)
        assert all(
            TransitionDelayFault(line, False) in faults
            and TransitionDelayFault(line, True) in faults
            for line in lines
        )

    def test_site_labels(self):
        assert TransitionDelayFault(4, True).site() == "g4/str"
        assert TransitionDelayFault(4, False).site() == "g4/stf"


class TestBaselineHasNoAtSpeedCoverage:
    def test_length_one_tests_detect_nothing(self, lion_circuit):
        """The paper's motivation: separate per-transition tests are never
        at speed, so transition-delay coverage is exactly zero."""
        table, circuit = lion_circuit
        baseline = per_transition_tests(table)
        result = simulate_delay_faults(circuit, table, baseline)
        assert result.n_at_speed_pairs == 0
        assert not result.detected
        assert result.coverage_pct == 0.0


class TestChainedTestsDetectDelayFaults:
    def test_functional_tests_provide_pairs_and_coverage(self, lion_circuit):
        table, circuit = lion_circuit
        tests = generate_tests(table).test_set
        result = simulate_delay_faults(circuit, table, tests)
        # Σ (length - 1) over τ0..τ8 = 28 - 9 = 19 launch/capture pairs.
        assert result.n_at_speed_pairs == 19
        assert result.detected  # strictly better than the baseline's zero
        assert 0.0 < result.coverage_pct <= 100.0

    def test_longer_chains_never_hurt(self, lion_circuit):
        """Adding tests can only grow the detected set."""
        table, circuit = lion_circuit
        tests = list(generate_tests(table).test_set)
        partial = simulate_delay_faults(circuit, table, tests[:3])
        full = simulate_delay_faults(circuit, table, tests)
        assert partial.detected <= full.detected

    def test_detection_requires_launch(self, lion_circuit):
        """A fault on a line that never toggles in the right direction
        during any at-speed pair stays undetected."""
        table, circuit = lion_circuit
        tests = generate_tests(table).test_set
        result = simulate_delay_faults(circuit, table, tests)
        # verify consistency: detected + undetected = universe
        universe = set(enumerate_transition_delay_faults(circuit.netlist))
        assert set(result.detected) | set(result.undetected) == universe
        assert not set(result.detected) & set(result.undetected)

    def test_pairs_do_not_depend_on_the_fault_list(self, lion_circuit):
        """Every test's pairs count, also after the listed faults are all
        detected."""
        table, circuit = lion_circuit
        tests = generate_tests(table).test_set
        first = min(simulate_delay_faults(circuit, table, tests).detected)
        result = simulate_delay_faults(circuit, table, tests, [first])
        assert result.detected == {first}
        assert result.n_at_speed_pairs == 19

    def test_explicit_fault_subset(self, lion_circuit):
        table, circuit = lion_circuit
        tests = generate_tests(table).test_set
        some = enumerate_transition_delay_faults(circuit.netlist)[:6]
        result = simulate_delay_faults(circuit, table, tests, some)
        assert result.n_faults == 6

    def test_bad_fault_line_rejected(self, lion_circuit):
        table, circuit = lion_circuit
        tests = generate_tests(table).test_set
        with pytest.raises(FaultSimulationError):
            simulate_delay_faults(
                circuit, table, tests, [TransitionDelayFault(9999, True)]
            )


class TestMatchesConeReference:
    @pytest.mark.parametrize("kind", ["chained", "per-transition"])
    def test_same_result(self, reference_circuit, kind):
        table, circuit = reference_circuit
        if kind == "chained":
            tests = generate_tests(table).test_set
        else:
            tests = per_transition_tests(table)
        result = simulate_delay_faults(circuit, table, tests)
        assert result == reference_delay(circuit, table, tests)


class TestAcrossCircuits:
    @pytest.mark.parametrize("name", ["bbtas", "dk512", "beecount"])
    def test_chained_beats_baseline_everywhere(self, name):
        table = load_circuit(name)
        circuit = ScanCircuit.from_machine(
            load_kiss_machine(name), SynthesisOptions(max_fanin=4)
        )
        chained = simulate_delay_faults(
            circuit, table, generate_tests(table).test_set
        )
        baseline = simulate_delay_faults(
            circuit, table, per_transition_tests(table)
        )
        assert baseline.coverage_pct == 0.0
        assert chained.coverage_pct > baseline.coverage_pct
