"""Property-based tests of the gate-level substrate.

Random machines are synthesized and the whole stack is cross-checked:
netlist vs state table, compiled vs interpreted fault simulation, oracle vs
brute-force detectability.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.baseline import per_transition_tests
from repro.core.generator import generate_tests
from repro.fuzz.strategies import state_tables
from repro.gatelevel.bridging import enumerate_bridging_faults
from repro.gatelevel.compiled import CompiledFaultSimulator
from repro.gatelevel.detectability import assigned_pattern_mask, detectable_faults
from repro.gatelevel.fault_sim import detects, simulate_tests
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import collapse_stuck_at
from repro.gatelevel.synthesis import SynthesisOptions

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def machines():
    """Small machines the gate-level stack can synthesize quickly."""
    return state_tables(
        min_states=2, max_states=5, min_inputs=1, min_outputs=1
    )


class TestSynthesisProperties:
    @SETTINGS
    @given(machines(), st.sampled_from([None, 2, 4]))
    def test_synthesis_equivalent_to_table(self, table, max_fanin):
        circuit = ScanCircuit.from_machine(
            table, SynthesisOptions(max_fanin=max_fanin)
        )
        circuit.verify_against(table)


class TestFaultSimulationProperties:
    @SETTINGS
    @given(machines())
    def test_compiled_equals_interpreted(self, table):
        circuit = ScanCircuit.from_machine(table, SynthesisOptions(max_fanin=4))
        faults = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        faults += enumerate_bridging_faults(circuit.netlist, limit=20)
        if not faults:
            return
        simulator = CompiledFaultSimulator(circuit, table, faults)
        tests = generate_tests(table).test_set
        for test in list(tests)[:5]:
            assert simulator.detects(test) == frozenset(
                detects(circuit, table, test, faults)
            )

    @SETTINGS
    @given(machines())
    def test_detection_is_sound(self, table):
        """Nothing provably undetectable is ever reported detected, and the
        functional tests detect at least what their own length-1 subset
        detects.

        Note the converse — functional tests detect *all* detectable faults
        — is the paper's empirical claim, not a theorem: a gate-level fault
        acts as several simultaneous state-transition faults and can
        corrupt the UIO responses a chained test relies on (the paper's
        Section 2 caveat).  The claim is asserted on the completed
        benchmark machines in test_integration.py, matching the paper's
        experimental setting.
        """
        circuit = ScanCircuit.from_machine(table, SynthesisOptions(max_fanin=4))
        mask = assigned_pattern_mask(circuit.encoding, circuit.n_primary_inputs)
        faults = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        detectable, undetectable = detectable_faults(
            circuit.netlist, faults, pattern_mask=mask
        )
        tests = generate_tests(table).test_set
        result = simulate_tests(circuit, table, tests, faults)
        assert not result.detected & frozenset(undetectable)
        assert result.detected <= frozenset(detectable)

    @SETTINGS
    @given(machines())
    def test_detectability_oracle_equals_baseline_detection(self, table):
        """A fault is reachable-pattern detectable iff the per-transition
        baseline (which applies every reachable pattern with full
        observation) detects it."""
        circuit = ScanCircuit.from_machine(table)
        mask = assigned_pattern_mask(circuit.encoding, circuit.n_primary_inputs)
        faults = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        detectable, _ = detectable_faults(circuit.netlist, faults, pattern_mask=mask)
        baseline = per_transition_tests(table)
        found = set()
        for test in baseline:
            found |= detects(circuit, table, test, faults)
        assert found == detectable
