"""State-assignment (encoding) tests across the gate-level stack.

The functional tests are implementation-independent; switching the state
assignment from natural to Gray changes the synthesized logic and its fault
universe, but never the behaviour nor the complete-coverage result.  These
tests drive every encoding-aware component end to end.
"""

from __future__ import annotations

import pytest

from repro.benchmarks import load_circuit, load_kiss_machine
from repro.core.generator import generate_tests
from repro.errors import SynthesisError
from repro.fsm.encoding import gray_encoding
from repro.gatelevel.atpg import generate_stuck_at_atpg
from repro.gatelevel.detectability import assigned_pattern_mask, detectable_faults
from repro.gatelevel.dispatch import make_fault_simulator
from repro.gatelevel.fault_sim import detects, simulate_tests
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import collapse_stuck_at
from repro.gatelevel.synthesis import SynthesisOptions

CIRCUITS = ["lion", "bbtas", "dk512"]


class TestGrayEncoding:
    def test_codes_are_gray(self, lion):
        encoding = gray_encoding(lion)
        assert encoding.codes == (0b00, 0b01, 0b11, 0b10)
        for first, second in zip(encoding.codes, encoding.codes[1:]):
            assert bin(first ^ second).count("1") == 1

    def test_bad_encoding_name_rejected(self):
        with pytest.raises(SynthesisError):
            SynthesisOptions(encoding="one-hot")


class TestGrayGateLevel:
    @pytest.mark.parametrize("name", CIRCUITS)
    def test_gray_circuit_equivalent_to_table(self, name):
        table = load_circuit(name)
        circuit = ScanCircuit.from_machine(
            load_kiss_machine(name), SynthesisOptions(encoding="gray", max_fanin=4)
        )
        circuit.verify_against(table)

    @pytest.mark.parametrize("name", CIRCUITS)
    def test_step_returns_state_indices(self, name):
        table = load_circuit(name)
        circuit = ScanCircuit.from_machine(
            load_kiss_machine(name), SynthesisOptions(encoding="gray")
        )
        for state in range(table.n_states):
            for combo in range(table.n_input_combinations):
                assert circuit.step(state, combo) == table.step(state, combo)

    def test_encodings_change_the_logic(self):
        natural = ScanCircuit.from_machine(
            load_kiss_machine("bbtas"), SynthesisOptions(max_fanin=4)
        )
        gray = ScanCircuit.from_machine(
            load_kiss_machine("bbtas"),
            SynthesisOptions(encoding="gray", max_fanin=4),
        )
        assert natural.encoding.codes != gray.encoding.codes

    @pytest.mark.parametrize("name", CIRCUITS)
    def test_functional_tests_cover_gray_implementation_too(self, name):
        """The same functional test set achieves complete detectable
        coverage on the Gray-encoded implementation — implementation
        independence, across state assignments."""
        table = load_circuit(name)
        tests = generate_tests(table).test_set
        circuit = ScanCircuit.from_machine(
            load_kiss_machine(name),
            SynthesisOptions(encoding="gray", max_fanin=4),
        )
        faults = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        mask = assigned_pattern_mask(circuit.encoding, circuit.n_primary_inputs)
        detectable, _ = detectable_faults(
            circuit.netlist, faults, pattern_mask=mask
        )
        result = simulate_tests(circuit, table, tests, sorted(detectable))
        assert result.detected == frozenset(detectable)

    def test_compiled_matches_interpreted_under_gray(self):
        """The dispatched production simulator agrees with the interpreted
        one under a Gray state encoding."""
        table = load_circuit("lion")
        circuit = ScanCircuit.from_machine(
            load_kiss_machine("lion"),
            SynthesisOptions(encoding="gray", max_fanin=4),
        )
        faults = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        simulator = make_fault_simulator(circuit, table, faults)
        for test in generate_tests(table).test_set:
            assert simulator.detects(test) == frozenset(
                detects(circuit, table, test, faults)
            )

    def test_atpg_under_gray_encoding(self):
        table = load_circuit("lion")
        circuit = ScanCircuit.from_machine(
            load_kiss_machine("lion"), SynthesisOptions(encoding="gray")
        )
        faults = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        atpg = generate_stuck_at_atpg(circuit, table, faults)
        sim = simulate_tests(
            circuit, table, atpg.test_set, list(atpg.target_faults)
        )
        assert sim.detected == frozenset(atpg.target_faults)


class TestAssignedPatternMask:
    def test_mask_selects_assigned_codes_only(self, lion):
        from repro.gatelevel.netlist import unpack_bits

        encoding = gray_encoding(lion)
        mask = assigned_pattern_mask(encoding, lion.n_inputs)
        bits = unpack_bits(mask, 1 << (encoding.width + lion.n_inputs))
        for pattern, selected in enumerate(bits):
            code = pattern >> lion.n_inputs
            assert bool(selected) == (code in encoding.codes)
