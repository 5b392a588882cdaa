"""Unit tests for FSM-to-gates synthesis and the scan circuit wrapper."""

from __future__ import annotations

import pytest

from repro.benchmarks import circuit_names, load_circuit, load_kiss_machine
from repro.errors import SynthesisError
from repro.fsm.kiss import parse_kiss
from repro.gatelevel.netlist import GateType
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.synthesis import SynthesisOptions, synthesize

SMALL = sorted(circuit_names("small"))

#: A machine whose second output is 0 in every row: synthesis drives it
#: from a CONST0 generator.
UNDRIVEN_OUTPUT = """\
.i 1
.o 2
.s 2
0 a a 00
1 a b 10
0 b a 10
1 b b 00
"""


def test_gate_library_is_what_synthesis_emits():
    """Every gate kind is emitted by synthesis, and synthesis emits no
    other: a kind nothing synthesizes would be code no pipeline runs."""
    machines = [load_kiss_machine(name) for name in circuit_names()]
    machines.append(parse_kiss(UNDRIVEN_OUTPUT, name="undriven"))
    emitted = set()
    for machine in machines:
        netlist = synthesize(machine, SynthesisOptions(max_fanin=4)).netlist
        emitted.update(gate.kind for gate in netlist.gates)
    assert emitted == set(GateType)


class TestSynthesize:
    @pytest.mark.parametrize("name", SMALL)
    def test_equivalence_small_tier(self, name):
        table = load_circuit(name)
        circuit = ScanCircuit.from_machine(load_kiss_machine(name))
        circuit.verify_against(table)  # raises on any disagreement

    @pytest.mark.parametrize("max_fanin", [None, 2, 4])
    def test_fanin_bound_respected(self, max_fanin):
        result = synthesize(
            load_kiss_machine("bbtas"), SynthesisOptions(max_fanin=max_fanin)
        )
        if max_fanin is not None:
            for gate in result.netlist.gates:
                assert gate.n_fanins <= max_fanin

    @pytest.mark.parametrize("max_fanin", [2, 3, 4])
    def test_decomposition_preserves_function(self, max_fanin):
        table = load_circuit("beecount")
        circuit = ScanCircuit.from_machine(
            load_kiss_machine("beecount"), SynthesisOptions(max_fanin=max_fanin)
        )
        circuit.verify_against(table)

    def test_dense_table_input_accepted(self, lion):
        circuit = ScanCircuit.from_machine(lion)
        circuit.verify_against(lion)

    def test_merge_adjacent_reduces_gates(self, lion):
        merged = synthesize(lion, SynthesisOptions(merge_adjacent=True))
        unmerged = synthesize(lion, SynthesisOptions(merge_adjacent=False))
        assert merged.netlist.n_gates <= unmerged.netlist.n_gates

    def test_interface_lines(self, lion_kiss):
        result = synthesize(lion_kiss)
        assert len(result.state_input_lines) == 2
        assert len(result.primary_input_lines) == 2
        assert len(result.next_state_lines) == 2
        assert len(result.primary_output_lines) == 1

    def test_bad_fanin_option_rejected(self):
        with pytest.raises(SynthesisError):
            SynthesisOptions(max_fanin=1)


class TestScanCircuit:
    def test_step_matches_table(self, lion):
        circuit = ScanCircuit.from_machine(lion)
        assert circuit.step(2, 0b11) == lion.step(2, 0b11)

    def test_run_test_matches_functional_replay(self, lion, lion_result):
        circuit = ScanCircuit.from_machine(lion)
        for test in lion_result.test_set:
            final, outputs = circuit.run_test(test)
            expected_final, expected_outputs = test.replay(lion)
            assert final == expected_final
            assert outputs == expected_outputs

    def test_out_of_range_state_rejected(self, lion):
        circuit = ScanCircuit.from_machine(lion)
        with pytest.raises(SynthesisError):
            circuit.step(4, 0)
        with pytest.raises(SynthesisError):
            circuit.step(0, 4)

    def test_verify_against_catches_wrong_machine(self, lion, toggle):
        circuit = ScanCircuit.from_machine(toggle)
        with pytest.raises(SynthesisError):
            circuit.verify_against(lion)

    def test_repr(self, lion):
        assert "gates" in repr(ScanCircuit.from_machine(lion))
