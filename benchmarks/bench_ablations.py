"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each benchmark measures one mechanism with-vs-without and asserts the
direction of the effect:

* the postpone rule (don't start tests with UIO-less next states),
* input equivalence-class representatives in the UIO search,
* adjacency cube merging before synthesis,
* the PPSFP table fault simulator vs the interpreted reference,
* partial UIO sets (the paper's unexplored option) vs plain generation.
"""

from __future__ import annotations

import time

import pytest

from repro.benchmarks import load_circuit, load_kiss_machine
from repro.core.config import GeneratorConfig
from repro.core.coverage import verify_test_set
from repro.core.generator import generate_tests
from repro.gatelevel.fault_sim import detects
from repro.gatelevel.ppsfp import PpsfpSimulator
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import collapse_stuck_at
from repro.gatelevel.synthesis import SynthesisOptions, synthesize
from repro.uio.search import find_uio, input_class_representatives


class TestPostponeRuleAblation:
    @pytest.mark.parametrize("name", ["lion", "dk512", "ex3", "train11"])
    def test_postpone_rule_reduces_length_one_tests(self, benchmark, name):
        table = load_circuit(name)

        def run_both():
            with_rule = generate_tests(
                table, GeneratorConfig(postpone_no_uio_starts=True)
            )
            without = generate_tests(
                table, GeneratorConfig(postpone_no_uio_starts=False)
            )
            return with_rule, without

        with_rule, without = benchmark.pedantic(run_both, rounds=1, iterations=1)
        # Both complete; the rule never *increases* the length-1 population.
        assert verify_test_set(table, with_rule.test_set).is_complete
        assert verify_test_set(table, without.test_set).is_complete
        assert with_rule.test_set.n_length_one <= without.test_set.n_length_one


class TestInputClassAblation:
    @staticmethod
    def _lifted_machine(extra_inputs: int = 4):
        """``ex3`` lifted to ``pi + extra`` inputs that the logic ignores.

        Machines whose transitions do not depend on some inputs (ubiquitous
        in real KISS benchmarks, where rows carry '-' positions) have many
        identical table columns; the UIO search only needs one
        representative per distinct column.
        """
        from repro.fsm.kiss import KissMachine, KissRow

        base = load_kiss_machine("ex3")
        rows = [
            KissRow(row.input_cube + "-" * extra_inputs, row.present, row.next,
                    row.output_cube)
            for row in base.rows
        ]
        lifted = KissMachine(
            base.n_inputs + extra_inputs, base.n_outputs, rows,
            base.reset_state, "ex3-lifted",
        )
        return lifted.to_state_table()

    def test_representatives_collapse_ignored_inputs(self, benchmark):
        table = self._lifted_machine()
        reps = input_class_representatives(table)
        base = load_circuit("ex3")
        # 2**4 copies of every base column collapse to one representative.
        assert len(reps) == len(input_class_representatives(base))
        assert table.n_input_combinations == 16 * base.n_input_combinations

        def with_reps():
            return [find_uio(table, s, 3) for s in range(table.n_states)]

        lifted = benchmark.pedantic(with_reps, rounds=1, iterations=1)
        # The search expands one child per class, so it is the base
        # machine's search with every input moved past the 4 ignored bits:
        # without the classes it would expand 16 children per node.
        expected = [find_uio(base, s, 3) for s in range(base.n_states)]
        assert [None if seq is None else seq.inputs for seq in lifted] == [
            None if seq is None else tuple(combo << 4 for combo in seq.inputs)
            for seq in expected
        ]


class TestCubeMergingAblation:
    @pytest.mark.parametrize("name", ["lion", "bbtas", "dk512"])
    def test_merging_shrinks_netlists(self, benchmark, name):
        machine = load_kiss_machine(name)

        def run_both():
            merged = synthesize(machine, SynthesisOptions(merge_adjacent=True))
            unmerged = synthesize(machine, SynthesisOptions(merge_adjacent=False))
            return merged, unmerged

        merged, unmerged = benchmark.pedantic(run_both, rounds=1, iterations=1)
        assert merged.netlist.n_gates <= unmerged.netlist.n_gates
        # Both must stay functionally correct.
        table = load_circuit(name)
        ScanCircuit(merged, name).verify_against(table)
        ScanCircuit(unmerged, name).verify_against(table)


class TestPpsfpSimulatorAblation:
    def test_ppsfp_beats_interpreted(self, benchmark):
        name = "beecount"
        table = load_circuit(name)
        circuit = ScanCircuit.from_machine(
            load_kiss_machine(name), SynthesisOptions(max_fanin=4)
        )
        faults = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        tests = list(generate_tests(table).test_set)[:8]

        def ppsfp_run():
            # The table build is the PPSFP engine's cost: time it too.
            simulator = PpsfpSimulator(circuit, table, faults)
            return [simulator.detects(test) for test in tests]

        ppsfp_results = benchmark.pedantic(ppsfp_run, rounds=1, iterations=1)
        started = time.perf_counter()
        interpreted_results = [
            frozenset(detects(circuit, table, test, faults)) for test in tests
        ]
        interpreted_elapsed = time.perf_counter() - started
        assert ppsfp_results == interpreted_results
        assert interpreted_elapsed > 0.0


class TestPartialUioAblation:
    @pytest.mark.parametrize("name", ["lion", "lion9", "train11"])
    def test_partial_sets_extend_chains(self, benchmark, name):
        """With partial UIO sets, transitions into UIO-less states can keep
        a chain alive, trading extra vectors for fewer scans."""
        table = load_circuit(name)

        def run_both():
            plain = generate_tests(table, GeneratorConfig())
            partial = generate_tests(table, GeneratorConfig(use_partial_uio=True))
            return plain, partial

        plain, partial = benchmark.pedantic(run_both, rounds=1, iterations=1)
        assert verify_test_set(table, partial.test_set).is_complete
        assert partial.n_tests <= plain.n_tests


class TestEncodingAblation:
    @pytest.mark.parametrize("name", ["lion", "bbtas", "dk512"])
    def test_state_assignment_changes_logic_not_coverage(self, benchmark, name):
        """Natural vs Gray assignment: different netlists and fault
        universes, identical functional behaviour, and the same complete
        detectable-fault coverage from the same test set."""
        from repro.gatelevel.detectability import (
            assigned_pattern_mask,
            detectable_faults,
        )
        from repro.gatelevel.fault_sim import simulate_tests

        table = load_circuit(name)
        tests = generate_tests(table).test_set

        def run_both():
            outcomes = {}
            for encoding in ("natural", "gray"):
                circuit = ScanCircuit.from_machine(
                    load_kiss_machine(name),
                    SynthesisOptions(encoding=encoding, max_fanin=4),
                )
                circuit.verify_against(table)
                faults = sorted(set(collapse_stuck_at(circuit.netlist).values()))
                mask = assigned_pattern_mask(
                    circuit.encoding, circuit.n_primary_inputs
                )
                detectable, _ = detectable_faults(
                    circuit.netlist, faults, pattern_mask=mask
                )
                sim = simulate_tests(circuit, table, tests, sorted(detectable))
                outcomes[encoding] = (
                    circuit.netlist.n_gates,
                    len(faults),
                    sim.detected == frozenset(detectable),
                )
            return outcomes

        outcomes = benchmark.pedantic(run_both, rounds=1, iterations=1)
        assert outcomes["natural"][2] and outcomes["gray"][2]
