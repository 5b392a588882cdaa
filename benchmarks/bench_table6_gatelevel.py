"""Table 6 benchmark: gate-level stuck-at and bridging fault grading.

Per circuit, times the complete grading pipeline and asserts the paper's
headline result: the functional tests detect **every detectable fault** of
both models; sub-100% coverage rows are exactly the provably redundant
faults.
"""

from __future__ import annotations

import pytest

from conftest import gate_level_circuits
from repro.benchmarks import load_circuit, load_kiss_machine
from repro.core.compaction import select_effective_tests
from repro.core.generator import generate_tests
from repro.gatelevel.bridging import enumerate_bridging_faults
from repro.gatelevel.detectability import detectable_faults
from repro.gatelevel.dispatch import detection_masks
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import collapse_stuck_at
from repro.gatelevel.synthesis import SynthesisOptions

BRIDGING_PAIR_LIMIT = 200


def grade(name: str, kind: str):
    table = load_circuit(name)
    tests = generate_tests(table).test_set
    circuit = ScanCircuit.from_machine(
        load_kiss_machine(name), SynthesisOptions(max_fanin=4)
    )
    if kind == "stuck-at":
        faults = sorted(set(collapse_stuck_at(circuit.netlist).values()))
    else:
        faults = enumerate_bridging_faults(
            circuit.netlist, limit=BRIDGING_PAIR_LIMIT, seed=name
        )
    if not faults:
        return None, None
    detectable, undetectable = detectable_faults(circuit.netlist, faults)
    # Chunk by chunk, so REPRO_FULL's over-budget universes grade too.
    masks = dict(zip(tests, detection_masks(circuit, table, faults, list(tests))))

    def simulate(test, remaining):
        mask = masks[test]
        return {fault for bit, fault in enumerate(faults) if mask >> bit & 1} & remaining

    selection = select_effective_tests(
        tests, simulate, faults, stop_when_exhausted=undetectable
    )
    return selection, detectable


@pytest.mark.parametrize("name", gate_level_circuits())
def test_stuck_at_grading(benchmark, name):
    selection, detectable = benchmark.pedantic(
        grade, args=(name, "stuck-at"), rounds=1, iterations=1
    )
    assert selection.detected == frozenset(detectable)
    assert selection.n_effective <= len(selection.rows)


@pytest.mark.parametrize("name", gate_level_circuits())
def test_bridging_grading(benchmark, name):
    selection, detectable = benchmark.pedantic(
        grade, args=(name, "bridging"), rounds=1, iterations=1
    )
    if selection is None:
        pytest.skip("no qualifying bridging pairs on this netlist")
    assert selection.detected == frozenset(detectable)
