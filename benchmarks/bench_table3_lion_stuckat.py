"""Table 3 benchmark: stuck-at grading of the lion worked example.

Times the full Table 3 pipeline — synthesis, fault collapsing, exhaustive
detectability, longest-first fault simulation with dropping — and asserts
the table's shape: the long tests carry the coverage, the length-1 tests
are (almost) all unnecessary, and every detectable fault falls.
"""

from __future__ import annotations

from repro.benchmarks import load_circuit, load_kiss_machine
from repro.core.compaction import select_effective_tests
from repro.core.generator import generate_tests
from repro.gatelevel.detectability import detectable_faults
from repro.gatelevel.dispatch import make_fault_simulator
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import collapse_stuck_at
from repro.gatelevel.synthesis import SynthesisOptions


def run_table3():
    table = load_circuit("lion")
    tests = generate_tests(table).test_set
    circuit = ScanCircuit.from_machine(
        load_kiss_machine("lion"), SynthesisOptions(max_fanin=4)
    )
    faults = sorted(set(collapse_stuck_at(circuit.netlist).values()))
    detectable, undetectable = detectable_faults(circuit.netlist, faults)
    simulator = make_fault_simulator(circuit, table, faults)
    selection = select_effective_tests(
        tests,
        simulator.make_effective_simulator(),
        faults,
        stop_when_exhausted=undetectable,
    )
    return selection, detectable


def test_lion_table3(benchmark):
    selection, detectable = benchmark(run_table3)
    # All detectable faults are detected (the paper reaches 40/40).
    assert selection.detected == frozenset(detectable)
    # Longest-first order, as the paper simulates.
    lengths = [test.length for test, _, _ in selection.rows]
    assert lengths == sorted(lengths, reverse=True)
    # The multi-transition tests dominate: the four longest tests of the
    # paper's table already reach full coverage; allow the same shape here.
    effective_lengths = [t.length for t in selection.effective]
    assert max(effective_lengths) >= 4
    # Most length-1 tests are not needed.
    ineffective_len1 = sum(
        1 for test, _, eff in selection.rows if test.length == 1 and not eff
    )
    assert ineffective_len1 >= 3
