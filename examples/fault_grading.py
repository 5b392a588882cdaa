#!/usr/bin/env python
"""Full gate-level fault grading of functional tests (paper Tables 3/6/7).

Runs the complete evaluation pipeline on one benchmark:

* synthesize a multi-level full-scan implementation,
* enumerate collapsed stuck-at faults and paper-condition bridging faults,
* prove which faults are detectable at all (exhaustive combinational oracle),
* fault-simulate the functional tests longest-first with fault dropping,
* keep only the *effective* tests and compare three test-application costs:
  per-transition baseline, all functional tests, effective subset only.

Also cross-grades the explicit single state-transition fault model, closing
the loop between the functional fault model and the gate-level one.

Run:  python examples/fault_grading.py [circuit]
"""

import sys

from repro import generate_tests, load_circuit, load_kiss_machine
from repro.core.compaction import select_effective_tests
from repro.core.faultmodel import sample_faults, simulate_functional_faults
from repro.core.testset import baseline_clock_cycles
from repro.gatelevel.bridging import enumerate_bridging_faults
from repro.gatelevel.detectability import detectable_faults
from repro.gatelevel.dispatch import detection_masks
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import collapse_stuck_at
from repro.gatelevel.synthesis import SynthesisOptions


def grade(name: str) -> None:
    table = load_circuit(name)
    result = generate_tests(table)
    circuit = ScanCircuit.from_machine(
        load_kiss_machine(name), SynthesisOptions(max_fanin=4)
    )
    circuit.verify_against(table)
    print(f"circuit {name}: {circuit.netlist.n_gates} gates, "
          f"{result.n_tests} functional tests")
    print()

    universes = {
        "stuck-at": sorted(set(collapse_stuck_at(circuit.netlist).values())),
        "bridging": enumerate_bridging_faults(circuit.netlist, limit=500, seed=name),
    }
    effective_cycles = {}
    for label, faults in universes.items():
        if not faults:
            print(f"{label}: no qualifying faults on this netlist")
            continue
        detectable, undetectable = detectable_faults(circuit.netlist, faults)
        # One detection mask per test, simulated in byte-budgeted chunks.
        tests = list(result.test_set)
        masks = dict(zip(tests, detection_masks(circuit, table, faults, tests)))

        def simulate(test, remaining, faults=faults, masks=masks):
            mask = masks[test]
            return {f for bit, f in enumerate(faults) if mask >> bit & 1} & remaining

        selection = select_effective_tests(
            result.test_set, simulate, faults, stop_when_exhausted=undetectable
        )
        complete = selection.detected == frozenset(detectable)
        print(f"{label} faults: {len(faults)} total, "
              f"{len(undetectable)} provably undetectable (redundant)")
        print(f"  coverage: {selection.coverage_pct:.2f}% "
              f"({'all detectable faults detected' if complete else 'INCOMPLETE'})")
        print(f"  effective tests: {selection.n_effective} of {result.n_tests} "
              f"(total length {selection.effective_length})")
        effective_cycles[label] = selection.effective.clock_cycles()
        print()

    base = baseline_clock_cycles(table.n_state_variables, table.n_transitions)
    funct = result.clock_cycles()
    print("test application time (clock cycles):")
    print(f"  per-transition baseline : {base:8d}  100.00%")
    print(f"  all functional tests    : {funct:8d}  {100.0*funct/base:6.2f}%")
    for label, cycles in effective_cycles.items():
        print(f"  {label} effective only ".ljust(26) +
              f": {cycles:8d}  {100.0*cycles/base:6.2f}%")
    print()

    st_faults = sample_faults(table, 100, seed=name)
    st_result = simulate_functional_faults(table, result.test_set, st_faults)
    print(f"explicit state-transition faults (sampled {st_result.n_faults}): "
          f"{st_result.coverage_pct:.2f}% detected")


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "beecount"
    grade(name)


if __name__ == "__main__":
    main()
