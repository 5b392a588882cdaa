"""Section 3 remark: gate-level stuck-at ATPG vs the functional tests.

    "A gate-level stuck-at test generation procedure applied to the
    full-scan circuits may yield numbers of tests and numbers of clock
    cycles that are better than the ones of Tables 6 and 7.  However, it
    is not guaranteed to detect all the bridging faults."

Per circuit: run the idealized stuck-at ATPG (perfect detection knowledge,
greedy minimum cover — an upper bound on real ATPG quality), then grade its
tests against the bridging universe and compare with the functional tests,
which provably detect every detectable bridging fault.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

import pytest

from repro.benchmarks import circuit_names, load_circuit, load_kiss_machine
from repro.core.baseline import per_transition_tests
from repro.core.generator import generate_tests
from repro.gatelevel.atpg import generate_stuck_at_atpg
from repro.gatelevel.bridging import enumerate_bridging_faults
from repro.gatelevel.dispatch import detection_masks
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import collapse_stuck_at
from repro.gatelevel.synthesis import SynthesisOptions

CIRCUITS = sorted(circuit_names("small"))


def _detected(circuit, table, faults, tests) -> int:
    """The faults (bit ``i`` is ``faults[i]``) some test of ``tests`` detects."""
    return reduce(or_, detection_masks(circuit, table, faults, list(tests)), 0)


@pytest.mark.parametrize("name", CIRCUITS)
def test_atpg_vs_functional_bridging(benchmark, name):
    table = load_circuit(name)
    circuit = ScanCircuit.from_machine(
        load_kiss_machine(name), SynthesisOptions(max_fanin=4)
    )

    def run():
        stuck = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        atpg = generate_stuck_at_atpg(circuit, table, stuck)
        functional = generate_tests(table)
        bridging = enumerate_bridging_faults(circuit.netlist, limit=200, seed=name)
        if not bridging:
            return atpg, functional, None, None, None
        # The per-transition tests apply every assigned pattern, so they
        # detect exactly the detectable bridges.
        detectable = _detected(circuit, table, bridging, per_transition_tests(table))
        atpg_hits = _detected(circuit, table, bridging, atpg.test_set)
        functional_hits = _detected(circuit, table, bridging, functional.test_set)
        return atpg, functional, detectable, atpg_hits, functional_hits

    atpg, functional, detectable, atpg_hits, functional_hits = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    # ATPG covers faults with patterns; bounded by the pattern space.
    assert 0 < atpg.n_tests <= table.n_transitions
    if detectable is None:
        pytest.skip("no qualifying bridging pairs on this netlist")
    # The functional tests detect every detectable bridging fault; the
    # stuck-at ATPG is not guaranteed to (and must never do better).
    assert functional_hits == detectable
    assert atpg_hits.bit_count() <= functional_hits.bit_count()
