"""Unit tests for stuck-at fault enumeration and collapsing."""

from __future__ import annotations

import pytest

from repro.errors import FaultSimulationError
from repro.gatelevel.netlist import GateType, Netlist
from repro.gatelevel.stuck_at import (
    StuckAtFault,
    collapse_stuck_at,
    enumerate_stuck_at,
)


def small_netlist():
    """y = (a AND b) OR NOT c, with a fanning out twice."""
    netlist = Netlist()
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    c = netlist.add_input("c")
    t = netlist.add_gate(GateType.AND, (a, b))
    nc = netlist.add_gate(GateType.NOT, (c,))
    y = netlist.add_gate(GateType.OR, (t, nc))
    extra = netlist.add_gate(GateType.AND, (a, nc))
    netlist.set_outputs([y, extra])
    return netlist


class TestEnumerate:
    def test_counts(self):
        netlist = small_netlist()
        faults = enumerate_stuck_at(netlist)
        # outputs: 7 gates * 2; pins: three 2-input gates * 2 pins * 2
        assert len(faults) == 7 * 2 + 3 * 2 * 2

    def test_without_pins(self):
        faults = enumerate_stuck_at(small_netlist(), include_pins=False)
        assert all(fault.pin is None for fault in faults)

    def test_constants_excluded(self):
        netlist = Netlist()
        a = netlist.add_input()
        c0 = netlist.add_gate(GateType.CONST0, ())
        y = netlist.add_gate(GateType.OR, (a, c0))
        netlist.set_outputs([y])
        faults = enumerate_stuck_at(netlist)
        assert all(fault.gate != c0 for fault in faults if fault.pin is None)
        assert StuckAtFault(y, 1, 1) in faults  # its reader's pin still counts

    def test_bad_value_rejected(self):
        with pytest.raises(FaultSimulationError):
            StuckAtFault(0, None, 2)

    def test_site_labels(self):
        assert StuckAtFault(3, None, 1).site() == "g3.out/sa1"
        assert StuckAtFault(3, 0, 0).site() == "g3.pin0/sa0"

    def test_ordering(self):
        assert StuckAtFault(1, None, 0) < StuckAtFault(1, 0, 0)
        assert StuckAtFault(1, None, 1) < StuckAtFault(2, None, 0)


class TestCollapse:
    def test_controlling_pin_folds_into_output(self):
        netlist = small_netlist()
        mapping = collapse_stuck_at(netlist)
        # AND gate 3: pin s-a-0 is equivalent to output s-a-0
        assert mapping[StuckAtFault(3, 0, 0)] == mapping[StuckAtFault(3, None, 0)]
        assert mapping[StuckAtFault(3, 1, 0)] == mapping[StuckAtFault(3, None, 0)]

    def test_or_controlling_value(self):
        netlist = small_netlist()
        mapping = collapse_stuck_at(netlist)
        assert mapping[StuckAtFault(5, 0, 1)] == mapping[StuckAtFault(5, None, 1)]

    def test_non_controlling_pin_not_folded(self):
        netlist = small_netlist()
        mapping = collapse_stuck_at(netlist)
        assert mapping[StuckAtFault(3, 0, 1)] != mapping[StuckAtFault(3, None, 1)]

    def test_fanout_branch_faults_kept_separate(self):
        """Input ``a`` fans out to two gates; its branch faults must stay
        distinct from the stem fault."""
        netlist = small_netlist()
        mapping = collapse_stuck_at(netlist)
        stem = mapping[StuckAtFault(0, None, 1)]
        branch1 = mapping[StuckAtFault(3, 0, 1)]
        branch2 = mapping[StuckAtFault(6, 0, 1)]
        assert stem != branch1 and stem != branch2

    def test_single_fanout_pin_folds_into_stem(self):
        """Input ``b`` feeds only the AND gate: pin fault == stem fault."""
        netlist = small_netlist()
        mapping = collapse_stuck_at(netlist)
        assert mapping[StuckAtFault(3, 1, 1)] == mapping[StuckAtFault(1, None, 1)]

    def test_collapse_reduces_count(self):
        netlist = small_netlist()
        mapping = collapse_stuck_at(netlist)
        assert len(set(mapping.values())) < len(mapping)

    def test_mapping_covers_all_inputs(self):
        netlist = small_netlist()
        faults = enumerate_stuck_at(netlist)
        mapping = collapse_stuck_at(netlist, faults)
        assert set(mapping) == set(faults)

    def test_representatives_are_fixed_points(self):
        mapping = collapse_stuck_at(small_netlist())
        for representative in set(mapping.values()):
            assert mapping[representative] == representative

    def test_collapse_is_detection_equivalent(self, lion):
        """Collapsed classes really are detection-equivalent: any test set
        detects either all or none of each class (checked exhaustively)."""
        from repro.core.baseline import per_transition_tests
        from repro.gatelevel.fault_sim import detects
        from repro.gatelevel.scan import ScanCircuit

        circuit = ScanCircuit.from_machine(lion)
        mapping = collapse_stuck_at(circuit.netlist)
        tests = per_transition_tests(lion)
        for test in tests:
            found = detects(circuit, lion, test, list(mapping))
            for fault, representative in mapping.items():
                assert (fault in found) == (representative in found), (
                    test,
                    fault,
                    representative,
                )
