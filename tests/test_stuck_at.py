"""Unit tests for stuck-at fault enumeration and collapsing."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.benchmarks import circuit_names, load_kiss_machine
from repro.errors import FaultSimulationError
from repro.fuzz.strategies import netlists
from repro.gatelevel.netlist import CONTROLLING_VALUE, GateType, Netlist
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import (
    StuckAtFault,
    collapse_stuck_at,
    enumerate_stuck_at,
    stuck_at_representatives,
)
from repro.gatelevel.synthesis import SynthesisOptions


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
        assert faults == sorted(faults)

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

    def test_observed_fanout_one_line_keeps_its_branch_faults(self):
        """x = AND(a, b) feeds only y = OR(x, c), but x is an output too:
        the branch fault at y's pin is not the stem fault of x."""
        netlist = Netlist()
        a, b, c = (netlist.add_input(name) for name in "abc")
        x = netlist.add_gate(GateType.AND, (a, b))
        y = netlist.add_gate(GateType.OR, (x, c))
        netlist.set_outputs([x, y])
        mapping = collapse_stuck_at(netlist)
        branch, stem = StuckAtFault(y, 0, 0), StuckAtFault(x, None, 0)
        assert mapping[branch] == branch
        assert mapping[stem] == mapping[StuckAtFault(a, None, 0)]
        # At a = b = c = 1 the stem fault flips output x; the branch fault
        # changes nothing.
        assert _faulty_function(netlist, stem) != _faulty_function(netlist, branch)

    def test_observed_not_driver_keeps_its_faults(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        n = netlist.add_gate(GateType.NOT, (a,))
        netlist.set_outputs([a, n])
        mapping = collapse_stuck_at(netlist)
        assert len(set(mapping.values())) == 4

    def test_foreign_site_rejected(self):
        netlist = small_netlist()
        with pytest.raises(FaultSimulationError, match="not a site"):
            collapse_stuck_at(netlist, [StuckAtFault(netlist.n_gates, None, 0)])
        for pin in (-1, 4):
            with pytest.raises(FaultSimulationError, match="not a site"):
                collapse_stuck_at(netlist, [StuckAtFault(3, pin, 0)])


# ------------------------------------------------- collapse against references


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[StuckAtFault, StuckAtFault] = {}

    def find(self, item: StuckAtFault) -> StuckAtFault:
        parent = self.parent.setdefault(item, item)
        if parent is item:
            return item
        root = self.find(parent)
        self.parent[item] = root
        return root

    def union(self, first: StuckAtFault, second: StuckAtFault) -> None:
        root_a, root_b = self.find(first), self.find(second)
        if root_a is not root_b:
            if root_b.sort_key < root_a.sort_key:
                root_a, root_b = root_b, root_a
            self.parent[root_b] = root_a


def reference_collapse(
    netlist: Netlist, faults: list[StuckAtFault] | None = None
) -> dict[StuckAtFault, StuckAtFault]:
    """The collapse over fault objects: a dict union-find that keeps the
    smaller fault, where an output counts as one more reader of its line."""
    if faults is None:
        faults = enumerate_stuck_at(netlist)
    universe = set(faults)
    uf = _UnionFind()
    fanouts = netlist.fanouts()
    observed = set(netlist.outputs)

    def fanout_free(line: int) -> bool:
        return len(fanouts[line]) + (line in observed) == 1

    for gate in netlist.gates:
        control = CONTROLLING_VALUE.get(gate.kind)
        if control is not None:
            out_fault = StuckAtFault(gate.index, None, control)
            for pin in range(gate.n_fanins):
                pin_fault = StuckAtFault(gate.index, pin, control)
                if pin_fault in universe and out_fault in universe:
                    uf.union(pin_fault, out_fault)
        elif gate.kind is GateType.NOT and fanout_free(gate.fanins[0]):
            for value in (0, 1):
                driver_fault = StuckAtFault(gate.fanins[0], None, value)
                out_fault = StuckAtFault(gate.index, None, value ^ 1)
                if driver_fault in universe and out_fault in universe:
                    uf.union(driver_fault, out_fault)
        for pin, driver in enumerate(gate.fanins):
            if not fanout_free(driver) or gate.n_fanins < 2:
                continue
            for value in (0, 1):
                pin_fault = StuckAtFault(gate.index, pin, value)
                driver_fault = StuckAtFault(driver, None, value)
                if pin_fault in universe and driver_fault in universe:
                    uf.union(pin_fault, driver_fault)
    return {fault: uf.find(fault) for fault in faults}


def _evaluate(
    netlist: Netlist, fault: StuckAtFault | None = None, good: list[int] | None = None
) -> list[int]:
    """Every line's value on every input pattern, one int bitset per line.

    With ``good`` (the fault-free values), only ``fault``'s fanout cone is
    evaluated and every other line keeps its fault-free value.
    """
    n_patterns = 1 << netlist.n_inputs
    ones = (1 << n_patterns) - 1
    forced = 0 if fault is None else ones * fault.value
    if good is None:
        values = [0] * netlist.n_gates
        gates = range(netlist.n_gates)
    else:
        values = list(good)
        gates = netlist.fanout_closure([fault.gate])
    position = {line: k for k, line in enumerate(netlist.inputs)}
    for index in gates:
        gate = netlist.gate(index)
        if gate.kind is GateType.INPUT:
            k = position[index]
            value = sum(
                1 << pattern for pattern in range(n_patterns) if pattern >> k & 1
            )
        elif gate.kind is GateType.CONST0:
            value = 0
        else:
            pins = [values[line] for line in gate.fanins]
            if fault is not None and index == fault.gate and fault.pin is not None:
                pins[fault.pin] = forced
            if gate.kind is GateType.NOT:
                value = pins[0] ^ ones
            elif gate.kind is GateType.AND:
                value = ones
                for pin in pins:
                    value &= pin
            else:
                value = 0
                for pin in pins:
                    value |= pin
        if fault is not None and index == fault.gate and fault.pin is None:
            value = forced
        values[index] = value
    return values


def _faulty_function(
    netlist: Netlist, fault: StuckAtFault, good: list[int] | None = None
) -> tuple[int, ...]:
    """Each output's value on every input pattern under ``fault``."""
    if good is None:
        good = _evaluate(netlist)
    values = _evaluate(netlist, fault, good)
    return tuple(values[line] for line in netlist.outputs)


def _assert_classes_compute_one_function(netlist: Netlist) -> None:
    good = _evaluate(netlist)
    function: dict[StuckAtFault, tuple[int, ...]] = {}
    for fault, representative in collapse_stuck_at(netlist).items():
        for member in (fault, representative):
            if member not in function:
                function[member] = _faulty_function(netlist, member, good)
        assert function[fault] == function[representative], (
            f"{fault.site()} does not compute {representative.site()}'s "
            "faulty function"
        )


@pytest.fixture(scope="module")
def registry_netlists() -> dict[str, Netlist]:
    options = SynthesisOptions(max_fanin=4)
    return {
        name: ScanCircuit.from_machine(load_kiss_machine(name), options).netlist
        for name in circuit_names()
    }


_PROPERTY = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestCollapseReference:
    def test_registry_mappings_equal_the_reference(self, registry_netlists):
        assert len(registry_netlists) == 31
        for name, netlist in registry_netlists.items():
            mapping = collapse_stuck_at(netlist)
            assert mapping == reference_collapse(netlist), name
            assert stuck_at_representatives(netlist) == sorted(
                set(mapping.values())
            ), name

    def test_registry_subsets_equal_the_reference(self, registry_netlists):
        for name, netlist in registry_netlists.items():
            faults = enumerate_stuck_at(netlist)
            for subset in (faults[::3], faults[1::2], faults[: len(faults) // 2]):
                assert collapse_stuck_at(netlist, subset) == reference_collapse(
                    netlist, subset
                ), name

    def test_pinned_representative_counts(self, registry_netlists):
        counts = {"lion": 90, "log": 3_324, "dvram": 10_687, "nucpwr": 8_953}
        for name, count in counts.items():
            assert len(stuck_at_representatives(registry_netlists[name])) == count

    @_PROPERTY
    @given(netlists())
    def test_hypothesis_mappings_equal_the_reference(self, netlist):
        mapping = collapse_stuck_at(netlist)
        assert mapping == reference_collapse(netlist)
        assert stuck_at_representatives(netlist) == sorted(set(mapping.values()))

    @_PROPERTY
    @given(st.data())
    def test_hypothesis_subsets_equal_the_reference(self, data):
        netlist = data.draw(netlists())
        faults = enumerate_stuck_at(netlist)
        subset = data.draw(st.lists(st.sampled_from(faults), unique=True))
        assert collapse_stuck_at(netlist, subset) == reference_collapse(
            netlist, subset
        )


class TestCollapseSoundness:
    """Every class member computes its representative's faulty function
    on every input pattern."""

    @_PROPERTY
    @given(netlists())
    def test_hypothesis_netlists(self, netlist):
        _assert_classes_compute_one_function(netlist)

    @pytest.mark.parametrize("name", circuit_names("small"))
    def test_small_tier(self, name, registry_netlists):
        _assert_classes_compute_one_function(registry_netlists[name])
