"""Single stuck-at faults on gate-level netlists.

Fault sites follow standard practice: every line (gate output, including
primary inputs) stuck at 0 and 1, and every input *pin* of a multi-fanin
gate stuck at 0 and 1 — pin faults are the fanout-branch faults, which
differ from the stem fault when the driving line fans out to several gates.

:func:`collapse_stuck_at` applies the classic structural equivalences:

* a pin fault on a line with fanout 1 is equivalent to the driver's output
  fault of the same polarity;
* a controlling-value pin fault is equivalent to the gate's output fault at
  the same value (AND: in-0 ≡ out-0; OR: in-1 ≡ out-1);
* a NOT gate's output faults are equivalent to the inverted output faults
  of its driver when the driver has fanout 1.

Collapsing changes only which representative is simulated, never coverage.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FaultSimulationError
from repro.gatelevel.netlist import CONTROLLING_VALUE, GateType, Netlist

__all__ = ["StuckAtFault", "enumerate_stuck_at", "collapse_stuck_at"]


@dataclass(frozen=True)
class StuckAtFault:
    """A single stuck-at fault.

    ``pin is None`` — the *output line* of ``gate`` is stuck at ``value``
    (for ``INPUT`` gates this is the primary-input fault).
    ``pin = k`` — the ``k``-th fanin pin of ``gate`` is stuck at ``value``
    as seen by that gate only (a fanout-branch fault).
    """

    gate: int
    pin: int | None
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise FaultSimulationError("stuck value must be 0 or 1")

    def site(self) -> str:
        where = "out" if self.pin is None else f"pin{self.pin}"
        return f"g{self.gate}.{where}/sa{self.value}"

    @property
    def sort_key(self) -> tuple[int, int, int]:
        """Deterministic ordering (output faults before pin faults)."""
        return (self.gate, -1 if self.pin is None else self.pin, self.value)

    def __lt__(self, other: "StuckAtFault") -> bool:
        if not isinstance(other, StuckAtFault):
            return NotImplemented
        return self.sort_key < other.sort_key


def enumerate_stuck_at(netlist: Netlist, include_pins: bool = True) -> list[StuckAtFault]:
    """The uncollapsed stuck-at fault universe of ``netlist``.

    Pin faults are only enumerated on gates with at least two fanins when
    ``include_pins`` (single-fanin pins are always equivalent to the driver
    output and would be collapsed away immediately).
    """
    faults: list[StuckAtFault] = []
    for gate in netlist.gates:
        if gate.kind is GateType.CONST0:
            continue  # constants have no observable stuck-at of their value
        for value in (0, 1):
            faults.append(StuckAtFault(gate.index, None, value))
        if include_pins and gate.n_fanins >= 2:
            for pin in range(gate.n_fanins):
                for value in (0, 1):
                    faults.append(StuckAtFault(gate.index, pin, value))
    return faults


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
            # Deterministic representative: the smaller fault.
            if root_b < root_a:
                root_a, root_b = root_b, root_a
            self.parent[root_b] = root_a


def collapse_stuck_at(
    netlist: Netlist, faults: list[StuckAtFault] | None = None
) -> dict[StuckAtFault, StuckAtFault]:
    """Map every fault to its equivalence-class representative.

    The returned dict covers every input fault; simulate
    ``sorted(set(mapping.values()))`` and read any fault's verdict through
    the map.
    """
    if faults is None:
        faults = enumerate_stuck_at(netlist)
    universe = set(faults)
    uf = _UnionFind()
    fanouts = netlist.fanouts()
    for gate in netlist.gates:
        # Controlling-value pin faults fold into the output fault.
        control = CONTROLLING_VALUE.get(gate.kind)
        if control is not None:
            out_fault = StuckAtFault(gate.index, None, control)
            for pin in range(gate.n_fanins):
                pin_fault = StuckAtFault(gate.index, pin, control)
                if pin_fault in universe and out_fault in universe:
                    uf.union(pin_fault, out_fault)
        elif gate.kind is GateType.NOT:
            for value in (0, 1):
                # The single pin is the driver line itself when fanout is 1.
                driver = gate.fanins[0]
                driver_fault = StuckAtFault(driver, None, value)
                out_fault = StuckAtFault(gate.index, None, value ^ 1)
                if (
                    len(fanouts[driver]) == 1
                    and driver_fault in universe
                    and out_fault in universe
                ):
                    uf.union(driver_fault, out_fault)
        # Fanout-1 stems: any pin fault equals the driver output fault.
        for pin, driver in enumerate(gate.fanins):
            if len(fanouts[driver]) != 1 or gate.n_fanins < 2:
                continue
            for value in (0, 1):
                pin_fault = StuckAtFault(gate.index, pin, value)
                driver_fault = StuckAtFault(driver, None, value)
                if pin_fault in universe and driver_fault in universe:
                    uf.union(pin_fault, driver_fault)
    return {fault: uf.find(fault) for fault in faults}
