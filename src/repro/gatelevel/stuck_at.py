"""Single stuck-at faults on gate-level netlists.

Fault sites follow standard practice: every line (gate output, including
primary inputs) stuck at 0 and 1, and every input *pin* of a multi-fanin
gate stuck at 0 and 1 — pin faults are the fanout-branch faults, which
differ from the stem fault when the driving line fans out to several gates.

:func:`collapse_stuck_at` applies the classic structural equivalences.  A
line is *fanout-free* when exactly one gate pin reads it and no primary
output observes it; an observed line is one more reader, because a stem
fault there shows at that output while a branch fault does not.

* a pin fault on a fanout-free line is equivalent to the driver's output
  fault of the same polarity;
* a controlling-value pin fault is equivalent to the gate's output fault at
  the same value (AND: in-0 ≡ out-0; OR: in-1 ≡ out-1);
* a NOT gate's output faults are equivalent to the inverted output faults
  of its driver when the driver is fanout-free.

Enumeration and collapse run on integer fault codes (:func:`_code`), whose
order is :attr:`StuckAtFault.sort_key`'s; the collapse is a union-find over
a list that keeps the smaller root, so every root is its class's
representative.
:func:`stuck_at_representatives` reads the roots alone and builds a fault
object for them only.  Collapsing changes only which representative is
simulated, never coverage.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FaultSimulationError
from repro.gatelevel.netlist import CONTROLLING_VALUE, GateType, Netlist

__all__ = [
    "StuckAtFault",
    "enumerate_stuck_at",
    "collapse_stuck_at",
    "stuck_at_representatives",
]


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
    """The uncollapsed stuck-at fault universe of ``netlist``, sorted.

    Pin faults are only enumerated on gates with at least two fanins when
    ``include_pins`` (single-fanin pins are always equivalent to the driver
    output and would be collapsed away immediately).
    """
    width = _width(netlist)
    present = _universe_codes(netlist, width, include_pins)
    return [_fault(code, width) for code, here in enumerate(present) if here]


# ------------------------------------------------------------ fault codes
#
# Fault ``(gate, pin, value)`` has code ``(gate * width + pin + 1) * 2 +
# value``, with pin -1 for the output and ``width`` one more than the
# netlist's largest fanin count, so a gate's codes are ``2 * width``
# consecutive ints.


def _width(netlist: Netlist) -> int:
    return 1 + max((gate.n_fanins for gate in netlist.gates), default=0)


def _code(fault: StuckAtFault, netlist: Netlist, width: int) -> int:
    """The fault's code; a gate outside the netlist, or a pin past the
    gate's own fanins, is not a site of it."""
    pin = fault.pin
    if not 0 <= fault.gate < netlist.n_gates or (
        pin is not None and not 0 <= pin < netlist.gate(fault.gate).n_fanins
    ):
        raise FaultSimulationError(f"{fault.site()} is not a site of the netlist")
    slot = 0 if pin is None else pin + 1
    return (fault.gate * width + slot) * 2 + fault.value


def _fault(code: int, width: int) -> StuckAtFault:
    gate, slot = divmod(code >> 1, width)
    return StuckAtFault(gate, slot - 1 if slot else None, code & 1)


def _universe_codes(
    netlist: Netlist, width: int, include_pins: bool = True
) -> bytearray:
    """``present[code]``: whether the uncollapsed universe holds the fault."""
    present = bytearray(netlist.n_gates * width * 2)
    for gate in netlist.gates:
        if gate.kind is GateType.CONST0:
            continue  # constants have no observable stuck-at of their value
        pins = gate.n_fanins if include_pins and gate.n_fanins >= 2 else 0
        base = gate.index * width * 2
        present[base : base + 2 + 2 * pins] = b"\x01" * (2 + 2 * pins)
    return present


def _classes(netlist: Netlist, present: bytearray, width: int) -> list[int]:
    """Union-find over the fault codes ``present`` marks.

    Returns the parent list.  Each union hangs the larger root under the
    smaller one, so a root is its class's smallest code and every entry's
    parent is at most the entry itself.
    """
    parent = list(range(len(present)))

    def root(code: int) -> int:
        while parent[code] != code:
            parent[code] = parent[parent[code]]
            code = parent[code]
        return code

    def union(first: int, second: int) -> None:
        if present[first] and present[second]:
            first, second = root(first), root(second)
            if first < second:
                parent[second] = first
            elif second < first:
                parent[first] = second

    # A line is fanout-free when one gate pin reads it and no output does.
    free = [len(readers) == 1 for readers in netlist.fanouts()]
    for line in netlist.outputs:
        free[line] = False
    stride = width * 2
    for gate in netlist.gates:
        base = gate.index * stride
        control = CONTROLLING_VALUE.get(gate.kind)
        if control is not None:
            # Controlling-value pin faults fold into the output fault.
            for pin in range(gate.n_fanins):
                union(base + 2 * pin + 2 + control, base + control)
        elif gate.kind is GateType.NOT and free[gate.fanins[0]]:
            # The single pin is the driver line itself.
            driver = gate.fanins[0] * stride
            union(driver, base + 1)
            union(driver + 1, base)
        if gate.n_fanins < 2:
            continue
        # Fanout-free stems: any pin fault equals the driver output fault.
        for pin, driver in enumerate(gate.fanins):
            if free[driver]:
                union(base + 2 * pin + 2, driver * stride)
                union(base + 2 * pin + 3, driver * stride + 1)
    return parent


def collapse_stuck_at(
    netlist: Netlist, faults: list[StuckAtFault] | None = None
) -> dict[StuckAtFault, StuckAtFault]:
    """Map every fault to its equivalence-class representative.

    The returned dict covers every input fault; simulate
    ``sorted(set(mapping.values()))`` and read any fault's verdict through
    the map.  A fault that is not a site of ``netlist`` raises
    :class:`~repro.errors.FaultSimulationError`.
    """
    if faults is None:
        faults = enumerate_stuck_at(netlist)
    width = _width(netlist)
    codes = [_code(fault, netlist, width) for fault in faults]
    present = bytearray(netlist.n_gates * width * 2)
    for code in codes:
        present[code] = 1
    parent = _classes(netlist, present, width)
    # Parents never exceed their entries, so one ascending pass points
    # every entry at its root.
    for code in range(len(parent)):
        parent[code] = parent[parent[code]]
    by_code = dict(zip(codes, faults))
    return {fault: by_code[parent[code]] for fault, code in zip(faults, codes)}


def stuck_at_representatives(netlist: Netlist) -> list[StuckAtFault]:
    """The collapsed stuck-at universe of ``netlist``, sorted.

    Equal to ``sorted(set(collapse_stuck_at(netlist).values()))``, but
    builds a fault object for the class representatives only.
    """
    width = _width(netlist)
    present = _universe_codes(netlist, width)
    parent = _classes(netlist, present, width)
    return [
        _fault(code, width)
        for code, up in enumerate(parent)
        if up == code and present[code]
    ]
