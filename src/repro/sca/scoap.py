"""SCOAP testability measures (Goldstein 1979) for gate-level netlists.

Combinational controllabilities ``CC0``/``CC1`` estimate how many line
assignments are needed to set a line to 0/1; combinational observability
``CO`` estimates the effort to propagate a line's value to a primary
output.  Low numbers mean easy; :data:`INFINITY` means impossible (a net
that can never take the value, or whose value can never be observed).

The measures are heuristic *guidance* — the implication engine in
:mod:`repro.sca.implications` is what actually proves untestability — but
they are the standard cost functions a deterministic ATPG (D-algorithm /
PODEM backtrace) uses to order its decisions, and they make "hard to test"
quantifiable in reports and lint findings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gatelevel.netlist import GateType, Netlist

__all__ = ["INFINITY", "ScoapMeasures", "compute_scoap"]

#: Sentinel for "impossible": larger than any reachable finite measure but
#: safe to add without overflow checks.
INFINITY = 10**9


def _sat(value: int) -> int:
    """Saturating cap so sums of INFINITY never masquerade as finite."""
    return value if value < INFINITY else INFINITY


@dataclass(frozen=True)
class ScoapMeasures:
    """Per-line SCOAP triples; index with the line number."""

    cc0: tuple[int, ...]
    cc1: tuple[int, ...]
    co: tuple[int, ...]

    def controllability(self, line: int, value: int) -> int:
        return self.cc1[line] if value else self.cc0[line]

    def testability(self, line: int) -> int:
        """Combined difficulty: observing either stuck-at on the line.

        ``CO + max(CC0, CC1)`` — detecting sa0 needs the line at 1 and
        observed, sa1 needs it at 0 and observed; the max covers the harder
        of the two activations.
        """
        return _sat(self.co[line] + max(self.cc0[line], self.cc1[line]))


def compute_scoap(netlist: Netlist) -> ScoapMeasures:
    """SCOAP CC0/CC1/CO for every line of ``netlist``.

    One forward sweep (controllability flows from inputs) and one reverse
    sweep (observability flows from outputs), both in the netlist's native
    topological order.
    """
    n = netlist.n_gates
    cc0 = [INFINITY] * n
    cc1 = [INFINITY] * n
    for gate in netlist.gates:
        kind = gate.kind
        if kind is GateType.INPUT:
            cc0[gate.index] = cc1[gate.index] = 1
        elif kind is GateType.CONST0:
            cc0[gate.index] = 1
        elif kind is GateType.NOT:
            cc0[gate.index] = _sat(cc1[gate.fanins[0]] + 1)
            cc1[gate.index] = _sat(cc0[gate.fanins[0]] + 1)
        elif kind is GateType.AND:
            cc1[gate.index] = _sat(sum(cc1[f] for f in gate.fanins) + 1)
            cc0[gate.index] = _sat(min(cc0[f] for f in gate.fanins) + 1)
        else:  # OR
            cc0[gate.index] = _sat(sum(cc0[f] for f in gate.fanins) + 1)
            cc1[gate.index] = _sat(min(cc1[f] for f in gate.fanins) + 1)

    co = [INFINITY] * n
    for line in netlist.outputs:
        co[line] = 0
    # Reverse sweep: a gate's output observability is final before any of
    # its fanins (lower indices) are visited.
    for gate in reversed(netlist.gates):
        kind = gate.kind
        if not gate.fanins:
            continue
        out_co = co[gate.index]
        if kind is GateType.NOT:
            fanin = gate.fanins[0]
            co[fanin] = min(co[fanin], _sat(out_co + 1))
            continue
        # Side inputs must hold the non-controlling value.
        side = cc1 if kind is GateType.AND else cc0
        for pin, fanin in enumerate(gate.fanins):
            side_cost = 0
            for other_pin, other in enumerate(gate.fanins):
                if other_pin != pin:
                    side_cost = _sat(side_cost + side[other])
            co[fanin] = min(co[fanin], _sat(out_co + side_cost + 1))
    return ScoapMeasures(tuple(cc0), tuple(cc1), tuple(co))
