"""Five-valued view of a netlist under one stuck-at fault.

:class:`FaultedCircuit` is the shared substrate of the D-algorithm and
PODEM: it evaluates gates in the composite calculus with the fault wired
in (a stuck output forces the faulty component of its line, a stuck pin
forces the faulty component *as seen by that one reader*), knows which
lines can ever carry a deviation (the fanout cone of the fault site), and
answers the reachability questions both engines prune with — "can this
gate's output still take value v given its current fanin values?" via an
exact 4-state dynamic program over (good, faulty) pairs.
"""

from __future__ import annotations

from typing import Iterable, Sequence
from weakref import WeakKeyDictionary

from repro.atpg.values import (
    D,
    D_BAR,
    FAULTY,
    GOOD,
    ONE,
    UNKNOWN,
    X3,
    ZERO,
    eval3,
    from_components,
)
from repro.errors import AtpgError
from repro.gatelevel.netlist import CONTROLLING_VALUE, GateType, Netlist
from repro.gatelevel.stuck_at import StuckAtFault

__all__ = ["FaultedCircuit", "StateCodeConstraint", "input_closure"]

#: Per-netlist cache of single-line fanout closures.  Every fault on the
#: same netlist re-simulates the same closures thousands of times during
#: PODEM's incremental simulation, so the cache is keyed weakly on the
#: netlist and shared across :class:`FaultedCircuit` instances.
_CLOSURES: WeakKeyDictionary[Netlist, dict[int, tuple[int, ...]]] = (
    WeakKeyDictionary()
)


def input_closure(netlist: Netlist, line: int) -> tuple[int, ...]:
    """Topologically ordered fanout closure of ``line``, cached per netlist."""
    per_netlist = _CLOSURES.get(netlist)
    if per_netlist is None:
        per_netlist = {}
        _CLOSURES[netlist] = per_netlist
    closure = per_netlist.get(line)
    if closure is None:
        closure = tuple(netlist.fanout_closure([line]))
        per_netlist[line] = closure
    return closure

#: All four (good, faulty) pairs a free line inside the fault cone may take.
_PAIRS_CONE = ((0, 0), (1, 1), (1, 0), (0, 1))
#: Outside the cone both circuits agree, so only the diagonal is possible.
_PAIRS_AGREE = ((0, 0), (1, 1))


class FaultedCircuit:
    """One netlist + one stuck-at fault, evaluated in the 5-valued calculus."""

    def __init__(self, netlist: Netlist, fault: StuckAtFault) -> None:
        if not 0 <= fault.gate < netlist.n_gates:
            raise AtpgError(f"fault names nonexistent gate {fault.gate}")
        gate = netlist.gate(fault.gate)
        if fault.pin is not None and not 0 <= fault.pin < gate.n_fanins:
            raise AtpgError(
                f"fault names nonexistent pin {fault.pin} of gate {fault.gate}"
            )
        self.netlist = netlist
        self.fault = fault
        #: The line whose *good* value must be the non-stuck value for the
        #: fault to make any difference (the activation condition).
        self.site_line = (
            fault.gate if fault.pin is None else gate.fanins[fault.pin]
        )
        #: Lines whose faulty value may differ from the good one.  Both
        #: fault shapes first deviate at the faulted gate's output.
        cone_list = netlist.fanout_closure([fault.gate])
        self.cone = frozenset(cone_list)
        #: The cone in topological order — the only lines the frontier and
        #: X-path scans ever need to visit.
        self.cone_sorted = tuple(cone_list)
        self.outputs = tuple(netlist.outputs)
        self._output_set = frozenset(self.outputs)
        #: Observed outputs inside the cone: the only ones that can detect.
        self.cone_outputs = tuple(
            line for line in self.outputs if line in self.cone
        )
        #: ``fanouts[line]`` lists the reader gates (shared netlist cache).
        self.fanouts = netlist.fanouts()

    # ------------------------------------------------------------ evaluation

    def input_value(self, line: int, assigned: int | None) -> int:
        """Composite value of primary-input ``line`` given its assignment."""
        good = X3 if assigned is None else assigned
        fault = self.fault
        if fault.pin is None and line == fault.gate:
            return from_components(good, fault.value)
        return from_components(good, good)

    def seen_values(self, index: int, values: Sequence[int]) -> list[int]:
        """Fanin values as gate ``index`` sees them (pin forcing applied).

        ``values`` is the full per-line value array; the result is ordered
        like the gate's fanins.
        """
        gate = self.netlist.gate(index)
        seen = [values[f] for f in gate.fanins]
        fault = self.fault
        if fault.pin is not None and index == fault.gate:
            seen[fault.pin] = from_components(
                GOOD[seen[fault.pin]], fault.value
            )
        return seen

    def evaluate_gate(self, index: int, values: Sequence[int]) -> int:
        """Composite output of gate ``index`` from the per-line ``values``.

        For the stuck-output gate the faulty component is forced; for the
        stuck-pin gate the forcing happens on the seen fanin.  ``INPUT``
        gates are the caller's job (their value is the assignment).
        """
        gate = self.netlist.gate(index)
        if gate.kind is GateType.INPUT:
            raise AtpgError("input lines have no gate function")
        seen = self.seen_values(index, values)
        fault = self.fault
        good = eval3(gate.kind, [GOOD[v] for v in seen])
        if fault.pin is None and index == fault.gate:
            return from_components(good, fault.value)
        faulty = eval3(gate.kind, [FAULTY[v] for v in seen])
        return from_components(good, faulty)

    # ------------------------------------------------------- reachable pairs

    def _fanin_pairs(
        self, index: int, values: Sequence[int]
    ) -> list[tuple[tuple[int, int], ...]]:
        """Candidate (good, faulty) pairs per fanin of gate ``index``.

        A known fanin contributes its single pair; an unknown one the full
        set its position allows (diagonal outside the cone).  The faulted
        pin's faulty component is forced either way.  This is a sound
        over-approximation of the values a consistent completion can give
        the fanin, which is exactly what the feasibility pruning needs.
        """
        gate = self.netlist.gate(index)
        fault = self.fault
        candidates: list[tuple[tuple[int, int], ...]] = []
        for pin, line in enumerate(gate.fanins):
            value = values[line]
            if value != UNKNOWN:
                pairs: tuple[tuple[int, int], ...] = (
                    (GOOD[value], FAULTY[value]),
                )
            elif line in self.cone:
                pairs = _PAIRS_CONE
            else:
                pairs = _PAIRS_AGREE
            if fault.pin is not None and index == fault.gate and pin == fault.pin:
                pairs = tuple(sorted({(g, fault.value) for g, _ in pairs}))
            candidates.append(pairs)
        return candidates

    def reachable_outputs(
        self, index: int, values: Sequence[int]
    ) -> frozenset[int]:
        """Composite values gate ``index`` can still produce.

        Exact dynamic program over the 4-state (good, faulty) pair space:
        fold the per-fanin candidate pairs through the gate function.  The
        stuck-output gate folds good components only (its faulty component
        is forced).
        """
        gate = self.netlist.gate(index)
        kind = gate.kind
        fault = self.fault
        if kind is GateType.CONST0:
            pairs = {(0, 0)}
        elif kind is GateType.INPUT:
            raise AtpgError("input lines have no gate function")
        else:
            candidates = self._fanin_pairs(index, values)
            if kind is GateType.NOT:
                pairs = {(1 - g, 1 - f) for g, f in candidates[0]}
            else:
                # The non-controlling value is the fold's identity.
                identity = 1 - CONTROLLING_VALUE[kind]
                pairs = {(identity, identity)}
                for pin_pairs in candidates:
                    if kind is GateType.AND:
                        pairs = {
                            (ag & g, af & f)
                            for ag, af in pairs
                            for g, f in pin_pairs
                        }
                    else:
                        pairs = {
                            (ag | g, af | f)
                            for ag, af in pairs
                            for g, f in pin_pairs
                        }
        if fault.pin is None and index == fault.gate:
            return frozenset(
                from_components(g, fault.value) for g, _ in pairs
            )
        return frozenset(from_components(g, f) for g, f in pairs)

    def can_output(self, index: int, values: Sequence[int], required: int) -> bool:
        """Is there a completion under which gate ``index`` outputs ``required``?"""
        return required in self.reachable_outputs(index, values)

    # ---------------------------------------------------------- search state

    def line_domain(self, line: int) -> tuple[int, ...]:
        """Composite values ``line`` may be assigned during the search."""
        gate = self.netlist.gate(line)
        fault = self.fault
        if gate.kind is GateType.INPUT:
            if fault.pin is None and line == fault.gate:
                # The stuck input line itself: its only consistent values.
                return (D,) if fault.value == 0 else (D_BAR,)
            return (ZERO, ONE)
        if line in self.cone:
            return (ZERO, ONE, D, D_BAR)
        return (ZERO, ONE)

    def detected(self, values: Sequence[int]) -> bool:
        """Does some observed output currently carry D or D'?"""
        return any(values[line] in (D, D_BAR) for line in self.cone_outputs)

    def d_frontier(self, values: Sequence[int]) -> list[int]:
        """Gates with an unknown output and a deviation on a seen fanin."""
        frontier: list[int] = []
        netlist = self.netlist
        for index in self.cone_sorted:
            if values[index] != UNKNOWN:
                continue
            gate = netlist.gate(index)
            if gate.kind is GateType.INPUT:
                continue
            seen = self.seen_values(index, values)
            if any(v in (D, D_BAR) for v in seen):
                frontier.append(index)
        return frontier

    def x_path_lines(self, values: Sequence[int]) -> frozenset[int]:
        """Lines from which a deviation can still reach an observed output.

        A line qualifies when it is in the cone, its value is still
        unknown, and it is an output or feeds (transitively, through
        similarly open lines) one.  Frontier gates without such a path can
        never propagate the fault and are pruned.
        """
        fanouts = self.fanouts
        reach: set[int] = set()
        for index in reversed(self.cone_sorted):
            if values[index] != UNKNOWN:
                continue
            if index in self._output_set or any(
                reader in reach for reader in fanouts[index]
            ):
                reach.add(index)
        return frozenset(reach)


class StateCodeConstraint:
    """Restrict the state-bit inputs to codes the encoding actually assigns.

    A full-scan test establishes the state bits by scanning in a code; the
    functional fault model only defines behaviour for *assigned* codes, so
    the search must never build a test on a phantom state.  The constraint
    watches the first ``width`` circuit inputs (MSB first, matching
    :meth:`repro.fsm.encoding.StateEncoding.encode_bits`).
    """

    def __init__(self, codes: Iterable[int], width: int) -> None:
        self.codes = tuple(sorted(set(codes)))
        self.width = width

    def compatible_codes(
        self, bits: Sequence[int | None]
    ) -> tuple[int, ...]:
        """Assigned codes consistent with the partial state-bit vector."""
        width = self.width
        out = []
        for code in self.codes:
            for position, bit in enumerate(bits):
                if bit is None:
                    continue
                if (code >> (width - 1 - position)) & 1 != bit:
                    break
            else:
                out.append(code)
        return tuple(out)

    def feasible(self, bits: Sequence[int | None]) -> bool:
        return bool(self.compatible_codes(bits))
