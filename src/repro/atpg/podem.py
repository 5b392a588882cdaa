"""PODEM (Goel 1981) with SCOAP-guided backtrace and objective selection.

PODEM branches only on primary inputs: pick an objective (activate the
fault, then extend the D-frontier), backtrace it through the easiest /
hardest-controllability path to an unassigned input, decide that input,
and re-imply by plain forward simulation in the five-valued calculus.
Because the values on every line are a function of the input assignment
alone there is no justification bookkeeping — a conflict simply flips the
most recent untried decision.  The search is complete: when both values
of every decided input have been refuted the fault is proven untestable.

Pruning (all sound, monotone in the partial assignment): the fault site
forced to the stuck value, an activated fault with an empty D-frontier,
no X-path from the frontier to an observed output, and a state-bit prefix
incompatible with every assigned state code.
"""

from __future__ import annotations

from repro.atpg.model import FaultedCircuit, StateCodeConstraint, input_closure
from repro.atpg.search import (
    ABORT_BACKTRACKS,
    ABORT_TIME,
    STATUS_ABORTED,
    STATUS_TEST,
    STATUS_UNTESTABLE,
    SearchBudget,
    SearchOutcome,
)
from repro.atpg.values import GOOD, UNKNOWN, X3, eval3
from repro.errors import AtpgError
from repro.gatelevel.netlist import CONTROLLING_VALUE, GateType
from repro.sca.scoap import ScoapMeasures

__all__ = ["podem_search"]

_DEAD = "dead"
_OPEN = "open"
_DETECTED = "detected"


class _Podem:
    def __init__(
        self,
        model: FaultedCircuit,
        scoap: ScoapMeasures,
        constraint: StateCodeConstraint | None,
        budget: SearchBudget,
    ) -> None:
        self.model = model
        self.scoap = scoap
        self.constraint = constraint
        self.budget = budget
        self.netlist = model.netlist
        self.assignment: dict[int, int] = {}
        self.values: list[int] = [UNKNOWN] * self.netlist.n_gates
        #: D-frontier gates with an X-path, stashed by :meth:`_check` for
        #: :meth:`_objective` so the cone scans run once per iteration.
        self._open_frontier: list[int] = []

    # ----------------------------------------------------------- simulation

    def _simulate(self) -> None:
        """Forward five-valued simulation from the current assignment."""
        model = self.model
        values = self.values
        cone = model.cone
        assignment = self.assignment
        for gate in self.netlist.gates:
            index = gate.index
            if gate.kind is GateType.INPUT:
                values[index] = model.input_value(index, assignment.get(index))
            elif index in cone:
                values[index] = model.evaluate_gate(index, values)
            else:
                # Outside the cone both components agree; one 3-valued
                # fold of the good components is enough.
                good = eval3(
                    gate.kind, [GOOD[values[f]] for f in gate.fanins]
                )
                values[index] = UNKNOWN if good == X3 else good

    def _update(self, line: int) -> None:
        """Re-simulate after a decision, flip, or undo on input ``line``.

        Every line's value is a pure function of the input assignment, so
        only ``line``'s fanout closure can change — and the sweep is
        event-driven on top of that: a gate is only re-evaluated when a
        fanin's value actually changed, which prunes the bulk of the
        closure once controlling values have locked gates in.
        """
        model = self.model
        values = self.values
        cone = model.cone
        netlist = self.netlist
        new = model.input_value(line, self.assignment.get(line))
        if new == values[line]:
            return
        values[line] = new
        changed = {line}
        closure = input_closure(netlist, line)
        for index in closure[1:]:
            gate = netlist.gate(index)
            hit = False
            for fanin in gate.fanins:
                if fanin in changed:
                    hit = True
                    break
            if not hit:
                continue
            if index in cone:
                new = model.evaluate_gate(index, values)
            else:
                good = eval3(
                    gate.kind, [GOOD[values[f]] for f in gate.fanins]
                )
                new = UNKNOWN if good == X3 else good
            if new != values[index]:
                values[index] = new
                changed.add(index)

    def _state_bits(self) -> list[int | None]:
        constraint = self.constraint
        assert constraint is not None
        lines = self.netlist.inputs[: constraint.width]
        return [self.assignment.get(line) for line in lines]

    def _check(self) -> str:
        model = self.model
        values = self.values
        self._open_frontier = []
        if self.constraint is not None and not self.constraint.feasible(
            self._state_bits()
        ):
            return _DEAD
        site_good = GOOD[values[model.site_line]]
        if site_good == model.fault.value:
            return _DEAD
        if model.detected(values):
            return _DETECTED
        if site_good != X3:
            # Activated but unobserved: a deviation must still be able to
            # travel from the frontier to an output through open lines.
            frontier = model.d_frontier(values)
            if not frontier:
                return _DEAD
            open_lines = model.x_path_lines(values)
            self._open_frontier = [g for g in frontier if g in open_lines]
            if not self._open_frontier:
                return _DEAD
        return _OPEN

    # ------------------------------------------------------------ objective

    def _objective(self) -> tuple[int, int] | None:
        model = self.model
        values = self.values
        if GOOD[values[model.site_line]] == X3:
            return model.site_line, 1 - model.fault.value
        frontier = self._open_frontier
        if not frontier:  # pragma: no cover - _check() rules this out
            return None
        co = self.scoap.co
        gate_index = min(frontier, key=lambda g: (co[g], g))
        gate = self.netlist.gate(gate_index)
        unknown = [f for f in gate.fanins if values[f] == UNKNOWN]
        if not unknown:  # pragma: no cover - UNKNOWN output implies one
            return None
        # Frontier gates are AND/OR (a NOT with a deviating input is known):
        # sensitize by setting a side input to the non-controlling value.
        value = 1 - CONTROLLING_VALUE[gate.kind]
        line = min(
            unknown,
            key=lambda f: (self.scoap.controllability(f, value), f),
        )
        return line, value

    def _backtrace(self, line: int, value: int) -> tuple[int, int]:
        """Walk the objective back to an unassigned primary input."""
        netlist = self.netlist
        values = self.values
        cc0, cc1 = self.scoap.cc0, self.scoap.cc1
        while True:
            gate = netlist.gate(line)
            kind = gate.kind
            if kind is GateType.INPUT:
                return line, value
            if kind is GateType.NOT:
                value = 1 - value
                line = gate.fanins[0]
                continue
            unknown = [f for f in gate.fanins if values[f] == UNKNOWN]
            if not unknown:  # pragma: no cover - X lines have X fanins
                raise AtpgError("backtrace stuck on a fully-known gate")
            cost = cc1 if value else cc0
            if value == CONTROLLING_VALUE[kind]:
                # One controlling input suffices: take the easiest.
                line = min(unknown, key=lambda f: (cost[f], f))
            else:
                # Every input must be non-controlling: tackle the hardest first.
                line = max(unknown, key=lambda f: (cost[f], -f))

    # --------------------------------------------------------------- search

    def _line_name(self, line: int) -> str:
        return self.netlist.gate(line).name or str(line)

    def run(self) -> SearchOutcome:
        decisions = 0
        backtracks = 0
        trace = self.budget.trace
        # Decision stack entries: [input line, tried value, flipped?].
        stack: list[list[int]] = []
        self._simulate()
        while True:
            if self.budget.time_exceeded():
                return SearchOutcome(
                    STATUS_ABORTED, None, decisions, backtracks, ABORT_TIME
                )
            status = self._check()
            if status == _DETECTED:
                cube = tuple(
                    self.assignment.get(line, -1)
                    for line in self.netlist.inputs
                )
                return SearchOutcome(STATUS_TEST, cube, decisions, backtracks)
            if status == _OPEN:
                objective = self._objective()
                if objective is None:
                    status = _DEAD
                else:
                    line, value = self._backtrace(*objective)
                    stack.append([line, value, 0])
                    self.assignment[line] = value
                    self._update(line)
                    decisions += 1
                    if trace is not None:
                        trace.record(
                            "decision",
                            self._line_name(line),
                            value,
                            len(stack),
                            d_frontier=len(self._open_frontier),
                        )
                    continue
            # Dead branch: flip the deepest untried decision.
            while stack:
                entry = stack[-1]
                if not entry[2]:
                    backtracks += 1
                    if backtracks > self.budget.backtrack_limit:
                        return SearchOutcome(
                            STATUS_ABORTED,
                            None,
                            decisions,
                            backtracks,
                            ABORT_BACKTRACKS,
                        )
                    entry[2] = 1
                    entry[1] ^= 1
                    self.assignment[entry[0]] = entry[1]
                    self._update(entry[0])
                    if trace is not None:
                        trace.record(
                            "backtrack",
                            self._line_name(entry[0]),
                            entry[1],
                            len(stack),
                            d_frontier=len(self._open_frontier),
                        )
                    break
                stack.pop()
                del self.assignment[entry[0]]
                self._update(entry[0])
            else:
                return SearchOutcome(
                    STATUS_UNTESTABLE, None, decisions, backtracks
                )


def podem_search(
    model: FaultedCircuit,
    scoap: ScoapMeasures,
    constraint: StateCodeConstraint | None = None,
    budget: SearchBudget | None = None,
) -> SearchOutcome:
    """Run PODEM for ``model``'s fault; see :class:`SearchOutcome`."""
    if budget is None:
        budget = SearchBudget(backtrack_limit=100_000)
    return _Podem(model, scoap, constraint, budget).run()
