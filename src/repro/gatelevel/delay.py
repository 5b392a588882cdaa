"""Transition-delay faults: the paper's at-speed testing motivation.

    "The circuit is tested at-speed during the application of test
    sequences whose length is larger than one.  This may contribute to the
    detection of delay defects that are not detected if each state-
    transition is tested separately."  (Section 1)

This module makes that claim measurable.  A *transition-delay fault* is a
line that is slow to rise (or fall): its new value arrives one clock too
late.  Detecting it at speed needs two consecutive functional cycles — a
*launch* cycle that creates the transition on the line and a *capture*
cycle in which the stale value propagates to an observed output.  A scan
test of length ``L`` therefore offers ``L - 1`` launch/capture pairs; the
one-test-per-transition baseline (all tests of length 1) offers none, while
the paper's chained tests offer many.

Model (standard, documented simplifications):

* at the capture cycle the faulty line still holds its previous-cycle
  value; everything upstream is fault-free;
* observation is at the primary outputs and next-state lines of the capture
  cycle (full scan makes next-state bits observable — at the latest at the
  test's scan-out; intermediate corruptions are assumed observable, which
  makes the reported coverage an upper bound for mid-test captures and
  exact for the final cycle);
* scan shift is slow, so the scan-in → first-vector and last-vector →
  scan-out boundaries are not at-speed pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.testset import ScanTest
from repro.errors import FaultSimulationError
from repro.fsm.state_table import StateTable
from repro.gatelevel.netlist import ALL_ONES, GateType, Netlist, _evaluate_gate
from repro.gatelevel.scan import ScanCircuit

__all__ = [
    "TransitionDelayFault",
    "enumerate_transition_delay_faults",
    "DelaySimResult",
    "simulate_delay_faults",
]


@dataclass(frozen=True, order=True)
class TransitionDelayFault:
    """Line ``line`` is slow to rise (``rising``) or slow to fall."""

    line: int
    rising: bool

    def site(self) -> str:
        kind = "str" if self.rising else "stf"  # slow-to-rise / slow-to-fall
        return f"g{self.line}/{kind}"


def enumerate_transition_delay_faults(netlist: Netlist) -> list[TransitionDelayFault]:
    """Both delay faults on every non-constant line."""
    faults: list[TransitionDelayFault] = []
    for gate in netlist.gates:
        if gate.kind is GateType.CONST0:
            continue
        faults.append(TransitionDelayFault(gate.index, True))
        faults.append(TransitionDelayFault(gate.index, False))
    return faults


@dataclass
class DelaySimResult:
    detected: frozenset[TransitionDelayFault]
    undetected: frozenset[TransitionDelayFault]
    #: launch/capture pairs examined (Σ max(length - 1, 0) over tests)
    n_at_speed_pairs: int

    @property
    def n_faults(self) -> int:
        return len(self.detected) + len(self.undetected)

    @property
    def coverage_pct(self) -> float:
        if self.n_faults == 0:
            return 100.0
        return 100.0 * len(self.detected) / self.n_faults


def _input_words(circuit: ScanCircuit, state: int, combo: int) -> list[np.ndarray]:
    pi = circuit.n_primary_inputs
    words = [
        np.full(1, ALL_ONES if bit else 0, dtype=np.uint64)
        for bit in circuit.encoding.encode_bits(state)
    ]
    for j in range(pi):
        bit = (combo >> (pi - 1 - j)) & 1
        words.append(np.full(1, ALL_ONES if bit else 0, dtype=np.uint64))
    return words


def _cone_diff(
    netlist: Netlist,
    values: np.ndarray,
    line: int,
    forced: np.ndarray,
    observed: Sequence[int],
) -> bool:
    """Does forcing ``line`` to ``forced`` change any observed line?"""
    dirty = netlist.fanout_closure([line])
    local: dict[int, np.ndarray] = {line: forced}
    for index in dirty:
        if index == line:
            continue
        gate = netlist.gate(index)
        fanin_values = [
            local.get(fanin, values[fanin]) for fanin in gate.fanins
        ]
        local[index] = _evaluate_gate(gate.kind, fanin_values)
    for out_line in observed:
        effective = local.get(out_line)
        if effective is not None and bool(np.any(effective ^ values[out_line])):
            return True
    return False


def simulate_delay_faults(
    circuit: ScanCircuit,
    table: StateTable,
    tests: Iterable[ScanTest],
    faults: Iterable[TransitionDelayFault] | None = None,
) -> DelaySimResult:
    """Grade ``tests`` against transition-delay faults.

    For every at-speed launch/capture pair of every test: a fault on line
    ``l`` is detected when the launch cycle moves ``l`` in the slow
    direction and freezing ``l`` at its launch value during the capture
    cycle changes an observed output.
    """
    netlist = circuit.netlist
    if faults is None:
        faults = enumerate_transition_delay_faults(netlist)
    remaining: dict[TransitionDelayFault, None] = dict.fromkeys(faults)
    for fault in remaining:
        if not 0 <= fault.line < netlist.n_gates:
            raise FaultSimulationError(f"fault line {fault.line} does not exist")
    detected: set[TransitionDelayFault] = set()
    observed_lines = list(netlist.outputs)
    n_pairs = 0
    one = np.uint64(1)
    for test in tests:
        if not remaining:
            break
        state = test.initial_state
        previous_values: np.ndarray | None = None
        for combo in test.inputs:
            values = netlist.evaluate(_input_words(circuit, state, combo))
            if previous_values is not None:
                n_pairs += 1
                for fault in list(remaining):
                    old = int(previous_values[fault.line, 0] & one)
                    new = int(values[fault.line, 0] & one)
                    launched = (old, new) == ((0, 1) if fault.rising else (1, 0))
                    if not launched:
                        continue
                    forced = np.full(
                        1, ALL_ONES if old else 0, dtype=np.uint64
                    )
                    if _cone_diff(
                        netlist, values, fault.line, forced, observed_lines
                    ):
                        detected.add(fault)
                        del remaining[fault]
            previous_values = values
            state, _ = table.step(state, combo)
    return DelaySimResult(
        frozenset(detected), frozenset(remaining), n_pairs
    )
