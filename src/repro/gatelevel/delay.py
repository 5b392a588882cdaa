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

A slow line holding its launch value through the capture cycle is, for
that one cycle, the line's output stuck at the launch value: a fault slow
to rise is caught at a capture cycle exactly when the line was 0 at launch
and the capture pattern detects the line stuck-at-0 (a detected stuck-at-0
already needs the line at 1 there, so the transition happened).  The
capture verdicts are therefore the stuck-at detection masks of the
per-transition tests (:func:`repro.core.baseline.per_transition_tests`,
one length-1 test per (state, input) row), graded on the fault-sim
dispatcher (:func:`repro.gatelevel.dispatch.detection_masks`), and the
launch verdicts come from one fault-free sweep of the netlist over all
patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable

import numpy as np

from repro.core.baseline import per_transition_tests
from repro.core.testset import ScanTest
from repro.errors import FaultSimulationError
from repro.fsm.state_table import StateTable
from repro.gatelevel.dispatch import detection_masks
from repro.gatelevel.netlist import GateType, Netlist, exhaustive_pattern_words
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import StuckAtFault

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

    @property
    def launch_value(self) -> int:
        """The value the line leaves: 0 when slow to rise, 1 when slow to fall."""
        return 0 if self.rising else 1


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


def simulate_delay_faults(
    circuit: ScanCircuit,
    table: StateTable,
    tests: Iterable[ScanTest],
    faults: Iterable[TransitionDelayFault] | None = None,
) -> DelaySimResult:
    """Grade ``tests`` against transition-delay faults.

    For every at-speed launch/capture pair of every test: a fault on line
    ``l`` is detected when the launch cycle leaves ``l`` at the value the
    slow direction starts from and the capture pattern detects ``l``
    stuck at that value (see the module docstring).
    """
    netlist = circuit.netlist
    if faults is None:
        faults = enumerate_transition_delay_faults(netlist)
    faults = list(dict.fromkeys(faults))
    for fault in faults:
        if not 0 <= fault.line < netlist.n_gates:
            raise FaultSimulationError(f"fault line {fault.line} does not exist")
    tests = list(tests)
    n_pairs = sum(max(test.length - 1, 0) for test in tests)
    remaining = (1 << len(faults)) - 1
    if n_pairs and faults:
        stuck = [StuckAtFault(f.line, None, f.launch_value) for f in faults]
        captures = detection_masks(
            circuit, table, stuck, per_transition_tests(table).tests
        )
        good = netlist.evaluate(exhaustive_pattern_words(netlist.n_inputs))
        lines = [fault.line for fault in faults]
        launch_values = np.array(
            [fault.launch_value for fault in faults], dtype=np.uint64
        )

        @cache
        def launched(pattern: int) -> int:
            """The faults whose line holds its launch value at ``pattern``."""
            word, bit = divmod(pattern, 64)
            held = (good[lines, word] >> np.uint64(bit)) & np.uint64(1)
            flags = np.packbits(held == launch_values, bitorder="little")
            return int.from_bytes(flags.tobytes(), "little")

        code_of, pi = circuit.encoding.codes, circuit.n_primary_inputs
        n_combos, next_rows = table.n_input_combinations, table.next_rows
        for test in tests:
            if not remaining:
                break
            state = test.initial_state
            launch: int | None = None
            for combo in test.inputs:
                if launch is not None:
                    capture = captures[state * n_combos + combo]
                    remaining &= ~(capture & launched(launch))
                launch = code_of[state] << pi | combo
                state = next_rows[state][combo]
    undetected = frozenset(
        fault for bit, fault in enumerate(faults) if remaining >> bit & 1
    )
    return DelaySimResult(frozenset(faults) - undetected, undetected, n_pairs)
