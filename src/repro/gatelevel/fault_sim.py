"""Sequential fault simulation of scan tests, thousands of faults per word.

Each bit position of a Python integer word is one faulty machine — and
Python integers are arbitrary precision, so a "word" holds an entire batch
(up to :data:`repro.core.config.DEFAULT_BATCH_BITS_CAP` faults) and the
bitwise operations run at C speed over all of them at once.  A scan
test is simulated clock by clock: the scan-in broadcasts the same initial
state to every faulty machine, the combinational block is evaluated with the
batch's fault effects injected, primary outputs are compared against the
fault-free response after every vector, and the final state words are
compared at scan-out.  Faults are dropped as soon as they are detected.

Injection model (one fault per bit ``b`` with mask ``m_b``):

* stuck-at on a gate output — the stored line value is forced in bit ``b``;
* stuck-at on a gate input pin — the value is forced only when that gate
  reads that pin;
* AND/OR bridging between ``g1`` and ``g2`` — every read (and observation)
  of either line sees ``g1 op g2`` in bit ``b``.  Within one clock cycle
  the raw values of ``g1`` and ``g2`` are unaffected by their own bridge
  (the paper's condition 3 forbids paths between them), so the stored
  values can be combined directly; across cycles the divergence lives in
  the per-bit state words.

The fault-free reference comes from the functional state table, which the
synthesized netlist is verified against (see
:meth:`repro.gatelevel.scan.ScanCircuit.verify_against`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np
import numpy.typing as npt

from repro.core.config import adaptive_batch_bits
from repro.core.testset import ScanTest, TestSet
from repro.errors import FaultSimulationError
from repro.fsm.state_table import StateTable
from repro.gatelevel.bridging import BridgeKind, BridgingFault
from repro.gatelevel.netlist import GateType, Netlist
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import StuckAtFault
from repro.obs.metrics import current_registry

__all__ = [
    "FaultSimResult",
    "InterpretedSimulator",
    "simulate_tests",
    "detects",
    "injection_sites",
    "InjectionSites",
    "adaptive_batch_bits",
]

Fault = StuckAtFault | BridgingFault


class InjectionSites(NamedTuple):
    """Where each fault of a universe is injected: one int64 entry per
    fault, in universe order."""

    #: the stuck gate, or a bridge's first line
    site: npt.NDArray[np.int64]
    #: a bridge's second line; the site itself for a stuck-at
    partner: npt.NDArray[np.int64]
    #: a pin stuck-at's pin, else -1
    pin: npt.NDArray[np.int64]
    #: the stuck value, 0 for a bridge
    value: npt.NDArray[np.int64]
    #: 1 for an AND-type bridge, 0 for an OR-type one, -1 for a stuck-at
    bridge: npt.NDArray[np.int64]


@dataclass
class FaultSimResult:
    """Outcome of simulating a sequence of tests over a fault universe."""

    detected: frozenset[Fault]
    undetected: frozenset[Fault]
    #: per test (in simulation order): number of new detections
    per_test_new: tuple[int, ...]

    @property
    def n_faults(self) -> int:
        return len(self.detected) + len(self.undetected)

    @property
    def coverage_pct(self) -> float:
        if self.n_faults == 0:
            return 100.0
        return 100.0 * len(self.detected) / self.n_faults


def injection_sites(netlist: Netlist, faults: Sequence[Fault]) -> InjectionSites:
    """Where each fault of ``faults`` is injected, as :class:`InjectionSites`.

    The one fault-site encoder: each engine folds these arrays into its own
    representation, bit masks and dicts for the interpreted engine, pair
    sources for PPSFP.  The faults' attributes are read in one pass, and
    the sites are validated once, here.  A fault that is not a site of
    ``netlist`` raises :class:`~repro.errors.FaultSimulationError` naming
    it: a gate or a bridged line outside the netlist, or a pin past its
    gate's own fanins (an input or a constant has none; a NOT gate has pin
    0).  Bridged lines must be gate outputs, so a bridged primary input is
    rejected as well.
    """
    # A pin stuck-at is kind -2 until its pin is validated, so that no pin
    # number can pass for the output's -1.
    and_type = BridgeKind.AND
    rows = [
        (
            (fault.gate, fault.gate, -1, fault.value, -1)
            if fault.pin is None
            else (fault.gate, fault.gate, fault.pin, fault.value, -2)
        )
        if isinstance(fault, StuckAtFault)
        else (fault.line1, fault.line2, -1, 0, fault.kind is and_type)
        for fault in faults
    ]
    try:
        flat = np.fromiter(chain.from_iterable(rows), np.int64, 5 * len(rows))
    except OverflowError:
        # A line or pin past int64 is past every netlist.
        fault = next(f for f, row in zip(faults, rows) if max(map(abs, row)) >> 63)
        raise FaultSimulationError(
            f"{fault.site()} is not a site of the netlist"
        ) from None
    site, partner, pin, value, bridge = flat.reshape(-1, 5).T.copy()
    tables = netlist.gate_tables()
    n_gates = netlist.n_gates
    on_netlist = (site >= 0) & (site < n_gates) & (partner >= 0) & (partner < n_gates)
    # Per-gate lookups of the lines on the netlist; the others read gate 0.
    first, second = np.where(on_netlist, site, 0), np.where(on_netlist, partner, 0)
    n_fanins = np.asarray(tables.n_fanins, dtype=np.int64)[tables.group]
    pinned = bridge == -2
    stray = ~on_netlist | pinned & ((pin < 0) | (pin >= n_fanins[first]))
    is_input = np.asarray([kind is GateType.INPUT for kind in tables.kinds])
    bridged_input = (bridge >= 0) & (
        is_input[tables.group[first]] | is_input[tables.group[second]]
    )
    wrong = np.flatnonzero(stray | bridged_input)
    if wrong.size:
        fault = faults[int(wrong[0])]
        if stray[wrong[0]]:
            raise FaultSimulationError(f"{fault.site()} is not a site of the netlist")
        raise FaultSimulationError(f"bridged primary input unsupported: {fault.site()}")
    bridge[pinned] = -1
    return InjectionSites(site, partner, pin, value, bridge)


class _Batch:
    """A group of faults packed into one big-int word, with injection masks."""

    def __init__(self, netlist: Netlist, faults: Sequence[Fault]) -> None:
        if not faults:
            raise FaultSimulationError("a batch needs at least one fault")
        self.faults = list(faults)
        #: the all-ones word of this batch's width
        self.ones = (1 << len(self.faults)) - 1
        #: line -> (force_mask_1, force_mask_0) for stuck outputs
        self.store_force: dict[int, tuple[int, int]] = {}
        #: (gate, pin) -> (force_mask_1, force_mask_0)
        self.pin_force: dict[tuple[int, int], tuple[int, int]] = {}
        #: line -> list of (mask, partner_line, is_and)
        self.bridges: dict[int, list[tuple[int, int, bool]]] = {}
        sites = injection_sites(netlist, self.faults)
        columns = zip(*(column.tolist() for column in sites))
        for index, (site, partner, pin, value, bridge) in enumerate(columns):
            bit = 1 << index
            if bridge >= 0:
                self.bridges.setdefault(site, []).append((bit, partner, bridge == 1))
                self.bridges.setdefault(partner, []).append((bit, site, bridge == 1))
                continue
            forces: dict = self.store_force if pin < 0 else self.pin_force
            key = site if pin < 0 else (site, pin)
            ones, zeros = forces.get(key, (0, 0))
            forces[key] = (ones | bit, zeros) if value else (ones, zeros | bit)


def _forward(
    netlist: Netlist,
    batch: _Batch,
    input_words: Sequence[int],
    raw: list[int] | None,
) -> list[int]:
    """One combinational sweep with the batch's faults injected.

    ``raw`` carries the bridge-free values of the same cycle (the first
    pass); when it is ``None`` bridge adjustments are skipped entirely —
    that *is* the first pass.  Bridged lines are never downstream of their
    own bridge (paper condition 3), so their raw values equal their faulty
    values in their own bit position, which makes the two-pass scheme
    exact regardless of topological ordering of the two lines.
    """
    values = [0] * netlist.n_gates
    bridges = batch.bridges if raw is not None else {}
    pin_force = batch.pin_force
    store_force = batch.store_force
    word = batch.ones
    position = 0

    def read(line: int, reader: int, pin: int) -> int:
        value = values[line]
        rules = bridges.get(line)
        if rules:
            for mask, partner, is_and in rules:
                base = raw[line]
                partner_value = raw[partner]
                bridged = base & partner_value if is_and else base | partner_value
                value = (value & ~mask) | (bridged & mask)
        forced = pin_force.get((reader, pin))
        if forced:
            ones, zeros = forced
            value = (value | ones) & ~zeros & word
        return value

    for gate in netlist.gates:
        kind = gate.kind
        if kind is GateType.INPUT:
            value = input_words[position]
            position += 1
        elif kind is GateType.CONST0:
            value = 0
        elif kind is GateType.NOT:
            value = ~read(gate.fanins[0], gate.index, 0) & word
        elif kind is GateType.AND:
            value = word
            for pin, line in enumerate(gate.fanins):
                value &= read(line, gate.index, pin)
        else:  # OR
            value = 0
            for pin, line in enumerate(gate.fanins):
                value |= read(line, gate.index, pin)
        forced = store_force.get(gate.index)
        if forced:
            ones, zeros = forced
            value = (value | ones) & ~zeros & word
        values[gate.index] = value
    return values


def _evaluate_batch(
    netlist: Netlist,
    batch: _Batch,
    input_words: Sequence[int],
) -> tuple[list[int], list[int]]:
    """Evaluate one cycle; returns ``(values, raw)`` word lists.

    For batches without bridging faults the single sweep is exact and
    ``raw is values``; with bridges the first (bridge-free) sweep supplies
    the raw line values the second sweep's adjustments read.
    """
    if not batch.bridges:
        values = _forward(netlist, batch, input_words, raw=None)
        return values, values
    raw = _forward(netlist, batch, input_words, raw=None)
    return _forward(netlist, batch, input_words, raw=raw), raw


def _observe(batch: _Batch, values: list[int], raw: list[int], line: int) -> int:
    """The value of ``line`` as seen by the tester / the next scan stage."""
    value = values[line]
    rules = batch.bridges.get(line)
    if rules:
        for mask, partner, is_and in rules:
            base = raw[line]
            partner_value = raw[partner]
            bridged = base & partner_value if is_and else base | partner_value
            value = (value & ~mask) | (bridged & mask)
    return value


class InterpretedSimulator:
    """Scan-test fault simulation of one :class:`_Batch`, gate by gate.

    The independent reference for :class:`repro.gatelevel.ppsfp.PpsfpSimulator`
    (``--engine bigint``): each fault is one bit of the batch word, and each
    clock cycle interprets the gate list once.
    """

    def __init__(
        self,
        circuit: ScanCircuit,
        table: StateTable,
        faults: Sequence[Fault],
    ) -> None:
        # Structural preflight, memoized per netlist: combinational cycles,
        # undriven nets, and arity violations would silently corrupt the
        # forward sweep, so they are rejected up front.
        from repro.lint.preflight import preflight_netlist

        preflight_netlist(circuit.netlist, FaultSimulationError)
        self.circuit = circuit
        self.table = table
        self._batch = _Batch(circuit.netlist, faults)
        self.faults = self._batch.faults

    def detect_mask(self, test: ScanTest) -> int:
        """Bit mask (over ``faults``) of the faults ``test`` detects."""
        circuit, batch = self.circuit, self._batch
        netlist = circuit.netlist
        pi = circuit.n_primary_inputs
        po = circuit.n_primary_outputs
        ones = batch.ones
        state_words = [
            ones if bit else 0
            for bit in circuit.encoding.encode_bits(test.initial_state)
        ]
        detected = 0
        good_state = test.initial_state
        next_lines = circuit.circuit.next_state_lines
        output_lines = circuit.circuit.primary_output_lines
        for combo in test.inputs:
            input_words = state_words + [
                ones if (combo >> (pi - 1 - j)) & 1 else 0 for j in range(pi)
            ]
            values, raw = _evaluate_batch(netlist, batch, input_words)
            good_state, good_out = self.table.step(good_state, combo)
            for j in range(po):
                good_bit = ones if (good_out >> (po - 1 - j)) & 1 else 0
                detected |= _observe(batch, values, raw, output_lines[j]) ^ good_bit
            state_words = [_observe(batch, values, raw, line) for line in next_lines]
            if detected == ones:  # everything already caught
                return detected
        for j, bit in enumerate(circuit.encoding.encode_bits(good_state)):
            good_bit = ones if bit else 0
            detected |= state_words[j] ^ good_bit
        return detected & ones

    def detect_masks(self, tests: Sequence[ScanTest]) -> list[int]:
        """Detection masks for many tests, one per test."""
        return [self.detect_mask(test) for test in tests]

    def detects(self, test: ScanTest) -> frozenset[Fault]:
        """The set of faults ``test`` detects."""
        mask = self.detect_mask(test)
        found = []
        while mask:
            low = mask & -mask
            found.append(self.faults[low.bit_length() - 1])
            mask ^= low
        return frozenset(found)


def detects(
    circuit: ScanCircuit,
    table: StateTable,
    test: ScanTest,
    faults: Iterable[Fault],
) -> set[Fault]:
    """The subset of ``faults`` that ``test`` detects.

    Batches are sized adaptively from the fault count
    (:func:`repro.core.config.adaptive_batch_bits`), each simulated by an
    :class:`InterpretedSimulator`; batch boundaries never change the
    result.
    """
    fault_list = list(faults)
    batch_bits = adaptive_batch_bits(len(fault_list))
    found: set[Fault] = set()
    # Per-batch detection counts stay in a plain local list; the metrics
    # registry is consulted once per detects() call, after the hot loop.
    per_batch: list[int] = []
    for start in range(0, len(fault_list), batch_bits):
        newly = InterpretedSimulator(
            circuit, table, fault_list[start : start + batch_bits]
        ).detects(test)
        per_batch.append(len(newly))
        found |= newly
    _report_batches(len(fault_list), per_batch)
    return found


def _report_batches(n_faults: int, per_batch: list[int]) -> None:
    """Fold one detects() call's batch accounting into the metrics registry."""
    registry = current_registry()
    if registry is None:
        return
    registry.counter("faultsim.calls").add(1)
    registry.counter("faultsim.batches").add(len(per_batch))
    registry.counter("faultsim.faults_simulated").add(n_faults)
    registry.counter("faultsim.detected").add(sum(per_batch))
    histogram = registry.histogram("faultsim.batch_detected")
    for count in per_batch:
        histogram.observe(count)


def simulate_tests(
    circuit: ScanCircuit,
    table: StateTable,
    tests: TestSet | Sequence[ScanTest],
    faults: Iterable[Fault],
    drop_detected: bool = True,
) -> FaultSimResult:
    """Simulate ``tests`` in their given order over ``faults``.

    With ``drop_detected`` (the default, and what the paper does) detected
    faults leave the universe, so later tests only pay for what is left.
    """
    test_list = list(tests)
    remaining = list(dict.fromkeys(faults))
    detected: set[Fault] = set()
    per_test: list[int] = []
    for test in test_list:
        if not remaining:
            per_test.append(0)
            continue
        newly = detects(circuit, table, test, remaining)
        per_test.append(len(newly))
        detected |= newly
        if drop_detected:
            remaining = [fault for fault in remaining if fault not in newly]
    undetected = frozenset(remaining) if drop_detected else frozenset(
        fault for fault in remaining if fault not in detected
    )
    return FaultSimResult(frozenset(detected), undetected, tuple(per_test))
