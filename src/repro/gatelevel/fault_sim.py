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
from typing import Iterable, Sequence

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
    "simulate_tests",
    "detects",
    "injection_sites",
    "adaptive_batch_bits",
]

Fault = StuckAtFault | BridgingFault

#: Fault indices injected at one stuck-at site: ``(stuck at 1, stuck at 0)``.
StuckSplit = tuple[list[int], list[int]]
#: Bridges touching one line: ``(fault index, partner line, is AND-type)``.
BridgeRules = list[tuple[int, int, bool]]


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


def injection_sites(
    netlist: Netlist, faults: Sequence[Fault]
) -> tuple[
    dict[int, StuckSplit], dict[tuple[int, int], StuckSplit], dict[int, BridgeRules]
]:
    """Where each fault is injected, as ascending indices into ``faults``.

    Returns ``(store, pins, bridges)``:

    * ``store[line]`` — output stuck-at faults on ``line``, as
      ``(indices stuck at 1, indices stuck at 0)``;
    * ``pins[(gate, pin)]`` — pin stuck-at faults, split the same way;
    * ``bridges[line]`` — ``(index, partner line, is AND-type)`` for every
      bridge touching ``line`` (each bridge is listed under both lines).

    Every engine folds these into its own representation: bit masks for
    the big-int engines, row arrays for PPSFP.  Bridged lines must be gate
    outputs; a bridged primary input is rejected here, once for all.
    """
    store: dict[int, StuckSplit] = {}
    pins: dict[tuple[int, int], StuckSplit] = {}
    bridges: dict[int, BridgeRules] = {}
    for index, fault in enumerate(faults):
        if isinstance(fault, StuckAtFault):
            if fault.pin is None:
                ones, zeros = store.setdefault(fault.gate, ([], []))
            else:
                ones, zeros = pins.setdefault((fault.gate, fault.pin), ([], []))
            (ones if fault.value else zeros).append(index)
            continue
        for line in (fault.line1, fault.line2):
            if netlist.gate(line).kind is GateType.INPUT:
                raise FaultSimulationError(
                    f"bridged primary input unsupported: {fault.site()}"
                )
        is_and = fault.kind is BridgeKind.AND
        bridges.setdefault(fault.line1, []).append((index, fault.line2, is_and))
        bridges.setdefault(fault.line2, []).append((index, fault.line1, is_and))
    return store, pins, bridges


def _bit_mask(indices: Iterable[int]) -> int:
    mask = 0
    for index in indices:
        mask |= 1 << index
    return mask


class _Batch:
    """A group of faults packed into one big-int word, with injection masks."""

    def __init__(self, netlist: Netlist, faults: Sequence[Fault]) -> None:
        if not faults:
            raise FaultSimulationError("a batch needs at least one fault")
        self.faults = list(faults)
        #: the all-ones word of this batch's width
        self.ones = (1 << len(self.faults)) - 1
        store, pins, bridges = injection_sites(netlist, self.faults)
        #: line -> (force_mask_1, force_mask_0) for stuck outputs
        self.store_force = {
            line: (_bit_mask(ones), _bit_mask(zeros))
            for line, (ones, zeros) in store.items()
        }
        #: (gate, pin) -> (force_mask_1, force_mask_0)
        self.pin_force = {
            key: (_bit_mask(ones), _bit_mask(zeros))
            for key, (ones, zeros) in pins.items()
        }
        #: line -> list of (mask, partner_line, is_and)
        self.bridges = {
            line: [(1 << index, partner, is_and) for index, partner, is_and in rules]
            for line, rules in bridges.items()
        }


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


def _simulate_test_on_batch(
    circuit: ScanCircuit,
    table: StateTable,
    batch: _Batch,
    test: ScanTest,
) -> int:
    """Detection mask (bit per fault) for one scan test."""
    netlist = circuit.netlist
    sv = circuit.n_state_variables
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
        good_state, good_out = table.step(good_state, combo)
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


def detects(
    circuit: ScanCircuit,
    table: StateTable,
    test: ScanTest,
    faults: Iterable[Fault],
) -> set[Fault]:
    """The subset of ``faults`` that ``test`` detects.

    Batches are sized adaptively from the fault count
    (:func:`repro.core.config.adaptive_batch_bits`); batch boundaries never
    change the result.
    """
    # Structural preflight, memoized per netlist: combinational cycles,
    # undriven nets, and arity violations would silently corrupt the
    # forward sweep below, so they are rejected up front.
    from repro.lint.preflight import preflight_netlist

    preflight_netlist(circuit.netlist, FaultSimulationError)
    fault_list = list(faults)
    batch_bits = adaptive_batch_bits(len(fault_list))
    found: set[Fault] = set()
    # Per-batch detection counts stay in a plain local list; the metrics
    # registry is consulted once per detects() call, after the hot loop.
    per_batch: list[int] = []
    for start in range(0, len(fault_list), batch_bits):
        chunk = fault_list[start : start + batch_bits]
        batch = _Batch(circuit.netlist, chunk)
        mask = _simulate_test_on_batch(circuit, table, batch, test)
        per_batch.append(mask.bit_count())
        while mask:
            low = (mask & -mask).bit_length() - 1
            found.add(chunk[low])
            mask &= mask - 1
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
