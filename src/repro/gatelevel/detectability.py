"""Exhaustive combinational detectability of gate-level faults.

Full scan makes every flip-flop controllable and observable, so a fault is
*detectable at all* exactly when some single input pattern (state bits +
primary inputs) produces a different combinational output (next-state bits +
primary outputs) in the faulty circuit.  The paper uses this exhaustive
oracle to show that its functional tests detect *all detectable* faults and
that the <100% coverage rows are due to combinationally redundant faults.

The check is pattern-parallel: the fault-free circuit is evaluated once over
all ``2**n`` patterns (64 per machine word); each fault then re-evaluates
only its fanout cone (:func:`output_difference_words`), chunk by chunk,
stopping at the first difference.  A scan test can only establish assigned
state codes, so callers judge over :func:`assigned_pattern_mask`.

This is the reference oracle.  Fault grading reads the same verdicts off
the PPSFP behavioral tables it builds anyway
(:meth:`repro.gatelevel.ppsfp.PpsfpSimulator.detectable_mask`) and runs
this cone re-simulation only for universes simulated by the big-int engine
(:func:`repro.gatelevel.dispatch.detectable_mask`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import FaultSimulationError
from repro.gatelevel.bridging import BridgeKind, BridgingFault
from repro.gatelevel.netlist import (
    ALL_ONES,
    GateType,
    Netlist,
    _evaluate_gate,
    exhaustive_pattern_words,
)
from repro.gatelevel.stuck_at import StuckAtFault

__all__ = [
    "assigned_pattern_mask",
    "detectable_faults",
    "fault_free_values",
    "output_difference_words",
]

Fault = StuckAtFault | BridgingFault


def fault_free_values(netlist: Netlist) -> np.ndarray:
    """Fault-free values of every line over all input patterns."""
    return netlist.evaluate(exhaustive_pattern_words(netlist.n_inputs))


def assigned_pattern_mask(encoding, n_primary_inputs: int) -> np.ndarray:
    """Word mask of patterns whose state code is assigned by ``encoding``.

    The combinational pattern space is ``2**(width + pi)`` with the state
    code in the high bits; a scan test can only establish assigned codes,
    which a :class:`~repro.fsm.encoding.StateEncoding` may place anywhere
    in the ``2**width`` space (e.g. Gray assignments).
    """
    from repro.gatelevel.netlist import pack_bits

    total = 1 << (encoding.width + n_primary_inputs)
    assigned = np.zeros(1 << encoding.width, dtype=bool)
    assigned[list(encoding.codes)] = True
    pattern_code = np.arange(total) >> n_primary_inputs
    return pack_bits(assigned[pattern_code])


def _seeds(netlist: Netlist, fault: Fault) -> tuple[int, ...]:
    """The gates whose outputs change first under ``fault``."""
    if isinstance(fault, StuckAtFault):
        return (fault.gate,)
    fanouts = netlist.fanouts()
    return tuple(sorted(set(fanouts[fault.line1]) | set(fanouts[fault.line2])))


def _with_cones(
    netlist: Netlist, faults: Iterable[Fault]
) -> Iterator[tuple[Fault, list[int]]]:
    """Each fault with its fanout cone (shared by faults with equal seeds)."""
    closures: dict[tuple[int, ...], list[int]] = {}
    for fault in faults:
        seeds = _seeds(netlist, fault)
        dirty = closures.get(seeds)
        if dirty is None:
            dirty = closures[seeds] = netlist.fanout_closure(seeds)
        yield fault, dirty


def _activation(ff: np.ndarray, fault: Fault, netlist: Netlist,
                lo: int, hi: int) -> np.ndarray:
    """Word mask of patterns where the fault changes its site value."""
    if isinstance(fault, StuckAtFault):
        if fault.pin is None:
            site = ff[fault.gate, lo:hi]
        else:
            site = ff[netlist.gate(fault.gate).fanins[fault.pin], lo:hi]
        forced = ALL_ONES if fault.value else np.uint64(0)
        return site ^ forced
    first = ff[fault.line1, lo:hi]
    second = ff[fault.line2, lo:hi]
    if fault.kind is BridgeKind.AND:
        bridged = first & second
    else:
        bridged = first | second
    return (first ^ bridged) | (second ^ bridged)


def output_difference_words(
    netlist: Netlist,
    ff: np.ndarray,
    fault: Fault,
    dirty: Sequence[int],
    lo: int = 0,
    hi: int | None = None,
) -> np.ndarray:
    """Word mask of the patterns in words ``[lo, hi)`` where ``fault``
    changes some output line.

    ``dirty`` is the fault's fanout cone in topological order (see
    :meth:`~repro.gatelevel.netlist.Netlist.fanout_closure`); only those
    gates are re-evaluated, every other line is read from the fault-free
    values ``ff``.  Output stuck-at forces the gate's value, pin stuck-at
    forces the read of that one pin, and an AND/OR bridge replaces both
    bridged lines by the wired function of their fault-free values.
    """
    if hi is None:
        hi = ff.shape[1]
    local: dict[int, np.ndarray] = {}
    bridge_lines: dict[int, np.ndarray] = {}
    if isinstance(fault, BridgingFault):
        first = ff[fault.line1, lo:hi]
        second = ff[fault.line2, lo:hi]
        bridged = (
            first & second if fault.kind is BridgeKind.AND else first | second
        )
        bridge_lines[fault.line1] = bridged
        bridge_lines[fault.line2] = bridged

    def read(line: int, reader: int, pin: int) -> np.ndarray:
        if line in bridge_lines:
            return bridge_lines[line]
        value = local.get(line)
        if value is None:
            value = ff[line, lo:hi]
        if (
            isinstance(fault, StuckAtFault)
            and fault.pin is not None
            and reader == fault.gate
            and pin == fault.pin
        ):
            return np.full_like(value, ALL_ONES if fault.value else 0)
        return value

    forced_gate = (
        fault.gate
        if isinstance(fault, StuckAtFault) and fault.pin is None
        else None
    )
    for index in dirty:
        gate = netlist.gate(index)
        if forced_gate == index:
            local[index] = np.full(
                hi - lo, ALL_ONES if fault.value else 0, dtype=np.uint64
            )
            continue
        if gate.kind is GateType.INPUT:
            local[index] = ff[index, lo:hi]
            continue
        fanin_values = [
            read(line, index, pin) for pin, line in enumerate(gate.fanins)
        ]
        local[index] = _evaluate_gate(gate.kind, fanin_values)
    difference = np.zeros(hi - lo, dtype=np.uint64)
    for line in netlist.outputs:
        if line in bridge_lines:
            effective = bridge_lines[line]
        else:
            effective = local.get(line)
            if effective is None:
                continue  # line untouched by the fault: cannot differ
        difference |= effective ^ ff[line, lo:hi]
    return difference


def detectable_faults(
    netlist: Netlist,
    faults: Iterable[Fault],
    chunk_words: int = 256,
    ff: np.ndarray | None = None,
    pattern_mask: np.ndarray | None = None,
) -> tuple[set[Fault], set[Fault]]:
    """Partition ``faults`` into (detectable, undetectable) sets.

    ``chunk_words`` trades memory for early exit: most faults are proven
    detectable within the first chunk of 64*chunk_words patterns.
    ``pattern_mask`` (see :func:`assigned_pattern_mask`) restricts the
    judgement to the patterns a scan test can actually establish; without
    it, patterns whose state code no state holds count too, which only
    agrees when every code is assigned.
    """
    if chunk_words < 1:
        raise FaultSimulationError("chunk_words must be >= 1")
    if ff is None:
        ff = fault_free_values(netlist)
    n_words = ff.shape[1]
    if pattern_mask is not None and pattern_mask.shape != (n_words,):
        raise FaultSimulationError(
            f"pattern_mask has {pattern_mask.shape} words, expected {n_words}"
        )
    detectable: set[Fault] = set()
    undetectable: set[Fault] = set()
    for fault, dirty in _with_cones(netlist, faults):
        found = False
        for lo in range(0, n_words, chunk_words):
            hi = min(lo + chunk_words, n_words)
            activation = _activation(ff, fault, netlist, lo, hi)
            if pattern_mask is not None:
                activation = activation & pattern_mask[lo:hi]
            if not np.any(activation):
                continue
            difference = output_difference_words(netlist, ff, fault, dirty, lo, hi)
            if pattern_mask is not None:
                difference &= pattern_mask[lo:hi]
            if np.any(difference):
                found = True
                break
        (detectable if found else undetectable).add(fault)
    return detectable, undetectable
