"""Parallel-pattern single-fault propagation (PPSFP) fault simulation.

The interpreted reference (:mod:`repro.gatelevel.fault_sim`) packs
*faults* as bits of one word and pays one netlist sweep per clock cycle.
This module, the production engine, packs the other axis:
**patterns**, 64 per ``uint64`` lane, with faults stacked as numpy rows.
One exhaustive sweep of the netlist evaluates every ``2**(SV+PI)``
combinational input pattern for every faulty machine of a chunk, which
yields each fault's *complete behavioral table*: the faulty next-state code
and output combination for every (state code, input combination) pair.
Because the combinational block is memoryless, those tables determine the
faulty machine exactly — including trajectories that wander into
unassigned state codes, which the tables cover because the sweep
enumerates all ``2**SV`` codes, not just the assigned ones.

A cell is ``next_code << PO | output``, in the narrowest unsigned dtype
that holds ``SV + PO`` bits (:func:`repro.core.config.table_cell_bytes`).
A fault's table equals the fault-free one except in the 64-pattern words
where some next-state or output line of the fault differs, so the tables
are kept sparse, in three arrays: ``fault_free[pattern]``, the fault-free
cells; ``word_rows[fault, word]``, the row of ``patched`` that holds the
fault's 64 cells of that word, or -1 where they are the fault-free ones;
and ``patched[row, 64]``, the patched words only.  The same lanes give two
fault bitsets per assigned (state, input) row, as Python ints: the faults
whose cell differs there (``differs``: the OR of the next-state and output
lines' ``faulty ^ good`` lanes), and the faults whose outputs differ
(``shows``: the output lines' alone).  One 64x64 bit transpose per block of
64 faults and 64 patterns turns the per-fault lanes into those per-row
bitsets when the simulator is built.  The lanes differ from the netlist's
fault-free sweep, while detection is judged against the state table; every
build checks that the two agree on every assigned row.

Simulating a scan test then costs no netlist evaluation at all.  A single
fault shows only where its run leaves the fault-free run, so a test walks
the fault-free trajectory and pays one AND per cycle, of the row's bitset
with the faults still on the trajectory.  An output difference detects a
fault.  Only the faults whose state left the trajectory without showing at
an output are looked up one by one, each from its own code's cell, until
an output difference detects it, it rejoins the trajectory, or the test
ends and scan-out compares its state.  That is exactly the observation
scheme of the interpreted reference, so detection masks are bit-identical
by construction; the test suite and the ``sim-ppsfp-vs-interpreted`` fuzz
oracle enforce this.  The OR of the ``differs`` bitsets says which faults
any scan test can detect at all (:meth:`PpsfpSimulator.detectable_mask`),
checked against the cone-resimulation oracle by the
``detectability-ppsfp-vs-cone`` fuzz oracle.

As in classic PPSFP, each fault is carried only through its own fanout
cone: its site's row of :meth:`repro.gatelevel.netlist.Netlist.reachability_matrix`,
or the OR of both bridged lines' rows.  The fault gets one value row for
each gate of its cone, a *pair*; every other line holds its fault-free
value and is read from one fault-free sweep per pattern block.  A slab's
pairs are ordered by their gate's group of
:meth:`~repro.gatelevel.netlist.Netlist.gate_tables` — (level, kind, fanin
count) — so each group is a range of rows, evaluated by one ``np.take`` per
fanin and an AND, OR or NOT over the whole range, whatever the number of
gates.  The pairs are enumerated in that order straight from the cone bits,
unpacked once per universe: one ``np.flatnonzero`` per group over the
group's columns, fault by fault.  A pair's sources are the rows of its
gate's fanins in the fault's machine: a fanin's pair when the fanin is in
the fault's cone, else its fault-free row.  A slab's int32 index of (fault,
line) holds exactly that row, so every fanin, injection-site and cell-line
lookup is one array read.  Each fault is injected by rewriting the sources
of its site pair, from the site arrays of
:func:`repro.gatelevel.fault_sim.injection_sites`:

* stuck-at on a gate output — the site reads the constant, padded with the
  gate's identity (the constant is inverted for a NOT gate);
* stuck-at on a gate input pin — that pin of the site reads the constant;
* AND/OR bridging — each bridged line reads the bridge's row, ``line op
  partner`` over the *fault-free* values (inverted for a NOT gate).  A row
  holds one fault, and neither bridged line is downstream of the other
  (paper condition 3), so both lines' bridge-free values in that row are
  the fault-free ones: the raw pass of the reference's two-pass scheme is
  the fault-free machine here.

The sweep is blocked along both axes: the pattern axis in blocks of at
most :data:`repro.core.config.DEFAULT_PPSFP_PATTERN_BLOCK` patterns
(multiples of 64) and the fault axis in slabs whose pair rows fit
:data:`SLAB_BYTES_BUDGET`.  Blocking never changes results — patterns are
independent, and each fault's pairs are its own machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.core.config import DEFAULT_PPSFP_PATTERN_BLOCK, table_cell_bytes
from repro.core.testset import ScanTest
from repro.errors import FaultSimulationError
from repro.fsm.state_table import StateTable
from repro.gatelevel.fault_sim import Fault, InjectionSites, injection_sites
from repro.gatelevel.netlist import (
    ALL_ONES,
    GateTables,
    GateType,
    exhaustive_pattern_words,
)
from repro.gatelevel.scan import ScanCircuit
from repro.obs.metrics import current_registry
from repro.obs.trace import span as trace_span

__all__ = ["PpsfpSimulator", "SLAB_BYTES_BUDGET"]

#: Working-set budget (bytes) that cuts the table build's fault slabs: the
#: pair rows of one slab, one row of a pattern block's lanes for each
#: (fault, gate of its cone), must fit here, and a slab holds one fault at
#: least.  The value buffer adds one row per line for the fault-free machine
#: and one per bridge.  Purely a speed/memory knob — never affects results.
SLAB_BYTES_BUDGET = 16 << 20

#: Fault bitsets of the assigned rows: one list per state, one Python int
#: per input combination.
_BitRows = list[list[int]]

#: The stages of the 64x64 bit transpose (:func:`_transpose_bits`): the
#: distance between paired rows, and the bits of the lower row that trade
#: places with the upper row's bits that far above them.
_SWAPS = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in (
        (32, 0x0000_0000_FFFF_FFFF),
        (16, 0x0000_FFFF_0000_FFFF),
        (8, 0x00FF_00FF_00FF_00FF),
        (4, 0x0F0F_0F0F_0F0F_0F0F),
        (2, 0x3333_3333_3333_3333),
        (1, 0x5555_5555_5555_5555),
    )
)


def _unpack(lanes: np.ndarray) -> np.ndarray:
    """One uint8 0/1 per pattern from uint64 lanes (last axis).

    uint64 lanes viewed as bytes unpack little-endian to pattern order: bit
    p of a lane is bit p%8 of byte p//8 on this (little-endian) platform,
    exactly what ``bitorder="little"`` reads.
    """
    lanes = np.ascontiguousarray(lanes)
    return np.unpackbits(lanes.view(np.uint8), axis=-1, bitorder="little")


def _transpose_bits(blocks: np.ndarray) -> None:
    """Transpose the 64x64 bit matrices ``blocks[b, :, w]`` in place.

    Afterwards bit ``i`` of ``blocks[b, j, w]`` is what bit ``j`` of
    ``blocks[b, i, w]`` was.  The word-level swap network: each stage swaps
    the off-diagonal quarters of every square of side ``2 * shift``, so six
    stages transpose every matrix with whole-array operations.
    """
    n_blocks, _, n_words = blocks.shape
    for shift, mask in _SWAPS:
        pairs = blocks.reshape(n_blocks, 32 // int(shift), 2, int(shift), n_words)
        upper, lower = pairs[:, :, 0], pairs[:, :, 1]
        swap = ((upper >> shift) ^ lower) & mask
        lower ^= swap
        upper ^= swap << shift


def _bit_rows(lanes: np.ndarray, patterns: np.ndarray, n_combos: int) -> _BitRows:
    """Per-pattern fault bitsets from per-fault pattern lanes.

    ``lanes[fault, word]`` holds patterns ``64 * word ...`` of one fault,
    with the fault axis padded to a multiple of 64; it is transposed in
    place.  Returns the bitsets of ``patterns`` (bit ``i`` is fault ``i``),
    ``n_combos`` per list.
    """
    n_blocks = lanes.shape[0] // 64
    blocks = lanes.reshape(n_blocks, 64, -1)
    _transpose_bits(blocks)
    # blocks[b, j, w] now holds faults 64 * b ... at pattern 64 * w + j.
    words = blocks.transpose(1, 2, 0)[patterns % 64, patterns // 64]
    width = n_blocks * 8
    data = memoryview(words.astype("<u8", copy=False).view(np.uint8).reshape(-1))
    bits = [
        int.from_bytes(data[at : at + width], "little")
        for at in range(0, len(data), width)
    ]
    return [bits[at : at + n_combos] for at in range(0, len(bits), n_combos)]


#: One step of a pair program: rows ``[start, end)`` of the value buffer get
#: the AND, OR or NOT of the rows each pin's source array names (a copy of
#: the one source for inputs and constants).
_Step = tuple[int, int, GateType, tuple[np.ndarray, ...]]

_OPS = {GateType.AND: np.bitwise_and, GateType.OR: np.bitwise_or}


def _run(
    steps: Sequence[_Step], values: np.ndarray, first: np.ndarray, other: np.ndarray
) -> None:
    """Evaluate ``steps`` in order on ``values`` (buffer rows x block words).

    ``first`` and ``other`` are scratch rows of the same width, as many as
    the largest step has.  A step's sources are rows of earlier steps or of
    the rows no step writes, never its own, so each step reads settled rows.
    """
    for start, end, kind, sources in steps:
        out = values[start:end]
        acc = first[: end - start]
        np.take(values, sources[0], axis=0, out=acc, mode="clip")
        if kind is GateType.NOT:
            np.invert(acc, out=out)
        elif len(sources) == 1:
            out[...] = acc
        else:
            op = _OPS[kind]
            pin = other[: end - start]
            last = len(sources) - 1
            for k in range(1, last + 1):
                np.take(values, sources[k], axis=0, out=pin, mode="clip")
                op(acc, pin, out=out if k == last else acc)


#: Bytes of the rows one step writes: a group is evaluated in pieces this
#: large, so that a piece's scratch rows stay in the core's cache.  On
#: nucpwr and log, pieces of 64-256 rows of 128 words built about 1.4x
#: faster than whole groups, and 32 rows slower again.
_STEP_BYTES = 128 << 10


class _Layout(NamedTuple):
    """Where a slab's value buffer keeps the rows past its pair rows: each
    line's fault-free row at ``good + line``, the all-ones and the zero
    row, then the bridge rows."""

    good: int
    ones: int
    zero: int
    bridges: int


@dataclass
class _Program:
    """The pair program of one slab: the faults ``[lo, hi)``.

    Pair row ``r`` of the value buffer holds slab-local fault ``faults[r]``
    at gate ``gates[r]``.
    """

    lo: int
    hi: int
    faults: np.ndarray
    gates: np.ndarray
    #: the bridge rows, then the pair groups in program order
    steps: list[_Step]
    #: the pairs of next-state and output lines, fault-major: the pair's
    #: row and its line's fault-free row
    cell_rows: np.ndarray
    cell_good: np.ndarray
    #: the slab-local faults that have such pairs, where each one's pairs
    #: start, and ``cell_at[k, c]``: the pair of ``cell_faults[k]`` at cell
    #: line ``c``, or ``len(cell_rows)`` where the line is not in its cone
    cell_faults: np.ndarray
    cell_starts: np.ndarray
    cell_at: np.ndarray
    #: the output lines' pairs among them, their faults and starts
    shown: np.ndarray
    shown_faults: np.ndarray
    shown_starts: np.ndarray


def _steps(
    start: int, kind: GateType, sources: np.ndarray, rows: int
) -> list[_Step]:
    """Steps writing rows ``start ...`` with ``kind`` over ``sources`` (one
    row per written row, one column per pin), ``rows`` rows at most each."""
    return [
        (
            start + lo,
            start + lo + len(piece),
            kind,
            tuple(np.ascontiguousarray(column, dtype=np.intp) for column in piece.T),
        )
        for lo in range(0, len(sources), rows)
        for piece in (sources[lo : lo + rows],)
    ]


def _cone_bits(cones: np.ndarray, n_gates: int) -> np.ndarray:
    """One bool per (fault, gate) from packed reachability rows."""
    packed = cones.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(packed, axis=1, bitorder="little")[:, :n_gates].view(bool)


def _slabs(sizes: np.ndarray, pair_limit: int) -> list[tuple[int, int]]:
    """Faults of ``sizes`` pairs each, cut greedily in order into slabs of
    at most ``pair_limit`` pairs and one fault at least: ``(lo, hi)`` each."""
    ends = np.cumsum(sizes)
    bounds = []
    lo = 0
    while lo < ends.size:
        before = int(ends[lo - 1]) if lo else 0
        # A fault holds one pair at least, so at most pair_limit faults fit.
        fits = np.count_nonzero(ends[lo : lo + pair_limit] <= before + pair_limit)
        hi = lo + max(1, int(fits))
        bounds.append((lo, hi))
        lo = hi
    return bounds


class _Pairs(NamedTuple):
    """A slab's pairs, in program order."""

    #: each pair's slab-local fault and gate (int32)
    faults: np.ndarray
    gates: np.ndarray
    #: ``(group, start, end)``: the pair rows of each group the slab holds
    groups: list[tuple[int, int, int]]


def _pairs(bits: np.ndarray, tables: GateTables) -> _Pairs:
    """The pairs of the faults whose cone bits are ``bits`` (fault x gate).

    Each group's columns, taken in :attr:`GateTables.order`, give its pairs
    by one ``np.flatnonzero``: group by group, and in a group fault by
    fault, each fault's gates ascending.
    """
    faults, gates, groups = [], [], []
    start = 0
    for number, (lo, hi) in enumerate(zip(tables.starts, tables.starts[1:])):
        columns = tables.order[lo:hi]
        fault, column = np.divmod(np.flatnonzero(bits[:, columns]), hi - lo)
        if fault.size:
            faults.append(fault.astype(np.int32))
            gates.append(columns[column].astype(np.int32))
            groups.append((number, start, start + fault.size))
            start += fault.size
    return _Pairs(np.concatenate(faults), np.concatenate(gates), groups)


class _Lines(NamedTuple):
    """What every slab's program reads of the netlist's lines."""

    tables: GateTables
    #: ``tables.fanins`` as int32: pin ``j``'s line of gate ``g``, or -1
    fanins: np.ndarray
    #: whether each gate is a NOT gate
    is_not: np.ndarray
    #: the row a forced gate's other pins read: its kind's identity, the
    #: zero row for an OR gate and the all-ones row otherwise
    identity: np.ndarray
    #: the cell lines: the next-state lines, then the output lines
    cells: np.ndarray
    n_next: int


def _programs(
    circuit: ScanCircuit, faults: Sequence[Fault], block_words: int
) -> tuple[list[_Program], _Layout, int]:
    """The slabs' pair programs, the buffer layout they share, and the
    buffer's rows.

    Slabs are cut greedily in fault order, each at the pairs whose rows of
    ``block_words`` lanes fit :data:`SLAB_BYTES_BUDGET`.  The cone bits are
    unpacked once, and each slab's pairs enumerated from them, before any
    program builds its pair index.
    """
    netlist = circuit.netlist
    n_gates = netlist.n_gates
    tables = netlist.gate_tables()
    is_not = np.asarray([kind is GateType.NOT for kind in tables.kinds])[tables.group]
    sites = injection_sites(netlist, faults)
    reach = netlist.reachability_matrix()
    bits = _cone_bits(reach[sites.site] | reach[sites.partner], n_gates)
    pair_limit = max(1, SLAB_BYTES_BUDGET // (8 * block_words))
    bounds = _slabs(np.count_nonzero(bits, axis=1), pair_limit)
    pairs = [_pairs(bits[lo:hi], tables) for lo, hi in bounds]
    # An index holds 4 bytes per (fault, gate), the bits one: free them first.
    del bits
    good = max(slab.faults.size for slab in pairs)
    layout = _Layout(good, good + n_gates, good + n_gates + 1, good + n_gates + 2)
    # A bridge needs its row, and one inverted row per bridged NOT gate.
    bridge_rows = np.where(
        sites.bridge >= 0, 1 + is_not[sites.site] + is_not[sites.partner], 0
    )
    n_rows = layout.bridges + max(int(bridge_rows[lo:hi].sum()) for lo, hi in bounds)
    is_or = np.asarray([kind is GateType.OR for kind in tables.kinds])[tables.group]
    machine = circuit.circuit
    lines = _Lines(
        tables,
        tables.fanins.astype(np.int32),
        is_not,
        np.where(is_or, np.int32(layout.zero), np.int32(layout.ones)),
        np.asarray(
            machine.next_state_lines + machine.primary_output_lines, dtype=np.int64
        ),
        len(machine.next_state_lines),
    )
    step_rows = max(1, _STEP_BYTES // (8 * block_words))
    programs = [
        _program(
            lines,
            lo,
            InjectionSites(*(column[lo:hi] for column in sites)),
            slab,
            layout,
            step_rows,
        )
        for (lo, hi), slab in zip(bounds, pairs)
    ]
    return programs, layout, n_rows


def _program(
    lines: _Lines,
    lo: int,
    sites: InjectionSites,
    pairs: _Pairs,
    layout: _Layout,
    step_rows: int,
) -> _Program:
    """The pair program of the faults ``lo ...`` with ``sites`` and
    ``pairs``."""
    tables = lines.tables
    n_faults = sites.site.size
    n_gates = lines.fanins.shape[0]
    fault_of, gate_of = pairs.faults, pairs.gates
    # at[fault, line]: the row the slab-local fault's machine reads the line
    # from, its pair where the line is in the fault's cone and the line's
    # fault-free row elsewhere.  Pair rows lie below layout.good.
    at = np.empty((n_faults, n_gates), dtype=np.int32)
    at[...] = layout.good + np.arange(n_gates, dtype=np.int32)
    at[fault_of, gate_of] = np.arange(fault_of.size, dtype=np.int32)

    # Each pin reads its fanin's row in the fault's machine.  A pad pin, -1
    # in the fanin table, reads some row that no step keeps, except the one
    # pin of a gate without fanins: it copies the gate's fault-free row.
    keys = fault_of[:, None] * np.int32(n_gates) + lines.fanins[gate_of]
    sources = at.ravel().take(keys, mode="clip")
    del keys
    for number, start, end in pairs.groups:
        if not tables.n_fanins[number]:
            sources[start:end, 0] = layout.good + gate_of[start:end]

    # Injection: a pin stuck-at's pin reads the constant.
    constant = np.where(sites.value == 1, np.int32(layout.ones), np.int32(layout.zero))
    pinned = np.flatnonzero(sites.pin >= 0)
    sources[at[pinned, sites.site[pinned]], sites.pin[pinned]] = constant[pinned]
    # Bridge rows: the AND-type bridges', then the OR-type ones'.
    bridged = np.concatenate(
        [np.flatnonzero(sites.bridge == 1), np.flatnonzero(sites.bridge == 0)]
    )
    own_row = np.empty(n_faults, dtype=np.int32)
    own_row[bridged] = layout.bridges + np.arange(bridged.size)
    n_and = int((sites.bridge == 1).sum())
    ends = layout.good + np.stack([sites.site[bridged], sites.partner[bridged]], 1)
    steps = _steps(layout.bridges, GateType.AND, ends[:n_and], step_rows)
    steps += _steps(layout.bridges + n_and, GateType.OR, ends[n_and:], step_rows)
    # An output stuck-at's site and both bridged lines read the forced value,
    # padded with the gate's identity; a NOT gate reads it inverted: the
    # other constant, or an inverted bridge row.
    outputs = np.flatnonzero((sites.pin < 0) & (sites.bridge < 0))
    fault = np.concatenate([outputs, bridged, bridged])
    line = np.concatenate(
        [sites.site[outputs], sites.site[bridged], sites.partner[bridged]]
    )
    value = np.concatenate([constant[outputs], own_row[bridged], own_row[bridged]])
    flip = lines.is_not[line]
    from_bridge = np.arange(fault.size) >= outputs.size
    inverted = np.flatnonzero(flip & from_bridge)
    start = layout.bridges + bridged.size
    steps += _steps(start, GateType.NOT, value[inverted, None], step_rows)
    value[inverted] = start + np.arange(inverted.size)
    flipped = flip & ~from_bridge
    value[flipped] = layout.ones + layout.zero - value[flipped]
    forced = at[fault, line]
    sources[forced, 0] = value
    sources[forced, 1:] = lines.identity[line][:, None]

    # The pair groups, in program order.
    for number, start, end in pairs.groups:
        width = max(1, tables.n_fanins[number])
        steps += _steps(
            start, tables.kinds[number], sources[start:end, :width], step_rows
        )

    # The pairs of the cell lines, fault-major, and where each fault's pairs
    # and its output lines' pairs start.
    cell_row = at[:, lines.cells]
    del at
    has_line = cell_row < layout.good
    owner, position = np.nonzero(has_line)
    counts = has_line.sum(axis=1)
    cell_faults = np.flatnonzero(counts)
    numbered = np.full(has_line.shape, owner.size, dtype=np.int64)
    numbered[owner, position] = np.arange(owner.size)
    seen = has_line[:, lines.n_next :].sum(axis=1)
    shown_faults = np.flatnonzero(seen)
    return _Program(
        lo,
        lo + n_faults,
        fault_of,
        gate_of,
        steps,
        cell_row[owner, position],
        layout.good + lines.cells[position],
        cell_faults,
        (np.cumsum(counts) - counts)[cell_faults],
        numbered[cell_faults],
        np.flatnonzero(position >= lines.n_next),
        shown_faults,
        (np.cumsum(seen) - seen)[shown_faults],
    )


class PpsfpSimulator:
    """Scan-test fault simulation via exhaustive per-fault behavioral tables.

    Drop-in for the interpreted reference
    :class:`repro.gatelevel.fault_sim.InterpretedSimulator` (``detect_mask``
    / ``detect_masks`` / ``detects``), with three extensions: an *empty*
    fault universe is allowed (every mask is 0), construction cost scales
    with the faults' cones x patterns instead of test length, and
    :meth:`detectable_mask` reads detectability off the tables.
    Construction builds the sparse tables ``fault_free``, ``word_rows`` and
    ``patched`` and the difference bitsets ``differs[state][combo]`` and
    ``shows[state][combo]`` that both replay and detectability read.
    Replaying a test costs one big-int AND per cycle plus one lookup per
    cycle of each fault off the fault-free trajectory.
    """

    def __init__(
        self,
        circuit: ScanCircuit,
        table: StateTable,
        faults: Sequence[Fault],
    ) -> None:
        from repro.lint.preflight import preflight_netlist

        preflight_netlist(circuit.netlist, FaultSimulationError)
        self.circuit = circuit
        self.table = table
        self.faults = list(faults)
        self.ones = (1 << len(self.faults)) - 1
        sv = circuit.n_state_variables
        pi = circuit.n_primary_inputs
        po = circuit.n_primary_outputs
        cell_bytes = table_cell_bytes(sv + po)
        if cell_bytes is None:
            raise FaultSimulationError(
                "PPSFP cells hold a next-state code and an output combination "
                f"in at most 64 bits; {sv} state + {po} output bits exceed that"
            )
        self._sv, self._pi, self._po = sv, pi, po
        self._dtype = np.dtype(f"u{cell_bytes}")
        self._n_patterns = 1 << (sv + pi)
        self._code_of = list(circuit.encoding.codes)
        n_words = max(1, self._n_patterns // 64)
        #: the fault-free cells (empty for an empty universe)
        self.fault_free = np.empty(0, self._dtype)
        #: each fault's row of ``patched`` for each 64-pattern word, or -1
        #: where its cells there are the fault-free ones
        self.word_rows = np.full((len(self.faults), n_words), -1, dtype=np.int32)
        #: the patched words, 64 cells each
        self.patched = np.empty((0, 64), self._dtype)
        no_faults = [[0] * table.n_input_combinations for _ in range(table.n_states)]
        self.differs: _BitRows = no_faults
        self.shows: _BitRows = no_faults
        if not self.faults:
            return
        with trace_span(
            "faultsim.ppsfp.build",
            circuit=circuit.name,
            n_faults=len(self.faults),
            n_patterns=self._n_patterns,
        ) as span:
            slabs, blocks, diff_words, pairs = self._build_tables()
            span.set(slabs=slabs, blocks=blocks, pairs=pairs)
        registry = current_registry()
        if registry is not None:
            registry.counter("faultsim.ppsfp.tables").add(1)
            registry.counter("faultsim.ppsfp.fault_rows").add(len(self.faults))
            registry.counter("faultsim.ppsfp.pattern_words").add(
                n_words * len(self.faults)
            )
            registry.counter("faultsim.ppsfp.diff_words").add(diff_words)
            registry.counter("faultsim.ppsfp.pairs").add(pairs)

    # ---------------------------------------------------------- table build

    def _build_tables(self) -> tuple[int, int, int, int]:
        """Fill the tables, ``differs`` and ``shows``; returns (slabs, pattern
        blocks, lane words in which some cell line differs, pairs)."""
        differs, shows, patched, counts = self._sweep()
        # The sweep's value buffer and scratch rows are freed by now, so
        # the patched words are joined without them.
        if patched:
            self.patched = np.concatenate(patched)
        del patched
        patterns = self._assigned_patterns()
        n_combos = self.table.n_input_combinations
        self.differs = _bit_rows(differs, patterns, n_combos)
        # Free each lane array once its bitsets exist.
        del differs
        self.shows = _bit_rows(shows, patterns, n_combos)
        return counts

    def _sweep(
        self,
    ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], tuple[int, int, int, int]]:
        """Fill ``fault_free`` and ``word_rows`` in one pass of every slab's
        pair program per pattern block; returns the per-fault ``differs``
        and ``shows`` lanes, the patched words in row order, and the counts
        of :meth:`_build_tables`."""
        netlist = self.circuit.netlist
        n_faults, n_patterns = len(self.faults), self._n_patterns
        pattern_words = exhaustive_pattern_words(self._sv + self._pi)
        n_words = self.word_rows.shape[1]
        block_words = min(n_words, DEFAULT_PPSFP_PATTERN_BLOCK // 64)
        programs, layout, n_rows = _programs(self.circuit, self.faults, block_words)
        buffer = np.empty((n_rows, block_words), dtype=np.uint64)
        buffer[layout.ones] = ALL_ONES
        buffer[layout.zero] = 0
        widest = max(end - start for p in programs for start, end, _, _ in p.steps)
        scratch = np.empty((2, widest, block_words), dtype=np.uint64)
        # The cell lines' faulty ^ good lanes, and a zero row past them.
        n_cells = max(p.cell_rows.size for p in programs)
        deltas = np.empty((2, n_cells + 1, block_words), dtype=np.uint64)
        # Per-fault lanes of the patterns where a cell (differs) or an
        # output (shows) differs, the fault axis padded for the transpose.
        padded = -(-n_faults // 64) * 64
        differs = np.zeros((padded, n_words), dtype=np.uint64)
        shows = np.zeros_like(differs)
        # A table of fewer than 64 patterns fills only the low bits of its
        # one word.  The bits above are patterns whose inputs are all 0, as
        # in pattern 0, so a lane differs there only where it differs at
        # pattern 0 too: they need no mask.
        fault_free = np.zeros(n_words * 64, dtype=self._dtype)
        free_words = fault_free.reshape(n_words, 64)
        # Cell bits, MSB first: the next-state lines, then the outputs.
        machine = self.circuit.circuit
        lines = machine.next_state_lines + machine.primary_output_lines
        shifts = range(len(lines) - 1, -1, -1)
        one = self._dtype.type(1)
        patched = []
        n_patched = 0

        for word_lo in range(0, n_words, block_words):
            word_hi = min(word_lo + block_words, n_words)
            n_block = word_hi - word_lo
            values = buffer[:, :n_block]
            first, other = scratch[:, :, :n_block]
            good = values[layout.good : layout.good + netlist.n_gates]
            good[...] = netlist.evaluate(
                [words[word_lo:word_hi] for words in pattern_words]
            )
            good_cells = fault_free[word_lo * 64 : word_hi * 64]
            for line, shift in zip(lines, shifts):
                good_cells |= np.left_shift(
                    _unpack(good[line]), shift, dtype=self._dtype
                )
            for program in programs:
                _run(program.steps, values, first, other)
                n_cell = program.cell_rows.size
                if not n_cell:
                    continue
                delta, fault_free_lanes = deltas[:, : n_cell + 1, :n_block]
                np.take(values, program.cell_rows, 0, delta[:-1], "clip")
                np.take(values, program.cell_good, 0, fault_free_lanes[:-1], "clip")
                delta[:-1] ^= fault_free_lanes[:-1]
                delta[-1] = 0
                lanes = np.bitwise_or.reduceat(delta, program.cell_starts, axis=0)
                differs[program.lo + program.cell_faults, word_lo:word_hi] = lanes
                if program.shown.size:
                    shows[program.lo + program.shown_faults, word_lo:word_hi] = (
                        np.bitwise_or.reduceat(
                            delta[program.shown], program.shown_starts, axis=0
                        )
                    )
                fault, word = np.nonzero(lanes)
                if not fault.size:
                    continue
                # A differing word is the fault-free cells XOR its lines'
                # differing bits, gathered MSB first into each of its cells,
                # one line at a time.
                line_rows = program.cell_at[fault]
                patch = free_words[word_lo + word]
                change = np.zeros_like(patch)
                for column in line_rows.T:
                    change <<= one
                    change |= _unpack(delta[column, word][:, None])
                patch ^= change
                owners = program.lo + program.cell_faults[fault]
                rows = n_patched + np.arange(fault.size)
                self.word_rows[owners, word_lo + word] = rows
                patched.append(patch)
                n_patched += fault.size
        self.fault_free = fault_free[:n_patterns]
        self._check_fault_free(self.fault_free)
        n_pairs = sum(program.faults.size for program in programs)
        n_blocks = -(-n_words // block_words)
        return differs, shows, patched, (len(programs), n_blocks, n_patched, n_pairs)

    def _assigned_patterns(self) -> np.ndarray:
        """The pattern of every assigned (state, input) row, state-major."""
        codes = np.asarray(self._code_of, dtype=np.int64)
        combos = np.arange(self.table.n_input_combinations)
        return ((codes[:, None] << self._pi) | combos).reshape(-1)

    def _check_fault_free(self, fault_free: np.ndarray) -> None:
        """Raise unless the netlist's fault-free cells equal the state
        table's on every assigned row.

        The difference lanes are taken against the netlist's fault-free
        sweep, while detection is judged against the state table, so the
        bitsets mean "differs from the fault-free machine" only where the
        two agree.
        """
        codes = np.asarray(self._code_of, dtype=np.int64)
        next_codes = codes[np.asarray(self.table.next_state)]
        want = (next_codes << self._po | np.asarray(self.table.output)).reshape(-1)
        got = fault_free[self._assigned_patterns()]
        wrong = np.flatnonzero(got != want)
        if wrong.size:
            state, combo = divmod(int(wrong[0]), self.table.n_input_combinations)
            raise FaultSimulationError(
                f"the netlist's fault-free cell {int(got[wrong[0]])} disagrees "
                f"with the state table's {int(want[wrong[0]])} at state {state}, "
                f"input {combo} ({wrong.size} assigned rows disagree)"
            )

    # ------------------------------------------------------------ execution

    def detect_mask(self, test: ScanTest) -> int:
        """Bit mask (over the fault universe) of faults ``test`` detects."""
        return self.detect_masks([test])[0]

    def detect_masks(self, tests: Sequence[ScanTest]) -> list[int]:
        """Detection masks for many tests, one per test.

        Each test walks the fault-free trajectory through the state table.
        A cycle costs one AND of its row's ``differs`` bitset with the
        faults still on the trajectory: a fault in it whose outputs differ
        (``shows``) is detected, and any other has left the trajectory with
        its state alone.  Only those astray faults are looked up one by
        one, each from its own state code's cell, until an output
        difference detects it, its next state rejoins the trajectory, or
        the test ends and the scan-out compare detects the state still
        astray.  At a test's last cycle every difference is detected, so no
        faulty code is read there.
        """
        n_tests = len(tests)
        if not self.faults or not n_tests:
            return [0] * n_tests
        differs, shows = self.differs, self.shows
        next_rows, output_rows = self.table.next_rows, self.table.output_rows
        code_of, pi, po = self._code_of, self._pi, self._po
        out_mask = (1 << po) - 1
        # A fault's cell is its patched word's, if it has one there.
        fault_free = memoryview(self.fault_free)
        word_rows = memoryview(self.word_rows)
        patched = memoryview(self.patched)
        masks = []
        cycles = astray_steps = 0
        for test in tests:
            state, inputs = test.initial_state, test.inputs
            last = len(inputs) - 1
            on, detected = self.ones, 0
            # fault -> the state code it holds off the fault-free trajectory,
            # for faults that have not shown at an output yet
            astray: dict[int, int] = {}
            for cycle, combo in enumerate(inputs):
                moved = differs[state][combo] & on
                if astray:
                    astray_steps += len(astray)
                    good = (
                        code_of[next_rows[state][combo]] << po
                        | output_rows[state][combo]
                    )
                    stepped: dict[int, int] = {}
                    for fault, code in astray.items():
                        pattern = code << pi | combo
                        row = word_rows[fault, pattern >> 6]
                        if row < 0:
                            cell = fault_free[pattern]
                        else:
                            cell = patched[row, pattern & 63]
                        if cell == good:
                            on |= 1 << fault
                        elif cycle == last or (cell ^ good) & out_mask:
                            detected |= 1 << fault
                        else:
                            stepped[fault] = cell >> po
                    astray = stepped
                if moved:
                    on ^= moved
                    if cycle == last:
                        detected |= moved
                    else:
                        shown = shows[state][combo] & moved
                        detected |= shown
                        strayed = moved ^ shown
                        # A fault's cell differs here, so its word is patched.
                        pattern = code_of[state] << pi | combo
                        word, column = pattern >> 6, pattern & 63
                        while strayed:
                            low = strayed & -strayed
                            fault = low.bit_length() - 1
                            row = word_rows[fault, word]
                            astray[fault] = patched[row, column] >> po
                            strayed ^= low
                state = next_rows[state][combo]
            cycles += last + 1
            masks.append(detected)
        registry = current_registry()
        if registry is not None:
            registry.counter("faultsim.ppsfp.cycles").add(cycles)
            registry.counter("faultsim.ppsfp.astray_steps").add(astray_steps)
        return masks

    def detectable_mask(self) -> int:
        """Bit mask (over the fault universe) of the faults some scan test
        detects.

        Under full scan a test can load any assigned state code, apply any
        input combination and observe the next state and the outputs, so a
        fault is detectable exactly when its cell differs from the
        fault-free machine's in some (assigned code, input) row — the same
        verdict as :func:`repro.gatelevel.detectability.detectable_faults`
        under :func:`~repro.gatelevel.detectability.assigned_pattern_mask`.
        That is the OR of the rows' ``differs`` bitsets, the ones
        :meth:`detect_masks` replays tests with.
        """
        mask = 0
        for row in self.differs:
            for faults in row:
                mask |= faults
        return mask

    def detects(self, test: ScanTest) -> frozenset[Fault]:
        """The set of universe faults ``test`` detects."""
        mask = self.detect_mask(test)
        found = []
        while mask:
            low = (mask & -mask).bit_length() - 1
            found.append(self.faults[low])
            mask &= mask - 1
        registry = current_registry()
        if registry is not None:
            registry.counter("faultsim.ppsfp.calls").add(1)
            registry.counter("faultsim.ppsfp.detected").add(len(found))
        return frozenset(found)

    def make_effective_simulator(
        self,
    ) -> Callable[[ScanTest, frozenset[Fault]], set[Fault]]:
        """A ``simulate(test, remaining)`` closure for
        :func:`repro.core.compaction.select_effective_tests`.

        Simulates the full universe (per-fault detection is row-independent)
        and intersects with the caller's remaining set.
        """

        def simulate(test: ScanTest, remaining: frozenset[Fault]) -> set[Fault]:
            return set(self.detects(test)) & set(remaining)

        return simulate
