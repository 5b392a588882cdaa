"""Parallel-pattern single-fault propagation (PPSFP) fault simulation.

The interpreted reference (:mod:`repro.gatelevel.fault_sim`) packs
*faults* as bits of one word and pays one netlist sweep per clock cycle.
This module, the production engine, packs the other axis:
**patterns**, 64 per ``uint64`` lane, with faults stacked as numpy rows.
One exhaustive sweep of the netlist evaluates every ``2**(SV+PI)``
combinational input pattern for a whole slab of faulty machines at once,
which yields each fault's *complete behavioral table*: the faulty
next-state code and output combination for every (state code, input
combination) pair.  Because the combinational block is memoryless, those
tables determine the faulty machine exactly — including trajectories that
wander into unassigned state codes, which the tables cover because the
sweep enumerates all ``2**SV`` codes, not just the assigned ones.

The tables are one array, ``cells[fault, pattern] = next_code << PO |
output``, stored fault-major in the narrowest unsigned dtype that holds
``SV + PO`` bits (:func:`repro.core.config.table_cell_bytes`).  Each row
starts as the fault-free cells, and only the 64-pattern words in which some
next-state or output line of the fault differs are patched, by XOR.  The
same lanes give two fault bitsets per assigned (state, input) row, as
Python ints: the faults whose cell differs there (``differs``: the OR of
the next-state and output lines' ``faulty ^ good`` lanes), and the faults
whose outputs differ (``shows``: the output lines' alone).  One 64x64 bit
transpose per block of 64 faults and 64 patterns turns the per-fault lanes
into those per-row bitsets when the simulator is built.  The lanes differ
from the netlist's fault-free sweep, while detection is judged against the
state table; every build checks that the two agree on every assigned row.

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

Injection mirrors :class:`repro.gatelevel.fault_sim._Batch` semantics with
rows instead of bit masks:

* stuck-at on a gate output — the stored lane words of that fault's row
  are forced after the gate evaluates;
* stuck-at on a gate input pin — the read is forced only for that reader,
  via a copy-on-read of the fanin row;
* AND/OR bridging — each bridged line's row is overwritten at the store
  with ``line op partner`` over the *fault-free* values.  A row holds one
  fault, and neither bridged line is downstream of the other (paper
  condition 3), so both lines' bridge-free values in that row are the
  fault-free ones: the raw pass of the reference's two-pass scheme is the
  fault-free machine here.

Each slab of fault rows is built in one pass over only the gates in the
union of its faults' fanout cones (the slab's rows of
:meth:`repro.gatelevel.netlist.Netlist.reachability_matrix`); every other
line holds its fault-free value in every row and is read from one
fault-free sweep per pattern block.  A cone gate's values take a row of the
slab buffer from its evaluation to its last reader in the cone, after
which the row is reused; next-state and output lines keep theirs to the
end of the sweep.  The sweep is blocked along both axes: the pattern axis
in blocks of at most :data:`repro.core.config.DEFAULT_PPSFP_PATTERN_BLOCK`
patterns (multiples of 64) and the fault axis in slabs sized to
:data:`SLAB_BYTES_BUDGET`.  Blocking never changes results — patterns are
independent, and each fault row is its own machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.config import DEFAULT_PPSFP_PATTERN_BLOCK, table_cell_bytes
from repro.core.testset import ScanTest
from repro.errors import FaultSimulationError
from repro.fsm.state_table import StateTable
from repro.gatelevel.fault_sim import Fault, StuckSplit, injection_sites
from repro.gatelevel.netlist import (
    ALL_ONES,
    GateType,
    Netlist,
    exhaustive_pattern_words,
)
from repro.gatelevel.scan import ScanCircuit
from repro.obs.metrics import current_registry
from repro.obs.trace import span as trace_span

__all__ = ["PpsfpSimulator", "SLAB_BYTES_BUDGET"]

#: Working-set budget (bytes) that sizes the table build's slabs:
#: ``slab_rows`` fault rows of ``block_words`` lanes for every gate of the
#: netlist must fit here.  The value buffer holds only the rows live at once
#: in a slab's cone (:func:`_buffer_rows`), so it takes a fraction of the
#: budget: on ``log`` 204 of 868 gate rows.  Purely a speed/memory knob —
#: never affects results.
SLAB_BYTES_BUDGET = 64 << 20

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


def _buffer_rows(
    netlist: Netlist, gates: Sequence[int], keep: Iterable[int]
) -> tuple[dict[int, int], int]:
    """Slab buffer rows for a cone swept in topological order, and how many.

    A gate's row is taken before it is evaluated and given back after its
    last reader in the cone is, so a gate never writes the row of a fanin
    it reads; the lines of ``keep`` hold theirs to the end of the sweep.
    Every reader of a cone gate is in the cone (it is a fanout closure), so
    the rows in use are a subset of the netlist's live values at each step.
    """
    fanouts = netlist.fanouts()
    position = {gate: k for k, gate in enumerate(gates)}
    kept = set(keep)
    # position -> the gates whose last reader sits there
    released: dict[int, list[int]] = {}
    for k, gate in enumerate(gates):
        if gate not in kept:
            last = max((position[reader] for reader in fanouts[gate]), default=k)
            released.setdefault(last, []).append(gate)
    slot: dict[int, int] = {}
    free: list[int] = []
    n_slots = 0
    for k, gate in enumerate(gates):
        if free:
            slot[gate] = free.pop()
        else:
            slot[gate] = n_slots
            n_slots += 1
        free += (slot[done] for done in released.get(k, ()))
    return slot, n_slots


@dataclass
class _Slab:
    """Fault rows ``[lo, hi)``, their injection sites and their cones.

    The injection tables are :func:`injection_sites` over the slab's
    faults, with each stuck-at split as arrays of slab-local rows.
    """

    lo: int
    hi: int
    store: dict[int, tuple[np.ndarray, np.ndarray]]
    pins: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]
    bridges: dict[int, list[tuple[int, int, bool]]]
    #: gates reading a pin stuck-at fault of this slab
    pinned: set[int]
    #: the union of the faults' fanout cones, in topological order
    gates: list[int]
    #: gate -> its row of the slab's value buffer (:func:`_buffer_rows`)
    slot: dict[int, int]
    #: the buffer rows the sweep uses
    n_slots: int


def _slabs(
    circuit: ScanCircuit, faults: Sequence[Fault], slab_rows: int
) -> list[_Slab]:
    """The fault axis in slabs of ``slab_rows`` rows, with their cones."""
    netlist = circuit.netlist
    machine = circuit.circuit
    cell_lines = machine.next_state_lines + machine.primary_output_lines

    def rows(split: StuckSplit) -> tuple[np.ndarray, np.ndarray]:
        ones, zeros = split
        return (
            np.asarray(ones, dtype=np.int64),
            np.asarray(zeros, dtype=np.int64),
        )

    slabs = []
    for lo in range(0, len(faults), slab_rows):
        hi = min(lo + slab_rows, len(faults))
        store, pins, bridges = injection_sites(netlist, faults[lo:hi])
        pinned = {gate for gate, _ in pins}
        gates = netlist.fanout_closure({*store, *pinned, *bridges})
        slot, n_slots = _buffer_rows(netlist, gates, cell_lines)
        slabs.append(
            _Slab(
                lo,
                hi,
                {line: rows(split) for line, split in store.items()},
                {key: rows(split) for key, split in pins.items()},
                bridges,
                pinned,
                gates,
                slot,
                n_slots,
            )
        )
    return slabs


def _plan(
    circuit: ScanCircuit, faults: Sequence[Fault]
) -> tuple[list[_Slab], int, int]:
    """The build's slabs, the words of a pattern block, and all words.

    ``slab_rows`` is sized so that a row of ``block_words`` lanes for every
    gate of the netlist fits :data:`SLAB_BYTES_BUDGET`.
    """
    n_patterns = 1 << (circuit.n_state_variables + circuit.n_primary_inputs)
    n_words = max(1, n_patterns // 64)
    block_words = min(n_words, DEFAULT_PPSFP_PATTERN_BLOCK // 64)
    per_row_bytes = circuit.netlist.n_gates * block_words * 8
    slab_rows = max(1, min(len(faults), SLAB_BYTES_BUDGET // per_row_bytes))
    return _slabs(circuit, faults, slab_rows), block_words, n_words


class PpsfpSimulator:
    """Scan-test fault simulation via exhaustive per-fault behavioral tables.

    Drop-in for the interpreted reference
    :class:`repro.gatelevel.fault_sim.InterpretedSimulator` (``detect_mask``
    / ``detect_masks`` / ``detects``), with three extensions: an *empty*
    fault universe is allowed (every mask is 0), construction cost scales
    with ``faults x patterns`` instead of test length, and
    :meth:`detectable_mask` reads detectability off the tables.
    Construction builds ``cells[fault, pattern]`` and the difference bitsets
    ``differs[state][combo]`` and ``shows[state][combo]`` that both replay
    and detectability read.  Replaying a test costs one big-int AND per
    cycle plus one lookup per cycle of each fault off the fault-free
    trajectory.
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
        self.cells = np.empty((len(self.faults), self._n_patterns), self._dtype)
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
            slabs, blocks, diff_words = self._build_tables()
            span.set(slabs=slabs, blocks=blocks)
        registry = current_registry()
        if registry is not None:
            registry.counter("faultsim.ppsfp.tables").add(1)
            registry.counter("faultsim.ppsfp.fault_rows").add(len(self.faults))
            registry.counter("faultsim.ppsfp.pattern_words").add(
                max(1, self._n_patterns // 64) * len(self.faults)
            )
            registry.counter("faultsim.ppsfp.diff_words").add(diff_words)

    # ---------------------------------------------------------- table build

    def _build_tables(self) -> tuple[int, int, int]:
        """Fill ``cells``, ``differs`` and ``shows``; returns (slabs, pattern
        blocks, lane words in which some cell line differs)."""
        differs, shows, counts = self._sweep()
        patterns = self._assigned_patterns()
        n_combos = self.table.n_input_combinations
        self.differs = _bit_rows(differs, patterns, n_combos)
        # Free each lane array once its bitsets exist.
        del differs
        self.shows = _bit_rows(shows, patterns, n_combos)
        return counts

    def _sweep(self) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int]]:
        """Fill ``cells`` in one slab pass; returns the per-fault
        ``differs`` and ``shows`` lanes, and the counts of
        :meth:`_build_tables`."""
        netlist = self.circuit.netlist
        n_faults, n_patterns = len(self.faults), self._n_patterns
        slabs, block_words, n_words = _plan(self.circuit, self.faults)
        pattern_words = exhaustive_pattern_words(self._sv + self._pi)
        buffer = np.empty(
            (
                max(slab.n_slots for slab in slabs),
                max(slab.hi - slab.lo for slab in slabs),
                block_words,
            ),
            dtype=np.uint64,
        )
        # Per-fault lanes of the patterns where a cell (differs) or an
        # output (shows) differs, the fault axis padded for the transpose.
        padded = -(-n_faults // 64) * 64
        differs = np.zeros((padded, n_words), dtype=np.uint64)
        shows = np.zeros_like(differs)
        # A table of fewer than 64 patterns fills only the low bits of its
        # one word.  The bits above are patterns whose inputs are all 0, as
        # in pattern 0, so a lane differs there only where it differs at
        # pattern 0 too: they need no mask.
        lane = min(64, n_patterns)
        cell_words = self.cells.reshape(n_faults, n_words, lane)
        fault_free = np.empty(n_patterns, dtype=self._dtype)
        # Cell bits, MSB first: the next-state lines, then the outputs.
        machine = self.circuit.circuit
        outputs = machine.primary_output_lines
        lines = machine.next_state_lines + outputs
        shifts = range(len(lines) - 1, -1, -1)
        is_output = [False] * len(machine.next_state_lines) + [True] * len(outputs)
        diff_words = 0

        def cell_bits(lanes: np.ndarray, shift: int) -> np.ndarray:
            return np.left_shift(_unpack(lanes), shift, dtype=self._dtype)

        for word_lo in range(0, n_words, block_words):
            word_hi = min(word_lo + block_words, n_words)
            good = netlist.evaluate(
                [words[word_lo:word_hi] for words in pattern_words]
            )
            good_cells = np.zeros((word_hi - word_lo) * 64, dtype=self._dtype)
            for line, shift in zip(lines, shifts):
                good_cells |= cell_bits(good[line], shift)
            pattern_lo = word_lo * 64
            pattern_hi = min(pattern_lo + good_cells.size, n_patterns)
            fault_free[pattern_lo:pattern_hi] = good_cells[: pattern_hi - pattern_lo]
            # Every row starts fault-free; only differing words are patched.
            self.cells[:, pattern_lo:pattern_hi] = fault_free[pattern_lo:pattern_hi]
            for slab in slabs:
                n_rows, n_block = slab.hi - slab.lo, word_hi - word_lo
                values = buffer[: slab.n_slots, :n_rows, :n_block]
                self._forward(slab, good, values)
                changed = differs[slab.lo : slab.hi, word_lo:word_hi]
                deltas = []
                for line, shift, output in zip(lines, shifts, is_output):
                    if line in slab.slot:
                        delta = values[slab.slot[line]] ^ good[line]
                        changed |= delta
                        if output:
                            shows[slab.lo : slab.hi, word_lo:word_hi] |= delta
                        deltas.append((delta, shift))
                row, word = np.nonzero(changed)
                if not row.size:
                    continue
                diff_words += row.size
                patch = np.zeros((row.size, 64), dtype=self._dtype)
                for delta, shift in deltas:
                    patch |= cell_bits(delta[row, word], shift).reshape(-1, 64)
                cell_words[slab.lo + row, word_lo + word] ^= patch[:, :lane]
        self._check_fault_free(fault_free)
        return differs, shows, (len(slabs), -(-n_words // block_words), diff_words)

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

    def _forward(self, slab: _Slab, good: np.ndarray, values: np.ndarray) -> None:
        """One topological sweep of a slab's cone over one pattern block.

        Fills ``values`` (shape ``(buffer rows, slab rows, block words)``)
        in place, each gate at its ``slab.slot`` row; ``good`` holds every
        line's fault-free lanes, which lines outside the cone keep in every
        row.
        """
        slot = slab.slot
        netlist = self.circuit.netlist

        def read(line: int, reader: int, pin: int) -> np.ndarray:
            k = slot.get(line)
            value = good[line] if k is None else values[k]
            forced = slab.pins.get((reader, pin))
            if forced is not None:
                ones, zeros = forced
                value = np.array(np.broadcast_to(value, values.shape[1:]))
                if ones.size:
                    value[ones] = ALL_ONES
                if zeros.size:
                    value[zeros] = 0
            return value

        for index in slab.gates:
            gate = netlist.gate(index)
            fanins = gate.fanins
            out = values[slot[index]]
            if index not in slab.pinned and not any(f in slot for f in fanins):
                # Fault-free inputs: only the gate's own faults act here.
                out[:] = good[index]
            elif gate.kind is GateType.NOT:
                np.invert(read(fanins[0], index, 0), out=out)
            else:
                # All ufuncs write straight into the buffer row; a gate's row
                # is never a row it reads (_buffer_rows), so no aliasing.
                op = np.bitwise_and if gate.kind is GateType.AND else np.bitwise_or
                op(read(fanins[0], index, 0), read(fanins[1], index, 1), out=out)
                for pin in range(2, len(fanins)):
                    op(out, read(fanins[pin], index, pin), out=out)
            forced = slab.store.get(index)
            if forced is not None:
                ones, zeros = forced
                if ones.size:
                    out[ones] = ALL_ONES
                if zeros.size:
                    out[zeros] = 0
            for row, partner, is_and in slab.bridges.get(index, ()):
                op = np.bitwise_and if is_and else np.bitwise_or
                out[row] = op(good[index], good[partner])

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
        cells = memoryview(self.cells)
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
                        cell = cells[fault, code << pi | combo]
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
                        pattern = code_of[state] << pi | combo
                        while strayed:
                            low = strayed & -strayed
                            fault = low.bit_length() - 1
                            astray[fault] = cells[fault, pattern] >> po
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
