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

The tables are one array, ``cells[pattern, fault] = next_code << PO |
output``, stored pattern-major in the narrowest unsigned dtype that holds
``SV + PO`` bits (:func:`repro.core.config.table_cell_bytes`).  Simulating a
scan test then costs no netlist evaluation at all.  Once per simulator,
every assigned (state, input) row of ``cells`` is compared with the
fault-free cell from the functional state table, which gives two fault
bitsets per row, as Python ints: the faults whose cell differs there, and
the faults whose outputs differ.  A single fault shows only where its run
leaves the fault-free run, so a test walks the fault-free trajectory and
pays one AND per cycle, of the row's bitset with the faults still on the
trajectory.  An output difference detects a fault.  Only the faults whose
state left the trajectory without showing at an output are looked up one
by one, each from its own code's cell, until an output difference detects
it, it rejoins the trajectory, or the test ends and scan-out compares its
state.  That is exactly the observation scheme of the interpreted
reference, so detection masks are bit-identical by construction; the test
suite and the ``sim-ppsfp-vs-interpreted`` fuzz oracle enforce this.  The OR of the first
bitsets says which faults any scan test can detect at all
(:meth:`PpsfpSimulator.detectable_mask`): a fault whose cell differs in
some assigned row, checked against the cone-resimulation oracle by the
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
fault-free sweep per pattern block.  The sweep is blocked along both
axes: the pattern axis in blocks of at most
:data:`repro.core.config.DEFAULT_PPSFP_PATTERN_BLOCK` patterns (multiples
of 64) and the fault axis in slabs sized to :data:`SLAB_BYTES_BUDGET`.
Blocking never changes results — patterns are independent, and each fault
row is its own machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.config import adaptive_batch_bits, table_cell_bytes
from repro.core.testset import ScanTest
from repro.errors import FaultSimulationError
from repro.fsm.state_table import StateTable
from repro.gatelevel.fault_sim import Fault, StuckSplit, injection_sites
from repro.gatelevel.netlist import ALL_ONES, GateType, exhaustive_pattern_words
from repro.gatelevel.scan import ScanCircuit
from repro.obs.metrics import current_registry
from repro.obs.trace import span as trace_span

__all__ = ["PpsfpSimulator", "SLAB_BYTES_BUDGET"]

#: Working-set budget (bytes) for one table-build slab: the transient
#: ``(cone gates, slab_rows, block_words)`` value array must fit here even
#: when the cone is the whole netlist, which sizes ``slab_rows``.  Purely a
#: speed/memory knob — never affects results.
SLAB_BYTES_BUDGET = 64 << 20


#: Cells per block of the (row, fault) compare that derives the difference
#: bitsets (:meth:`PpsfpSimulator._differences`), which bounds its
#: temporaries.  Never affects results.
DERIVE_BLOCK_CELLS = 1 << 20

#: Fault bitsets of the assigned rows: one list per state, one Python int
#: per input combination.
_BitRows = list[list[int]]


def _pack_rows(flags: np.ndarray) -> list[int]:
    """One Python int per row of ``flags``, whose bit ``i`` is column ``i``
    (the fault-bit order)."""
    packed = np.packbits(flags, axis=1, bitorder="little")
    width = packed.shape[1]
    data = memoryview(packed.tobytes())
    return [
        int.from_bytes(data[at : at + width], "little")
        for at in range(0, len(data), width)
    ]


def _unpack(lanes: np.ndarray) -> np.ndarray:
    """One uint8 0/1 per pattern from uint64 lanes (last axis).

    uint64 lanes viewed as bytes unpack little-endian to pattern order: bit
    p of a lane is bit p%8 of byte p//8 on this (little-endian) platform,
    exactly what ``bitorder="little"`` reads.
    """
    lanes = np.ascontiguousarray(lanes)
    return np.unpackbits(lanes.view(np.uint8), axis=-1, bitorder="little")


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
    #: gate -> its row of the slab's value buffer
    slot: dict[int, int]


class PpsfpSimulator:
    """Scan-test fault simulation via exhaustive per-fault behavioral tables.

    Drop-in for the interpreted reference
    :class:`repro.gatelevel.fault_sim.InterpretedSimulator` (``detect_mask``
    / ``detect_masks`` / ``detects``), with three extensions: an *empty*
    fault universe is allowed (every mask is 0), construction cost scales
    with ``faults x patterns`` instead of test length, and
    :meth:`detectable_mask` reads detectability off the tables.
    Replaying a test costs one big-int AND per cycle plus one lookup per
    cycle of each fault off the fault-free trajectory; the bitsets both
    replay and detectability read are derived on first use and kept.
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
        self._difference_rows: tuple[_BitRows, _BitRows] | None = None
        with trace_span(
            "faultsim.ppsfp.build",
            circuit=circuit.name,
            n_faults=len(self.faults),
            n_patterns=self._n_patterns,
        ) as span:
            slabs, blocks = self._build_cells()
            span.set(slabs=slabs, blocks=blocks)
        registry = current_registry()
        if registry is not None:
            registry.counter("faultsim.ppsfp.tables").add(1)
            registry.counter("faultsim.ppsfp.fault_rows").add(len(self.faults))
            registry.counter("faultsim.ppsfp.pattern_words").add(
                max(1, self._n_patterns // 64) * max(1, len(self.faults))
            )

    # ---------------------------------------------------------- table build

    def _build_cells(self) -> tuple[int, int]:
        """Fill ``self.cells``; returns (slabs, pattern blocks)."""
        netlist = self.circuit.netlist
        n_faults = len(self.faults)
        n_patterns = self._n_patterns
        self.cells = np.empty((n_patterns, n_faults), dtype=self._dtype)
        if n_faults == 0:
            return 0, 0
        pattern_words = exhaustive_pattern_words(self._sv + self._pi)
        n_words = pattern_words[0].shape[0] if pattern_words else 1
        block_patterns = adaptive_batch_bits(n_patterns, engine="ppsfp")
        block_words = max(1, min(n_words, block_patterns // 64))
        per_row_bytes = netlist.n_gates * block_words * 8
        slab_rows = max(1, min(n_faults, SLAB_BYTES_BUDGET // per_row_bytes))
        slabs = self._slabs(slab_rows)
        cone = max(len(slab.gates) for slab in slabs)
        buffer = np.empty((cone, slab_rows, block_words), dtype=np.uint64)
        # Cell bits, MSB first: the next-state lines, then the outputs.
        machine = self.circuit.circuit
        lines = machine.next_state_lines + machine.primary_output_lines
        shifts = range(len(lines) - 1, -1, -1)

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
            width = min(good_cells.size, n_patterns - pattern_lo)
            for slab in slabs:
                rows = slab.hi - slab.lo
                values = buffer[: len(slab.gates), :rows, : word_hi - word_lo]
                self._forward(slab, good, values)
                # Lines outside the cone keep their fault-free cell bits.
                cells = np.empty((rows, good_cells.size), dtype=self._dtype)
                cells[:] = good_cells
                for line, shift in zip(lines, shifts):
                    if line in slab.slot:
                        faulty = values[slab.slot[line]]
                        cells ^= cell_bits(faulty ^ good[line], shift)
                self.cells[pattern_lo : pattern_lo + width, slab.lo : slab.hi] = (
                    cells[:, :width].T
                )
        return len(slabs), -(-n_words // block_words)

    def _slabs(self, slab_rows: int) -> list[_Slab]:
        """The fault axis in slabs of ``slab_rows`` rows, with their cones."""
        netlist = self.circuit.netlist
        n_faults = len(self.faults)

        def rows(split: StuckSplit) -> tuple[np.ndarray, np.ndarray]:
            ones, zeros = split
            return (
                np.asarray(ones, dtype=np.int64),
                np.asarray(zeros, dtype=np.int64),
            )

        slabs = []
        for lo in range(0, n_faults, slab_rows):
            hi = min(lo + slab_rows, n_faults)
            store, pins, bridges = injection_sites(netlist, self.faults[lo:hi])
            pinned = {gate for gate, _ in pins}
            gates = netlist.fanout_closure({*store, *pinned, *bridges})
            slabs.append(
                _Slab(
                    lo,
                    hi,
                    {line: rows(split) for line, split in store.items()},
                    {key: rows(split) for key, split in pins.items()},
                    bridges,
                    pinned,
                    gates,
                    {gate: k for k, gate in enumerate(gates)},
                )
            )
        return slabs

    def _forward(self, slab: _Slab, good: np.ndarray, values: np.ndarray) -> None:
        """One topological sweep of a slab's cone over one pattern block.

        Fills ``values`` (shape ``(cone gates, slab rows, block words)``) in
        place; ``good`` holds every line's fault-free lanes, which lines
        outside the cone keep in every row.
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

        for k, index in enumerate(slab.gates):
            gate = netlist.gate(index)
            fanins = gate.fanins
            out = values[k]
            if index not in slab.pinned and not any(f in slot for f in fanins):
                # Fault-free inputs: only the gate's own faults act here.
                out[:] = good[index]
            elif gate.kind is GateType.NOT:
                np.invert(read(fanins[0], index, 0), out=out)
            else:
                # All ufuncs write straight into the buffer row; a fanin is
                # never its own gate (the netlist is a DAG), so no aliasing.
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
        A cycle costs one AND of its row's difference bitset
        (:meth:`_differences`) with the faults still on the trajectory: a
        fault in it whose outputs differ is detected, and any other has
        left the trajectory with its state alone.  Only those astray faults
        are looked up one by one, each from its own state code's cell,
        until an output difference detects it, its next state rejoins the
        trajectory, or the test ends and the scan-out compare detects the
        state still astray.  At a test's last cycle every difference is
        detected, so no faulty code is read there.
        """
        n_tests = len(tests)
        if not self.faults or not n_tests:
            return [0] * n_tests
        differs, shows = self._differences()
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
                        cell = cells[code << pi | combo, fault]
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
                            astray[fault] = cells[pattern, fault] >> po
                            strayed ^= low
                state = next_rows[state][combo]
            cycles += last + 1
            masks.append(detected)
        registry = current_registry()
        if registry is not None:
            registry.counter("faultsim.ppsfp.cycles").add(cycles)
            registry.counter("faultsim.ppsfp.astray_steps").add(astray_steps)
        return masks

    def _differences(self) -> tuple[_BitRows, _BitRows]:
        """Two fault bitsets per assigned (state, input) row, built once.

        ``differs[state][combo]`` holds the faults whose cell differs from
        the fault-free machine's there, ``shows[state][combo]`` those whose
        outputs differ.  The fault-free cells come from the state table, the
        reference every detection is judged against.  Rows are compared in
        blocks of at most :data:`DERIVE_BLOCK_CELLS` (row, fault) cells.
        """
        if self._difference_rows is None:
            self._difference_rows = self._build_differences()
        return self._difference_rows

    def _build_differences(self) -> tuple[_BitRows, _BitRows]:
        n_faults = len(self.faults)
        pi, po = self._pi, self._po
        n_combos = 1 << pi
        codes = np.asarray(self._code_of, dtype=np.int64)
        rows = ((codes[:, None] << pi) | np.arange(n_combos)).reshape(-1)
        good_next = codes[np.asarray(self.table.next_state)].reshape(-1)
        good_out = np.asarray(self.table.output).reshape(-1)
        good = (good_next << po | good_out).astype(self._dtype)
        out_mask = self._dtype.type((1 << po) - 1)
        differs: list[int] = []
        shows: list[int] = []
        block = max(1, DERIVE_BLOCK_CELLS // n_faults)
        for lo in range(0, rows.size, block):
            hi = min(lo + block, rows.size)
            delta = self.cells[rows[lo:hi]] ^ good[lo:hi, None]
            differs += _pack_rows(delta != 0)
            shows += _pack_rows(delta & out_mask != 0)
        by_state = range(0, rows.size, n_combos)
        return (
            [differs[at : at + n_combos] for at in by_state],
            [shows[at : at + n_combos] for at in by_state],
        )

    def detectable_mask(self) -> int:
        """Bit mask (over the fault universe) of the faults some scan test
        detects.

        Under full scan a test can load any assigned state code, apply any
        input combination and observe the next state and the outputs, so a
        fault is detectable exactly when its cell differs from the
        fault-free machine's in some (assigned code, input) row — the same
        verdict as :func:`repro.gatelevel.detectability.detectable_faults`
        under :func:`~repro.gatelevel.detectability.assigned_pattern_mask`.
        That is the OR of the rows' difference bitsets, the ones
        :meth:`detect_masks` replays tests with.
        """
        if not self.faults:
            return 0
        mask = 0
        for row in self._differences()[0]:
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
