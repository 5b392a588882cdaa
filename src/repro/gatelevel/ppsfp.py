"""Parallel-pattern single-fault propagation (PPSFP) fault simulation.

The big-int engines (:mod:`repro.gatelevel.fault_sim`,
:mod:`repro.gatelevel.compiled`) pack *faults* as bits of one word and pay
one netlist sweep per clock cycle.  This module packs the other axis:
**patterns**, 64 per ``uint64`` lane, with faults stacked as numpy rows.
One exhaustive sweep of the levelized netlist (levels from
:func:`repro.sca.graph.levelize`) evaluates every ``2**(SV+PI)``
combinational input pattern for a whole slab of faulty machines at once,
which yields each fault's *complete behavioral table*: the faulty
next-state code and output combination for every (state code, input
combination) pair.  Because the combinational block is memoryless, those
tables determine the faulty machine exactly — including trajectories that
wander into unassigned state codes, which the tables cover because the
sweep enumerates all ``2**SV`` codes, not just the assigned ones.

Simulating a scan test then costs no netlist evaluation at all: every
cycle is a vectorized gather (``tables[row, (code << PI) | combo]``) that
steps all faulty machines simultaneously, compared against the fault-free
reference from the functional state table — exactly the observation scheme
of the big-int engines, so detection masks are bit-identical by
construction (the test suite and the ``sim-ppsfp-vs-bigint`` fuzz oracle
enforce this).  The same tables say which faults any scan test can detect
at all (:meth:`PpsfpSimulator.detectable_mask`): one vectorized comparison
with the fault-free machine over the assigned state codes, checked against
the cone-resimulation oracle by the ``detectability-ppsfp-vs-cone`` fuzz
oracle.

Injection mirrors :class:`repro.gatelevel.fault_sim._Batch` semantics with
rows instead of bit masks:

* stuck-at on a gate output — the stored lane words of that fault's row
  are forced after the gate evaluates;
* stuck-at on a gate input pin — the read is forced only for that reader,
  via a copy-on-read of the fanin row;
* AND/OR bridging — the classic two-pass scheme: pass 1 computes raw
  (bridge-free) values, pass 2 overwrites each bridged line's row with
  ``raw(line) op raw(partner)`` at the store.  Store-level application is
  exact because a bridged line is never downstream of its own bridge
  (paper condition 3).

The sweep is blocked along both axes: the pattern axis in blocks of at
most :data:`repro.core.config.DEFAULT_PPSFP_PATTERN_BLOCK` patterns
(multiples of 64) and the fault axis in slabs sized to a fixed working-set
budget.  Blocking never changes results — patterns are independent, and
each fault row is its own machine.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.config import adaptive_batch_bits
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
#: ``(n_gates, slab_rows, block_words)`` value array must fit here, which
#: sizes ``slab_rows``.  Purely a speed/memory knob — never affects results.
SLAB_BYTES_BUDGET = 64 << 20


#: Cells per fault-row block compared by :meth:`PpsfpSimulator.detectable_mask`,
#: which bounds its temporaries.  Never affects results.
DERIVE_BLOCK_CELLS = 1 << 20


def _pack_mask(flags: np.ndarray) -> int:
    """Python int whose bit ``i`` is ``flags[i]`` (the fault-bit order)."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _local_rows(rows: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Slab-local indices of the global fault rows falling in ``[lo, hi)``.

    ``rows`` is sorted (injection sites list ascending fault indices), so two
    binary searches slice it — this runs once per (injection site, slab).
    """
    start = int(np.searchsorted(rows, lo))
    stop = int(np.searchsorted(rows, hi))
    return rows[start:stop] - lo


class PpsfpSimulator:
    """Scan-test fault simulation via exhaustive per-fault behavioral tables.

    Drop-in for :class:`repro.gatelevel.compiled.CompiledFaultSimulator`
    (``detect_mask`` / ``detects`` / ``make_effective_simulator``), with
    three extensions: an *empty* fault universe is allowed (every mask is
    0), construction cost scales with ``faults x patterns`` instead of test
    length, and :meth:`detectable_mask` reads detectability off the tables.
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
        if sv > 32 or po > 32:
            raise FaultSimulationError(
                "PPSFP tables hold state codes and output combinations in "
                f"uint32 cells; {sv} state bits / {po} output bits exceed that"
            )
        self._sv, self._pi, self._po = sv, pi, po
        self._n_patterns = 1 << (sv + pi)
        self._code_of = np.asarray(circuit.encoding.codes, dtype=np.int64)
        self._build_injection_tables()
        with trace_span(
            "faultsim.ppsfp.build",
            circuit=circuit.name,
            n_faults=len(self.faults),
            n_patterns=self._n_patterns,
        ) as span:
            slabs, blocks = self._build_tables()
            span.set(slabs=slabs, blocks=blocks)
        self._next_flat = self._next.reshape(-1)
        self._out_flat = self._out.reshape(-1)
        self._rows_base = (
            np.arange(len(self.faults), dtype=np.int64) * self._n_patterns
        )
        registry = current_registry()
        if registry is not None:
            registry.counter("faultsim.ppsfp.tables").add(1)
            registry.counter("faultsim.ppsfp.fault_rows").add(len(self.faults))
            registry.counter("faultsim.ppsfp.pattern_words").add(
                max(1, self._n_patterns // 64) * max(1, len(self.faults))
            )

    # ------------------------------------------------------------ injection

    def _build_injection_tables(self) -> None:
        """Row-indexed injection tables (the `_Batch` masks, per row)."""
        store, pins, bridges = injection_sites(self.circuit.netlist, self.faults)

        def rows(split: StuckSplit) -> tuple[np.ndarray, np.ndarray]:
            ones, zeros = split
            return (
                np.asarray(ones, dtype=np.int64),
                np.asarray(zeros, dtype=np.int64),
            )

        self._store_rows = {line: rows(split) for line, split in store.items()}
        self._pin_rows = {key: rows(split) for key, split in pins.items()}
        self._bridge_rules = bridges

    # ---------------------------------------------------------- table build

    def _build_tables(self) -> tuple[int, int]:
        """Fill ``self._next`` / ``self._out``; returns (slabs, blocks)."""
        from repro.sca.graph import levelize

        netlist = self.circuit.netlist
        n_faults = len(self.faults)
        n_patterns = self._n_patterns
        self._next = np.empty((n_faults, n_patterns), dtype=np.uint32)
        self._out = np.empty((n_faults, n_patterns), dtype=np.uint32)
        if n_faults == 0:
            return 0, 0
        levels = levelize(netlist)
        schedule = sorted(range(netlist.n_gates), key=lambda i: (levels[i], i))
        input_pos = {line: k for k, line in enumerate(netlist.inputs)}
        pattern_words = exhaustive_pattern_words(self._sv + self._pi)
        n_words = pattern_words[0].shape[0] if pattern_words else 1
        block_patterns = adaptive_batch_bits(n_patterns, engine="ppsfp")
        block_words = max(1, min(n_words, block_patterns // 64))
        per_row_bytes = netlist.n_gates * block_words * 8
        slab_rows = max(1, min(n_faults, SLAB_BYTES_BUDGET // max(1, per_row_bytes)))

        slabs = blocks = 0
        buffer = np.empty(
            (netlist.n_gates, min(slab_rows, n_faults), block_words),
            dtype=np.uint64,
        )
        for lo in range(0, n_faults, slab_rows):
            hi = min(lo + slab_rows, n_faults)
            slabs += 1
            if lo == 0 and hi == n_faults:
                # Single slab: global rows are already slab-local.
                local = self._global_local()
            else:
                local = self._localize(lo, hi)
            bridge_local = local[2]
            values = buffer[:, : hi - lo, :]
            for word_lo in range(0, n_words, block_words):
                word_hi = min(word_lo + block_words, n_words)
                blocks += 1
                raw = None
                if bridge_local:
                    # Pass 1 (bridge-free), then harvest just the bridged
                    # lines' rows so pass 2 can reuse the same buffer: every
                    # gate value is fully re-stored before being read again.
                    self._forward(
                        schedule, input_pos, pattern_words,
                        word_lo, word_hi, local, values, raw=None,
                    )
                    raw = {
                        line: values[line].copy() for line in bridge_local
                    }
                self._forward(
                    schedule, input_pos, pattern_words,
                    word_lo, word_hi, local, values, raw=raw,
                )
                self._extract(values, lo, hi, word_lo, word_hi)
        return slabs, blocks

    def _global_local(self) -> tuple[dict, dict, dict]:
        """The injection tables as-is, for a slab covering every row."""
        return self._store_rows, self._pin_rows, self._bridge_rules

    def _localize(self, lo: int, hi: int) -> tuple[dict, dict, dict]:
        """Slab-local injection tables (empty entries dropped)."""
        store: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for line, (ones, zeros) in self._store_rows.items():
            ones_l, zeros_l = _local_rows(ones, lo, hi), _local_rows(zeros, lo, hi)
            if ones_l.size or zeros_l.size:
                store[line] = (ones_l, zeros_l)
        pins: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        for key, (ones, zeros) in self._pin_rows.items():
            ones_l, zeros_l = _local_rows(ones, lo, hi), _local_rows(zeros, lo, hi)
            if ones_l.size or zeros_l.size:
                pins[key] = (ones_l, zeros_l)
        bridges: dict[int, list[tuple[int, int, bool]]] = {}
        for line, rules in self._bridge_rules.items():
            kept = [
                (row - lo, partner, is_and)
                for row, partner, is_and in rules
                if lo <= row < hi
            ]
            if kept:
                bridges[line] = kept
        return store, pins, bridges

    def _forward(
        self,
        schedule: list[int],
        input_pos: dict[int, int],
        pattern_words: list[np.ndarray],
        word_lo: int,
        word_hi: int,
        local: tuple[dict, dict, dict],
        values: np.ndarray,
        raw: dict[int, np.ndarray] | None,
    ) -> None:
        """One level-ordered sweep over a (fault slab, pattern block).

        Fills ``values`` (shape ``(n_gates, slab, block_words)``) in place.
        ``raw=None`` is the bridge-free pass; with ``raw`` given (bridged
        line -> its pass-1 value array), each bridged line's fault rows are
        overwritten at the store from the raw values — the same two-pass
        scheme as the big-int engines.
        """
        store_local, pin_local, bridge_local = local
        netlist = self.circuit.netlist

        def read(line: int, reader: int, pin: int) -> np.ndarray:
            value = values[line]
            forced = pin_local.get((reader, pin))
            if forced is not None:
                ones, zeros = forced
                value = value.copy()
                if ones.size:
                    value[ones] = ALL_ONES
                if zeros.size:
                    value[zeros] = 0
            return value

        for index in schedule:
            gate = netlist.gate(index)
            kind = gate.kind
            out = values[index]
            if kind is GateType.INPUT:
                out[:] = pattern_words[input_pos[index]][word_lo:word_hi]
            elif kind is GateType.CONST0:
                out[:] = 0
            else:
                # All ufuncs write straight into the buffer row; a fanin is
                # never its own gate (the netlist is a DAG), so no aliasing.
                fanins = gate.fanins
                first = read(fanins[0], index, 0)
                if kind is GateType.NOT:
                    np.invert(first, out=out)
                else:
                    op = np.bitwise_and if kind is GateType.AND else np.bitwise_or
                    op(first, read(fanins[1], index, 1), out=out)
                    for pin in range(2, len(fanins)):
                        op(out, read(fanins[pin], index, pin), out=out)
            forced = store_local.get(index)
            if forced is not None:
                ones, zeros = forced
                if ones.size:
                    values[index][ones] = ALL_ONES
                if zeros.size:
                    values[index][zeros] = 0
            if raw is not None:
                rules = bridge_local.get(index)
                if rules:
                    for row, partner, is_and in rules:
                        if is_and:
                            values[index][row] = raw[index][row] & raw[partner][row]
                        else:
                            values[index][row] = raw[index][row] | raw[partner][row]

    def _extract(
        self,
        values: np.ndarray,
        lo: int,
        hi: int,
        word_lo: int,
        word_hi: int,
    ) -> None:
        """Fold output-line lanes into next-code / output-combo table cells."""
        n_rows = hi - lo
        n_words = word_hi - word_lo
        pattern_lo = word_lo * 64
        width = min(n_words * 64, self._n_patterns - pattern_lo)

        def unpack(line: int) -> np.ndarray:
            # uint64 lanes viewed as bytes unpack little-endian to pattern
            # order: bit p of a lane is bit p%8 of byte p//8 on this (little
            # -endian) platform, exactly what bitorder="little" reads.
            lanes = np.ascontiguousarray(values[line])
            return np.unpackbits(lanes.view(np.uint8), axis=1, bitorder="little")

        def fold(lines: Sequence[int], n_bits: int) -> np.ndarray:
            # Accumulate in uint8 when the codes fit a byte (4x less
            # traffic); the store into the uint32 table casts on assignment.
            dtype = np.uint8 if n_bits <= 8 else np.uint32
            codes = np.zeros((n_rows, n_words * 64), dtype=dtype)
            for j, line in enumerate(lines):
                bits = unpack(line)
                if dtype is not np.uint8:
                    bits = bits.astype(dtype)
                codes |= bits << dtype(n_bits - 1 - j)
            return codes

        sv, po = self._sv, self._po
        next_codes = fold(self.circuit.circuit.next_state_lines, sv)
        out_codes = fold(self.circuit.circuit.primary_output_lines, po)
        self._next[lo:hi, pattern_lo : pattern_lo + width] = next_codes[:, :width]
        self._out[lo:hi, pattern_lo : pattern_lo + width] = out_codes[:, :width]

    # ------------------------------------------------------------ execution

    def detect_mask(self, test: ScanTest) -> int:
        """Bit mask (over the fault universe) of faults ``test`` detects."""
        n_faults = len(self.faults)
        if n_faults == 0:
            return 0
        pi = self._pi
        codes = np.full(
            n_faults, self._code_of[test.initial_state], dtype=np.int64
        )
        detected = np.zeros(n_faults, dtype=bool)
        good_state = test.initial_state
        step = self.table.step
        next_flat, out_flat = self._next_flat, self._out_flat
        base = self._rows_base
        for combo in test.inputs:
            index = base + (codes << pi) + combo
            good_state, good_out = step(good_state, combo)
            detected |= out_flat[index] != np.uint32(good_out)
            codes = next_flat[index].astype(np.int64)
            if detected.all():
                return self.ones
        detected |= codes != self._code_of[good_state]
        return _pack_mask(detected)

    def detect_masks(self, tests: Sequence[ScanTest]) -> list[int]:
        """Detection masks for many tests in one vectorized stepping run.

        Equivalent to ``[self.detect_mask(t) for t in tests]`` but steps a
        ``(tests, faults)`` matrix per clock cycle, so per-call numpy
        overhead is paid once per *cycle* instead of once per (test, cycle).
        Each test's final-state compare fires at its own last cycle.
        """
        n_faults = len(self.faults)
        n_tests = len(tests)
        if n_faults == 0 or n_tests == 0:
            return [0] * n_tests
        # Sort by length, longest first: at every cycle the still-running
        # tests are a prefix of the matrix, so work tracks the *sum* of test
        # lengths, not tests x longest (test sets are typically one long
        # chain plus many short stragglers).
        order = sorted(
            range(n_tests), key=lambda t: len(tests[t].inputs), reverse=True
        )
        lengths = np.asarray(
            [len(tests[t].inputs) for t in order], dtype=np.int64
        )
        max_len = int(lengths[0])
        pi = self._pi
        step = self.table.step
        # active[c] = how many tests run at cycle c (a prefix, by the sort).
        active = np.searchsorted(-lengths, -(np.arange(max_len) + 1), "right")
        # The per-cycle inputs and fault-free outputs are stored cycle-major
        # and ragged: cycle c holds only its active[c] running tests, from
        # starts[c] on, so memory tracks the sum of test lengths too.
        starts = np.zeros(max_len + 1, dtype=np.int64)
        np.cumsum(active, out=starts[1:])
        combos = np.empty(int(starts[-1]), dtype=np.int64)
        good_outs = np.empty(int(starts[-1]), dtype=np.uint32)
        final_codes = np.empty(n_tests, dtype=np.int64)
        codes = np.empty((n_tests, n_faults), dtype=np.int64)
        for t, position in enumerate(order):
            test = tests[position]
            state = test.initial_state
            codes[t] = self._code_of[state]
            outs = []
            for combo in test.inputs:
                state, out = step(state, combo)
                outs.append(out)
            cells = starts[: len(outs)] + t
            combos[cells] = test.inputs
            good_outs[cells] = outs
            final_codes[t] = self._code_of[state]

        detected = np.zeros((n_tests, n_faults), dtype=bool)
        base = self._rows_base[None, :]
        next_flat, out_flat = self._next_flat, self._out_flat
        for c in range(max_len):
            k = int(active[c])
            lo = int(starts[c])
            index = base + (codes[:k] << pi) + combos[lo : lo + k, None]
            detected[:k] |= out_flat[index] != good_outs[lo : lo + k, None]
            codes[:k] = next_flat[index]
            k_next = int(active[c + 1]) if c + 1 < max_len else 0
            if k_next < k:  # tests ending this cycle: final-state compare
                detected[k_next:k] |= (
                    codes[k_next:k] != final_codes[k_next:k, None]
                )
        packed = np.packbits(detected, axis=1, bitorder="little")
        masks = [0] * n_tests
        for t, position in enumerate(order):
            masks[position] = int.from_bytes(packed[t].tobytes(), "little")
        return masks

    def detectable_mask(self) -> int:
        """Bit mask (over the fault universe) of the faults some scan test
        detects.

        Under full scan a test can load any assigned state code, apply any
        input combination and observe the next state and the outputs, so a
        fault is detectable exactly when its table differs from the
        fault-free machine in some (assigned code, input) cell — the same
        verdict as :func:`repro.gatelevel.detectability.detectable_faults`
        under :func:`~repro.gatelevel.detectability.assigned_pattern_mask`.
        The fault-free cells come from the state table, the reference every
        detection mask is compared against.
        """
        n_faults = len(self.faults)
        if n_faults == 0:
            return 0
        pi = self._pi
        codes = self._code_of
        columns = ((codes[:, None] << pi) | np.arange(1 << pi)).reshape(-1)
        good_next = codes[np.asarray(self.table.next_state)].reshape(-1)
        good_out = np.asarray(self.table.output).reshape(-1)
        detectable = np.empty(n_faults, dtype=bool)
        block = max(1, DERIVE_BLOCK_CELLS // columns.size)
        for lo in range(0, n_faults, block):
            hi = min(lo + block, n_faults)
            differs = self._next[lo:hi, columns] != good_next
            differs |= self._out[lo:hi, columns] != good_out
            detectable[lo:hi] = differs.any(axis=1)
        return _pack_mask(detectable)

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
