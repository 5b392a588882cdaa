"""Combinational gate-level netlists with word-parallel evaluation.

A :class:`Netlist` is an append-only DAG: every gate's fanins must already
exist when the gate is added, so gate index order *is* a topological order
and evaluation is a single forward sweep, taken a group of same-level,
same-kind gates at a time (:meth:`Netlist.gate_tables`).  Values are
``numpy.uint64`` words (or arrays of words); each bit position is an
independent simulation instance, which is what both the pattern-parallel
detectability check and the fault-parallel sequential simulator build on.
Logical constants are all-zeros / all-ones words, so inversion is plain
bitwise NOT and no masking is ever needed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import numpy.typing as npt

from repro.errors import NetlistError

#: One uint64 word array: each bit position is an independent instance.
Words = npt.NDArray[np.uint64]

__all__ = [
    "GateType",
    "CONTROLLING_VALUE",
    "Gate",
    "GateTables",
    "Netlist",
    "Words",
    "ALL_ONES",
    "pack_bits",
    "unpack_bits",
    "exhaustive_pattern_words",
]

#: The all-ones word representing logical 1 in every instance.
ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


class GateType(enum.Enum):
    """Gate functions: exactly the kinds synthesis emits."""

    INPUT = "input"
    CONST0 = "const0"
    NOT = "not"
    AND = "and"
    OR = "or"


#: Controlling input value of each multi-input kind: a single fanin at this
#: value forces the output to that same value.  No multi-input kind inverts,
#: so NOT is the only inverter in the library.
CONTROLLING_VALUE: dict[GateType, int] = {GateType.AND: 0, GateType.OR: 1}

_MIN_FANIN = {
    GateType.INPUT: 0,
    GateType.CONST0: 0,
    GateType.NOT: 1,
    GateType.AND: 2,
    GateType.OR: 2,
}
_MAX_FANIN = {
    GateType.INPUT: 0,
    GateType.CONST0: 0,
    GateType.NOT: 1,
}


@dataclass(frozen=True)
class Gate:
    """One gate: ``index`` is its output line, ``fanins`` its input lines."""

    index: int
    kind: GateType
    fanins: tuple[int, ...]
    name: str = ""

    @property
    def n_fanins(self) -> int:
        return len(self.fanins)


def _evaluate_gate(kind: GateType, fanin_values: Sequence[Words]) -> Words:
    """Word-parallel value of one gate from its fanin values."""
    if kind is GateType.CONST0:
        return np.zeros(1, dtype=np.uint64)
    if kind is GateType.NOT:
        return ~fanin_values[0]
    acc = fanin_values[0].copy()
    if kind is GateType.AND:
        for value in fanin_values[1:]:
            acc &= value
    elif kind is GateType.OR:
        for value in fanin_values[1:]:
            acc |= value
    else:  # pragma: no cover - INPUT handled by the caller
        raise NetlistError(f"cannot evaluate gate of kind {kind}")
    return acc


@dataclass(frozen=True)
class GateTables:
    """A netlist's gates as arrays, for sweeps that evaluate a group of
    gates per numpy call.

    Gates are grouped by (level, kind, fanin count).  Inputs and constants
    are level 0 and every other gate sits one level above its deepest
    fanin, so every fanin of a group's gates is in an earlier group of
    *program order*, the order of the group numbers.
    """

    #: ``fanins[g, j]``: the line pin ``j`` of gate ``g`` reads, and -1 past
    #: its fanins (one column at least)
    fanins: npt.NDArray[np.int64]
    #: ``group[g]``: the number of gate ``g``'s group
    group: npt.NDArray[np.int64]
    #: each group's gate kind and fanin count, in program order
    kinds: tuple[GateType, ...]
    n_fanins: tuple[int, ...]
    #: the gates in program order: group ``k`` is ``order[starts[k]:starts[k + 1]]``
    order: npt.NDArray[np.int64]
    starts: tuple[int, ...]


class Netlist:
    """An append-only combinational DAG of gates.

    ``inputs`` and ``outputs`` are ordered tuples of gate indices; outputs
    may alias any line, including inputs (a wire straight through).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._gates: list[Gate] = []
        self._inputs: list[int] = []
        self._outputs: list[int] = []
        self._fanouts: list[list[int]] | None = None
        self._reach: Words | None = None
        self._tables: GateTables | None = None
        #: whether the netlist passed its structural rules since it last
        #: changed: a passing :meth:`check` or preflight sets it
        #: (:func:`repro.lint.preflight.preflight_netlist`)
        self._checked = False

    def __getstate__(self) -> dict:
        # The reachability memo is n²/8 bytes and the gate tables a few
        # arrays, both cheap to rebuild; keep them and the rules' verdict
        # out of pickled cache entries and worker-pool snapshots.
        state = self.__dict__.copy()
        del state["_reach"], state["_tables"], state["_checked"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reach = None
        self._tables = None
        self._checked = False

    # --------------------------------------------------------- construction

    def add_input(self, name: str = "") -> int:
        index = len(self._gates)
        self._gates.append(Gate(index, GateType.INPUT, (), name or f"in{index}"))
        self._inputs.append(index)
        self._fanouts = None
        self._reach = None
        self._tables = None
        self._checked = False
        return index

    def add_gate(self, kind: GateType, fanins: Iterable[int], name: str = "") -> int:
        fanin_tuple = tuple(fanins)
        index = len(self._gates)
        if kind is GateType.INPUT:
            raise NetlistError("use add_input() for primary inputs")
        minimum = _MIN_FANIN[kind]
        maximum = _MAX_FANIN.get(kind)
        if len(fanin_tuple) < minimum:
            raise NetlistError(
                f"{kind.value} gate needs at least {minimum} fanins, "
                f"got {len(fanin_tuple)}"
            )
        if maximum is not None and len(fanin_tuple) > maximum:
            raise NetlistError(
                f"{kind.value} gate takes at most {maximum} fanins"
            )
        for fanin in fanin_tuple:
            if not 0 <= fanin < index:
                raise NetlistError(
                    f"fanin {fanin} of new gate {index} does not exist yet "
                    "(gates must be added in topological order)"
                )
        self._gates.append(Gate(index, kind, fanin_tuple, name or f"g{index}"))
        self._fanouts = None
        self._reach = None
        self._tables = None
        self._checked = False
        return index

    def set_outputs(self, outputs: Iterable[int]) -> None:
        output_list = list(outputs)
        for line in output_list:
            if not 0 <= line < len(self._gates):
                raise NetlistError(f"output line {line} does not exist")
        self._outputs = output_list
        self._checked = False

    # ------------------------------------------------------------ structure

    @property
    def n_gates(self) -> int:
        return len(self._gates)

    @property
    def gates(self) -> tuple[Gate, ...]:
        return tuple(self._gates)

    def gate(self, index: int) -> Gate:
        return self._gates[index]

    @property
    def inputs(self) -> tuple[int, ...]:
        return tuple(self._inputs)

    @property
    def outputs(self) -> tuple[int, ...]:
        return tuple(self._outputs)

    @property
    def n_inputs(self) -> int:
        return len(self._inputs)

    @property
    def n_outputs(self) -> int:
        return len(self._outputs)

    def fanouts(self) -> list[list[int]]:
        """``fanouts()[line]`` lists the gates reading ``line`` (cached)."""
        if self._fanouts is None:
            table: list[list[int]] = [[] for _ in self._gates]
            for gate in self._gates:
                for fanin in gate.fanins:
                    table[fanin].append(gate.index)
            self._fanouts = table
        return self._fanouts

    def fanout_closure(self, seeds: Iterable[int]) -> list[int]:
        """Gates affected when any seed line changes, in topological order.

        Includes the seeds themselves: the union of the seeds' rows of
        :meth:`reachability_matrix`.
        """
        rows = self.reachability_matrix()[list(seeds)]
        cone = np.bitwise_or.reduce(rows, axis=0)
        # Little-endian bytes keep bit ``i`` at unpacked position ``i``.
        packed = cone.astype("<u8", copy=False).view(np.uint8)
        return np.flatnonzero(np.unpackbits(packed, bitorder="little")).tolist()

    def reaches(self, source: int, sink: int) -> bool:
        """Is there a combinational path from ``source`` to ``sink``?"""
        word = self.reachability_matrix()[source, sink // 64]
        return bool((int(word) >> (sink % 64)) & 1)

    def reachability_matrix(self) -> Words:
        """Bitset matrix ``R``: bit ``j`` of ``R[i]`` word ``j//64`` says
        line ``j`` is combinationally reachable from line ``i`` (reflexive).

        Built once per netlist and kept until the next ``add_input`` or
        ``add_gate``; the returned array is read-only and shared by every
        caller.
        """
        if self._reach is None:
            n = self.n_gates
            words = (n + 63) // 64
            matrix = np.zeros((n, words), dtype=np.uint64)
            for index in range(n):
                matrix[index, index // 64] |= np.uint64(1) << np.uint64(index % 64)
            # Reverse sweep: everything a gate reaches flows back to its fanins.
            for gate in reversed(self._gates):
                for fanin in gate.fanins:
                    matrix[fanin] |= matrix[gate.index]
            matrix.flags.writeable = False
            self._reach = matrix
        return self._reach

    def gate_tables(self) -> GateTables:
        """The :class:`GateTables` of this netlist.

        Built once per netlist and kept until the next ``add_input`` or
        ``add_gate``, like :meth:`reachability_matrix`.
        """
        if self._tables is None:
            n = self.n_gates
            width = max([1] + [gate.n_fanins for gate in self._gates])
            fanins = np.full((n, width), -1, dtype=np.int64)
            kind_order = {kind: k for k, kind in enumerate(GateType)}
            level = [0] * n
            keys = []
            for gate in self._gates:
                if gate.fanins:
                    fanins[gate.index, : gate.n_fanins] = gate.fanins
                    level[gate.index] = 1 + max(level[f] for f in gate.fanins)
                keys.append((level[gate.index], kind_order[gate.kind], gate.n_fanins))
            distinct = sorted(set(keys))
            number = {key: k for k, key in enumerate(distinct)}
            group = np.asarray([number[key] for key in keys], dtype=np.int64)
            kinds = list(GateType)
            self._tables = GateTables(
                fanins,
                group,
                tuple(kinds[kind] for _, kind, _ in distinct),
                tuple(count for _, _, count in distinct),
                np.argsort(group, kind="stable"),
                (0, *np.cumsum(np.bincount(group, minlength=len(distinct))).tolist()),
            )
        return self._tables

    def check(self) -> None:
        """Structural sanity check; raises :class:`NetlistError` on trouble.

        Delegates to the netlist analyzer (:mod:`repro.lint.netlist_rules`),
        so construction-time call sites catch combinational cycles, undriven
        nets, arity violations, and missing outputs — not just the
        topological-order fragment this method used to enforce.  The import
        is lazy because the analyzer builds on this module.  Its rules
        include the preflight's, so a pass records the preflight's verdict
        too, until the next ``add_input``, ``add_gate`` or ``set_outputs``.
        """
        from repro.lint.netlist_rules import analyze_netlist

        report = analyze_netlist(self, errors_only=True)
        report.raise_on_errors(NetlistError)
        self._checked = True

    # ----------------------------------------------------------- evaluation

    def evaluate(
        self, input_values: Sequence[npt.ArrayLike] | npt.ArrayLike
    ) -> Words:
        """Forward-evaluate all gates, one group of :meth:`gate_tables` per
        numpy operation, in program order.

        ``input_values`` is one uint64 word array per primary input (all of
        the same width ``W``); the result has shape ``(n_gates, W)``.
        """
        arrays = [np.atleast_1d(np.asarray(v, dtype=np.uint64)) for v in input_values]
        if len(arrays) != len(self._inputs):
            raise NetlistError(
                f"{len(arrays)} input values for {len(self._inputs)} inputs"
            )
        width = arrays[0].shape[0] if arrays else 1
        for array in arrays:
            if array.shape != (width,):
                raise NetlistError("all input words must have the same width")
        values = np.zeros((len(self._gates), width), dtype=np.uint64)
        if arrays:
            values[self._inputs] = arrays
        # One group of gates per numpy call; constants stay 0.
        tables = self.gate_tables()
        for number, n_fanins in enumerate(tables.n_fanins):
            if not n_fanins:
                continue
            gates = tables.order[tables.starts[number] : tables.starts[number + 1]]
            fanins = tables.fanins[gates]
            acc = values[fanins[:, 0]]
            kind = tables.kinds[number]
            if kind is GateType.NOT:
                np.invert(acc, out=acc)
            else:
                op = np.bitwise_and if kind is GateType.AND else np.bitwise_or
                for pin in range(1, n_fanins):
                    op(acc, values[fanins[:, pin]], out=acc)
            values[gates] = acc
        return values

    def evaluate_bits(self, bits: Sequence[int]) -> tuple[int, ...]:
        """Single-instance convenience: 0/1 bits in, output 0/1 bits out."""
        words = [
            np.full(1, ALL_ONES if bit else 0, dtype=np.uint64) for bit in bits
        ]
        values = self.evaluate(words)
        return tuple(int(values[line, 0] & np.uint64(1)) for line in self._outputs)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<Netlist{label}: {self.n_gates} gates, {self.n_inputs} inputs, "
            f"{self.n_outputs} outputs>"
        )


def pack_bits(bits: npt.ArrayLike) -> Words:
    """Pack a boolean vector into uint64 words (bit ``i`` -> word ``i//64``)."""
    flat = np.asarray(bits, dtype=bool)
    n_words = (flat.size + 63) // 64
    padded = np.zeros(n_words * 64, dtype=bool)
    padded[: flat.size] = flat
    weights = np.uint64(1) << np.arange(64, dtype=np.uint64)
    return (padded.reshape(n_words, 64) * weights).sum(axis=1, dtype=np.uint64)


def unpack_bits(words: npt.ArrayLike, n_bits: int) -> npt.NDArray[np.bool_]:
    """Inverse of :func:`pack_bits` (truncated to ``n_bits``)."""
    packed = np.asarray(words, dtype=np.uint64)
    shifts = np.arange(64, dtype=np.uint64)
    bits = ((packed[:, None] >> shifts) & np.uint64(1)).astype(bool)
    return bits.reshape(-1)[:n_bits]


def exhaustive_pattern_words(n_inputs: int) -> list[Words]:
    """Word vectors enumerating all ``2**n_inputs`` patterns, one per input.

    Pattern ``p`` (its bit position across all words) applies bit
    ``(p >> (n_inputs - 1 - k)) & 1`` to input ``k`` — i.e. input 0 is the
    most significant bit of the pattern index, matching the MSB-first
    conventions used throughout the package.
    """
    if n_inputs < 0:
        raise NetlistError("n_inputs must be non-negative")
    total = 1 << n_inputs
    indices = np.arange(total, dtype=np.uint64)
    return [
        pack_bits(((indices >> np.uint64(n_inputs - 1 - k)) & np.uint64(1)).astype(bool))
        for k in range(n_inputs)
    ]
