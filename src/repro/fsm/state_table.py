"""Dense state-table representation of a completely specified Mealy machine.

The paper describes circuits functionally "by state tables": for every state
``s`` and every primary input combination ``a`` the table gives a next state
``delta(s, a)`` and a primary output combination ``lambda(s, a)``.  This module
stores both functions as dense ``numpy`` arrays of shape
``(n_states, 2**n_inputs)``, and keeps memoized Python views of them (rows,
per-input columns, input-class representatives) for the search procedures
(UIO, transfer, test generation), whose loops read one entry at a time:
indexing a tuple costs a fraction of reading a numpy scalar.

Bit-order conventions
---------------------
Input and output combinations are encoded as integers, **most significant bit
first** in the order the paper writes vectors: the combination ``x1 x2 = 01``
is the integer ``0b01 = 1``.  :meth:`StateTable.input_bits` and
:meth:`StateTable.output_bits` convert between integers and bit tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from repro.errors import StateTableError

__all__ = ["StateTable", "Transition"]

_View = TypeVar("_View")

#: Slots memoized on first use (the hash, the Python views below, and the
#: UIO search's root classification, which :mod:`repro.uio.search` builds).
#: They are never pickled (``__reduce__`` rebuilds from the arrays) and take
#: no part in ``==``/``hash``.
_MEMO_SLOTS = (
    "_hash",
    "_next_rows",
    "_output_rows",
    "_next_columns",
    "_output_columns",
    "_representatives",
    "_uio_roots",
)


@dataclass(frozen=True)
class Transition:
    """One edge of the state table: ``state --input/output--> next_state``."""

    state: int
    input: int
    next_state: int
    output: int

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.state} --{self.input}/{self.output}--> {self.next_state}"


class StateTable:
    """A completely specified Mealy machine as a dense state table.

    Parameters
    ----------
    next_state:
        Array of shape ``(n_states, 2**n_inputs)``; entry ``[s, a]`` is the
        state reached from ``s`` under input combination ``a``.
    output:
        Array of the same shape; entry ``[s, a]`` is the integer-encoded
        primary output combination produced during that transition.
    n_inputs:
        Number of primary input *bits* (the paper's ``pi`` column).
    n_outputs:
        Number of primary output bits.
    state_names:
        Optional symbolic names, one per state.  Defaults to ``"s0"..``.
    name:
        Optional machine name (benchmark circuit name).
    """

    __slots__ = (
        "next_state",
        "output",
        "n_inputs",
        "n_outputs",
        "state_names",
        "name",
        *_MEMO_SLOTS,
    )

    def __init__(
        self,
        next_state: np.ndarray,
        output: np.ndarray,
        n_inputs: int,
        n_outputs: int,
        state_names: Sequence[str] | None = None,
        name: str = "",
    ) -> None:
        next_state = np.asarray(next_state, dtype=np.int32)
        output = np.asarray(output, dtype=np.int64)
        if next_state.ndim != 2:
            raise StateTableError("next_state must be a 2-D array")
        if next_state.shape != output.shape:
            raise StateTableError(
                f"next_state shape {next_state.shape} != output shape {output.shape}"
            )
        n_states, n_columns = next_state.shape
        if n_states < 1:
            raise StateTableError("a machine needs at least one state")
        if n_inputs < 0:
            raise StateTableError("n_inputs must be non-negative")
        if n_columns != 1 << n_inputs:
            raise StateTableError(
                f"table has {n_columns} input columns but 2**{n_inputs} expected"
            )
        if n_outputs < 0:
            raise StateTableError("n_outputs must be non-negative")
        if next_state.size and (next_state.min() < 0 or next_state.max() >= n_states):
            raise StateTableError("next_state entries must be valid state indices")
        if output.size and (output.min() < 0 or output.max() >= (1 << n_outputs)):
            raise StateTableError(
                f"output entries must fit in {n_outputs} output bits"
            )
        if state_names is None:
            state_names = tuple(f"s{i}" for i in range(n_states))
        else:
            state_names = tuple(state_names)
            if len(state_names) != n_states:
                raise StateTableError(
                    f"{len(state_names)} state names for {n_states} states"
                )
            if len(set(state_names)) != n_states:
                raise StateTableError("state names must be unique")
        next_state.setflags(write=False)
        output.setflags(write=False)
        object.__setattr__(self, "next_state", next_state)
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "n_inputs", int(n_inputs))
        object.__setattr__(self, "n_outputs", int(n_outputs))
        object.__setattr__(self, "state_names", state_names)
        object.__setattr__(self, "name", str(name))
        for slot in _MEMO_SLOTS:
            object.__setattr__(self, slot, None)

    def __setattr__(self, key: str, value: object) -> None:  # immutability guard
        raise AttributeError("StateTable is immutable")

    def __reduce__(self) -> tuple:
        # __slots__ plus the immutability guard break the default pickle
        # protocol (slot-state restore uses setattr); rebuild through the
        # constructor instead.  Needed so tables travel to worker processes.
        return (
            StateTable,
            (
                self.next_state,
                self.output,
                self.n_inputs,
                self.n_outputs,
                self.state_names,
                self.name,
            ),
        )

    # ------------------------------------------------------------------ sizes

    @property
    def n_states(self) -> int:
        """Number of states (the paper's ``N_ST``)."""
        return int(self.next_state.shape[0])

    @property
    def n_input_combinations(self) -> int:
        """Number of primary input combinations (the paper's ``N_PIC``)."""
        return int(self.next_state.shape[1])

    @property
    def n_transitions(self) -> int:
        """Total number of state transitions, ``N_ST * N_PIC``."""
        return self.n_states * self.n_input_combinations

    @property
    def n_state_variables(self) -> int:
        """Number of state variables ``N_SV = ceil(log2(N_ST))`` (min 1)."""
        return max(1, (self.n_states - 1).bit_length())

    # ------------------------------------------------------------------ views

    def memo(self, slot: str, build: Callable[[], _View]) -> _View:
        """The value memoized in ``slot`` (one of the memo slots), built by
        ``build`` on first use."""
        value = getattr(self, slot)
        if value is None:
            value = build()
            object.__setattr__(self, slot, value)
        return value

    @property
    def next_rows(self) -> tuple[tuple[int, ...], ...]:
        """``next_state`` as one tuple of Python ints per state (memoized)."""
        return self.memo("_next_rows", lambda: _rows(self.next_state))

    @property
    def output_rows(self) -> tuple[tuple[int, ...], ...]:
        """``output`` as one tuple of Python ints per state (memoized)."""
        return self.memo("_output_rows", lambda: _rows(self.output))

    @property
    def next_columns(self) -> tuple[tuple[int, ...], ...]:
        """``next_state`` as one tuple per input combination, indexed by state."""
        return self.memo("_next_columns", lambda: tuple(zip(*self.next_rows)))

    @property
    def output_columns(self) -> tuple[tuple[int, ...], ...]:
        """``output`` as one tuple per input combination, indexed by state."""
        return self.memo("_output_columns", lambda: tuple(zip(*self.output_rows)))

    @property
    def input_representatives(self) -> tuple[int, ...]:
        """One input combination per class of inputs whose next-state and
        output columns are identical, smallest first (memoized).

        Inputs of one class are interchangeable wherever the machine is
        driven, so searches need expand only the representatives.
        """
        return self.memo("_representatives", self._input_representatives)

    def _input_representatives(self) -> tuple[int, ...]:
        first: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for combo, key in enumerate(zip(self.next_columns, self.output_columns)):
            first.setdefault(key, combo)
        return tuple(first.values())

    # ----------------------------------------------------------- bit helpers

    def input_bits(self, combination: int) -> tuple[int, ...]:
        """Decode an input combination integer into ``(x1, ..., x_pi)`` bits."""
        self._check_input(combination)
        return _int_to_bits(combination, self.n_inputs)

    def input_index(self, bits: Iterable[int]) -> int:
        """Encode input bits ``(x1, ..., x_pi)`` into a combination integer."""
        value = _bits_to_int(bits, self.n_inputs)
        return value

    def output_bits(self, combination: int) -> tuple[int, ...]:
        """Decode an output combination integer into per-line bits."""
        if not 0 <= combination < (1 << self.n_outputs):
            raise StateTableError(f"output combination {combination} out of range")
        return _int_to_bits(combination, self.n_outputs)

    def output_index(self, bits: Iterable[int]) -> int:
        """Encode output bits into a combination integer."""
        return _bits_to_int(bits, self.n_outputs)

    # ------------------------------------------------------------- semantics

    def step(self, state: int, combination: int) -> tuple[int, int]:
        """Apply one input combination; return ``(next_state, output)``."""
        self._check_state(state)
        self._check_input(combination)
        return (
            int(self.next_state[state, combination]),
            int(self.output[state, combination]),
        )

    def run(self, state: int, sequence: Sequence[int]) -> tuple[int, tuple[int, ...]]:
        """Apply an input sequence; return ``(final_state, output_sequence)``.

        This is the paper's ``B(A, s)`` response function together with the
        final state reached.
        """
        self._check_state(state)
        outputs: list[int] = []
        current = state
        for combination in sequence:
            self._check_input(combination)
            outputs.append(int(self.output[current, combination]))
            current = int(self.next_state[current, combination])
        return current, tuple(outputs)

    def response(self, state: int, sequence: Sequence[int]) -> tuple[int, ...]:
        """Output sequence ``B(A, s)`` produced from ``state`` under ``sequence``."""
        return self.run(state, sequence)[1]

    def final_state(self, state: int, sequence: Sequence[int]) -> int:
        """State reached from ``state`` after applying ``sequence``."""
        return self.run(state, sequence)[0]

    def transitions(self) -> Iterator[Transition]:
        """Iterate over all transitions in (state-major, input-minor) order.

        This is the order in which the paper's procedure considers candidate
        transitions, so the generator's determinism relies on it.
        """
        for state in range(self.n_states):
            row_next = self.next_state[state]
            row_out = self.output[state]
            for combination in range(self.n_input_combinations):
                yield Transition(
                    state, combination, int(row_next[combination]), int(row_out[combination])
                )

    def transition(self, state: int, combination: int) -> Transition:
        """The single transition out of ``state`` under ``combination``."""
        nxt, out = self.step(state, combination)
        return Transition(state, combination, nxt, out)

    def successors(self, state: int) -> frozenset[int]:
        """Set of states reachable from ``state`` in exactly one step."""
        self._check_state(state)
        return frozenset(int(s) for s in np.unique(self.next_state[state]))

    # ------------------------------------------------------------- utilities

    def renamed(self, name: str) -> "StateTable":
        """A copy of this table under a different machine name."""
        return StateTable(
            self.next_state,
            self.output,
            self.n_inputs,
            self.n_outputs,
            self.state_names,
            name,
        )

    def state_index(self, state_name: str) -> int:
        """Index of the state called ``state_name``."""
        try:
            return self.state_names.index(state_name)
        except ValueError:
            raise StateTableError(f"unknown state name {state_name!r}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateTable):
            return NotImplemented
        return (
            self.n_inputs == other.n_inputs
            and self.n_outputs == other.n_outputs
            and self.state_names == other.state_names
            and np.array_equal(self.next_state, other.next_state)
            and np.array_equal(self.output, other.output)
        )

    def __hash__(self) -> int:
        # Memoized: hashing serializes both arrays.
        return self.memo(
            "_hash",
            lambda: hash(
                (
                    self.n_inputs,
                    self.n_outputs,
                    self.state_names,
                    self.next_state.tobytes(),
                    self.output.tobytes(),
                )
            ),
        )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<StateTable{label}: {self.n_states} states, {self.n_inputs} inputs, "
            f"{self.n_outputs} outputs>"
        )

    # ----------------------------------------------------------------- guards

    def _check_state(self, state: int) -> None:
        if not 0 <= state < self.n_states:
            raise StateTableError(
                f"state {state} out of range [0, {self.n_states})"
            )

    def _check_input(self, combination: int) -> None:
        if not 0 <= combination < self.n_input_combinations:
            raise StateTableError(
                f"input combination {combination} out of range "
                f"[0, {self.n_input_combinations})"
            )


def _rows(array: np.ndarray) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, array.tolist()))


def _int_to_bits(value: int, width: int) -> tuple[int, ...]:
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def _bits_to_int(bits: Iterable[int], width: int) -> int:
    bit_list = list(bits)
    if len(bit_list) != width:
        raise StateTableError(f"expected {width} bits, got {len(bit_list)}")
    value = 0
    for bit in bit_list:
        if bit not in (0, 1):
            raise StateTableError(f"bits must be 0 or 1, got {bit!r}")
        value = (value << 1) | bit
    return value
