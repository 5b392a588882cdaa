"""KISS2 finite-state-machine exchange format.

KISS2 is the format of the MCNC/LGSynth benchmark suite the paper evaluates
on.  A document looks like::

    .i 2
    .o 1
    .s 4
    .p 16
    .r st0
    00 st0 st0 0
    01 st0 st1 1
    ...
    .e

Each row is ``<input-cube> <present-state> <next-state> <output-cube>`` where
cubes may contain ``-`` (don't-care).  :func:`parse_kiss` reads a document
into a cube-level :class:`KissMachine`; :meth:`KissMachine.to_state_table`
expands the cubes into a dense :class:`~repro.fsm.state_table.StateTable`.

The cube-level view is kept because two-level gate synthesis
(:mod:`repro.gatelevel.synthesis`) produces far smaller logic from cubes than
from fully enumerated minterms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.lint import LintReport

import numpy as np

from repro.errors import IncompleteMachineError, KissFormatError
from repro.fsm.state_table import StateTable

__all__ = [
    "KissRow",
    "KissMachine",
    "CubeAnomaly",
    "CubeExpansion",
    "expand_machine",
    "parse_kiss",
    "write_kiss",
    "expand_cube",
]

_ANY_STATE = "*"


@dataclass(frozen=True)
class CubeAnomaly:
    """One cube-level defect found while expanding a machine.

    ``kind`` is ``"width"`` (a cube narrower/wider than the declared
    ``.i``/``.o`` counts) or ``"conflict"`` (two rows assign different
    behaviour to the same (state, input) entry — nondeterminism).
    """

    kind: str
    message: str
    row_index: int
    state: str = ""
    combination: int = -1


@dataclass
class CubeExpansion:
    """Dense expansion of a :class:`KissMachine`, defects included.

    This is the shared primitive behind both :meth:`KissMachine.to_state_table`
    (which raises on the first anomaly) and the FSM lint rules (which report
    every anomaly as a diagnostic).  ``next_state`` holds ``-1`` for
    unspecified entries; ``holes`` lists them explicitly.
    """

    names: list[str]
    next_state: np.ndarray
    output: np.ndarray
    anomalies: list[CubeAnomaly]
    holes: list[tuple[int, int]]

    @property
    def conflicts(self) -> list[CubeAnomaly]:
        return [a for a in self.anomalies if a.kind == "conflict"]

    @property
    def width_errors(self) -> list[CubeAnomaly]:
        return [a for a in self.anomalies if a.kind == "width"]


def expand_machine(machine: "KissMachine") -> CubeExpansion:
    """Expand every cube of ``machine``, collecting defects instead of raising.

    Rows whose cube widths mismatch the declared counts are recorded and
    skipped; conflicting assignments keep the first row's behaviour and
    record the conflict.  Anomalies appear in row order, so the first one is
    the same defect the legacy fail-fast path reported.
    """
    names = machine.state_names()
    index = {name: i for i, name in enumerate(names)}
    n_states = len(names)
    n_cols = 1 << machine.n_inputs
    # Filled as Python lists and converted once: per-entry numpy scalar
    # reads and writes cost several times a list's.
    next_rows = [[-1] * n_cols for _ in range(n_states)]
    output_rows = [[0] * n_cols for _ in range(n_states)]
    anomalies: list[CubeAnomaly] = []
    for row_index, row in enumerate(machine.rows):
        if len(row.input_cube) != machine.n_inputs:
            anomalies.append(CubeAnomaly(
                "width",
                f"row {row}: input cube width != .i {machine.n_inputs}",
                row_index,
            ))
            continue
        if len(row.output_cube) != machine.n_outputs:
            anomalies.append(CubeAnomaly(
                "width",
                f"row {row}: output cube width != .o {machine.n_outputs}",
                row_index,
            ))
            continue
        out_value = (
            int(row.output_cube.replace("-", "0"), 2) if machine.n_outputs else 0
        )
        presents = (
            range(n_states) if row.present == _ANY_STATE else (index[row.present],)
        )
        nxt = index[row.next]
        for combo in expand_cube(row.input_cube):
            for present in presents:
                next_row = next_rows[present]
                previous = next_row[combo]
                if previous != -1 and (
                    previous != nxt or output_rows[present][combo] != out_value
                ):
                    anomalies.append(CubeAnomaly(
                        "conflict",
                        f"conflicting rows for state {names[present]!r} "
                        f"under input {combo:0{machine.n_inputs}b}",
                        row_index,
                        names[present],
                        combo,
                    ))
                    continue
                next_row[combo] = nxt
                output_rows[present][combo] = out_value
    next_state = np.array(next_rows, dtype=np.int32).reshape(n_states, n_cols)
    output = np.array(output_rows, dtype=np.int64).reshape(n_states, n_cols)
    holes = [
        (int(state), int(combo)) for state, combo in zip(*np.nonzero(next_state == -1))
    ]
    return CubeExpansion(names, next_state, output, anomalies, holes)


@dataclass(frozen=True)
class KissRow:
    """One KISS2 row: ``input_cube present_state next_state output_cube``."""

    input_cube: str
    present: str
    next: str
    output_cube: str

    def __post_init__(self) -> None:
        for cube in (self.input_cube, self.output_cube):
            if any(ch not in "01-" for ch in cube):
                raise KissFormatError(f"bad cube {cube!r} (only 0, 1, - allowed)")

    def __str__(self) -> str:
        return f"{self.input_cube} {self.present} {self.next} {self.output_cube}"


@dataclass
class KissMachine:
    """A cube-level FSM description as read from a KISS2 document."""

    n_inputs: int
    n_outputs: int
    rows: list[KissRow] = field(default_factory=list)
    reset_state: str | None = None
    name: str = ""

    def state_names(self) -> list[str]:
        """Symbolic states, reset first, then present states in declaration
        order, then any states that only ever appear as next states."""
        seen: dict[str, None] = {}
        if self.reset_state is not None:
            seen[self.reset_state] = None
        for row in self.rows:
            if row.present != _ANY_STATE:
                seen.setdefault(row.present, None)
        for row in self.rows:
            seen.setdefault(row.next, None)
        return list(seen)

    @property
    def n_states(self) -> int:
        return len(self.state_names())

    def to_state_table(self, fill_unspecified: bool = False) -> StateTable:
        """Expand the cubes into a dense, completely specified state table.

        Don't-care *output* bits are resolved to ``0``.  Unspecified
        ``(state, input)`` entries raise :class:`IncompleteMachineError`
        unless ``fill_unspecified`` is set, in which case they go to the
        reset state (first state) with an all-zero output — mirroring how a
        synthesized implementation with unused codes behaves.
        """
        expansion = expand_machine(self)
        if not expansion.names:
            raise KissFormatError("machine has no states")
        # Lint-backed preflight: the same expansion feeds the FSM analyzer
        # (rules FSM001/FSM002/FSM006); ERROR-level findings surface here as
        # the established exception types, first defect first.
        if expansion.anomalies:
            raise KissFormatError(expansion.anomalies[0].message)
        next_state, output = expansion.next_state, expansion.output
        if expansion.holes:
            if not fill_unspecified:
                raise IncompleteMachineError(
                    f"{len(expansion.holes)} unspecified (state, input) entries; "
                    "pass fill_unspecified=True to complete them"
                )
            output[next_state == -1] = 0
            next_state[next_state == -1] = 0
        return StateTable(
            next_state,
            output,
            self.n_inputs,
            self.n_outputs,
            expansion.names,
            self.name,
        )

    def lint(self) -> "LintReport":
        """Static diagnostics for this machine (a :class:`repro.lint.LintReport`).

        Imported lazily to keep :mod:`repro.fsm` free of an import cycle with
        the analyzer package, which itself builds on this module.
        """
        from repro.lint import analyze_machine

        return analyze_machine(self)

    def __iter__(self) -> Iterator[KissRow]:
        return iter(self.rows)


def expand_cube(cube: str) -> Iterator[int]:
    """Yield every input combination integer covered by ``cube`` (MSB first).

    Combinations come in the order of a counter over the free positions
    whose least significant bit is the leftmost ``-``.
    """
    width = len(cube)
    values = [int(cube.replace("-", "0"), 2) if cube else 0]
    for index, ch in enumerate(cube):
        if ch == "-":
            bit = 1 << (width - 1 - index)
            values += [value | bit for value in values]
    return iter(values)


def parse_kiss(text: str, name: str = "") -> KissMachine:
    """Parse a KISS2 document into a :class:`KissMachine`.

    Header counts (``.s``, ``.p``) are validated against the body when
    present.  Comment lines starting with ``#`` and blank lines are ignored.
    """
    n_inputs: int | None = None
    n_outputs: int | None = None
    declared_states: int | None = None
    declared_products: int | None = None
    reset: str | None = None
    rows: list[KissRow] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            parts = line.split()
            directive = parts[0]
            if directive == ".e":
                break
            if directive in (".i", ".o", ".s", ".p"):
                if len(parts) != 2 or not parts[1].lstrip("-").isdigit():
                    raise KissFormatError(f"line {line_no}: bad directive {line!r}")
                value = int(parts[1])
                if value < 0:
                    raise KissFormatError(f"line {line_no}: negative count")
                if directive == ".i":
                    n_inputs = value
                elif directive == ".o":
                    n_outputs = value
                elif directive == ".s":
                    declared_states = value
                else:
                    declared_products = value
            elif directive == ".r":
                if len(parts) != 2:
                    raise KissFormatError(f"line {line_no}: bad reset directive")
                reset = parts[1]
            else:
                # Unknown directives (.ilb, .ob, ...) are tolerated.
                continue
        else:
            parts = line.split()
            if len(parts) != 4:
                raise KissFormatError(
                    f"line {line_no}: expected 4 fields, got {len(parts)}"
                )
            rows.append(KissRow(parts[0], parts[1], parts[2], parts[3]))
    if n_inputs is None or n_outputs is None:
        raise KissFormatError("missing .i / .o header")
    machine = KissMachine(n_inputs, n_outputs, rows, reset, name)
    if declared_products is not None and declared_products != len(rows):
        raise KissFormatError(
            f".p declares {declared_products} rows but {len(rows)} found"
        )
    if declared_states is not None and machine.n_states > declared_states:
        raise KissFormatError(
            f".s declares {declared_states} states but {machine.n_states} appear"
        )
    return machine


def write_kiss(machine: KissMachine) -> str:
    """Serialize a :class:`KissMachine` back to KISS2 text."""
    lines = [f".i {machine.n_inputs}", f".o {machine.n_outputs}"]
    lines.append(f".s {machine.n_states}")
    lines.append(f".p {len(machine.rows)}")
    if machine.reset_state is not None:
        lines.append(f".r {machine.reset_state}")
    lines.extend(str(row) for row in machine.rows)
    lines.append(".e")
    return "\n".join(lines) + "\n"


def table_to_kiss(table: StateTable) -> KissMachine:
    """Represent a dense state table as one KISS2 row per transition."""
    rows = [
        KissRow(
            format(t.input, f"0{table.n_inputs}b") if table.n_inputs else "",
            table.state_names[t.state],
            table.state_names[t.next_state],
            format(t.output, f"0{table.n_outputs}b") if table.n_outputs else "",
        )
        for t in table.transitions()
    ]
    return KissMachine(
        table.n_inputs,
        table.n_outputs,
        rows,
        table.state_names[0],
        table.name,
    )
