"""Two-level synthesis of a state table into a full-scan netlist.

The combinational block of a scanned Mealy machine computes the next-state
bits and the primary outputs from the current state bits and the primary
inputs:

    inputs:  y_0 .. y_{sv-1}  (state bits, MSB first), x_0 .. x_{pi-1}
    outputs: Y_0 .. Y_{sv-1}  (next-state bits),       z_0 .. z_{po-1}

States use the natural binary encoding (state index = code).  Each KISS row
``(input-cube, present, next, output-cube)`` becomes one product term — an
AND of the present-state literals and the specified input literals — shared
across all the next-state and output bits it drives.  Rows of the same
(present, next, output) group are adjacency-merged first, so minterm-listed
machines synthesize compactly.

An optional tree decomposition bounds gate fanin, turning the two-level
structure into a multi-level one (closer to the technology-mapped circuits
the paper fault-simulated).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SynthesisError
from repro.fsm.encoding import StateEncoding, gray_encoding, natural_encoding
from repro.fsm.kiss import KissMachine, table_to_kiss
from repro.fsm.state_table import StateTable
from repro.gatelevel.netlist import GateType, Netlist
from repro.gatelevel.sop import merge_cubes

__all__ = ["SynthesisOptions", "SynthesizedCircuit", "synthesize"]


@dataclass(frozen=True)
class SynthesisOptions:
    """Synthesis knobs.

    ``max_fanin`` of ``None`` keeps the flat two-level structure; a number
    ``>= 2`` decomposes wide AND/OR gates into balanced trees of gates with
    at most that many fanins.  ``merge_adjacent`` toggles the cube-merging
    preprocessing step.  ``encoding`` selects the state assignment:
    ``"natural"`` (state index = code) or ``"gray"`` (reflected Gray codes)
    — the functional behaviour is identical, the logic and its fault
    universe are not.
    """

    max_fanin: int | None = None
    merge_adjacent: bool = True
    encoding: str = "natural"

    def __post_init__(self) -> None:
        if self.max_fanin is not None and self.max_fanin < 2:
            raise SynthesisError("max_fanin must be None or >= 2")
        if self.encoding not in ("natural", "gray"):
            raise SynthesisError(
                f"unknown encoding {self.encoding!r}; use 'natural' or 'gray'"
            )


@dataclass(frozen=True)
class SynthesizedCircuit:
    """A synthesized combinational block plus its interface map."""

    netlist: Netlist
    encoding: StateEncoding
    n_state_variables: int
    n_primary_inputs: int
    n_primary_outputs: int

    @property
    def state_input_lines(self) -> tuple[int, ...]:
        return self.netlist.inputs[: self.n_state_variables]

    @property
    def primary_input_lines(self) -> tuple[int, ...]:
        return self.netlist.inputs[self.n_state_variables :]

    @property
    def next_state_lines(self) -> tuple[int, ...]:
        return self.netlist.outputs[: self.n_state_variables]

    @property
    def primary_output_lines(self) -> tuple[int, ...]:
        return self.netlist.outputs[self.n_state_variables :]


def _grouped_rows(machine: KissMachine, merge: bool) -> list[tuple[str, str, str, str]]:
    """Rows as (input_cube, present, next, output) with optional merging."""
    groups: dict[tuple[str, str, str], list[str]] = {}
    order: list[tuple[str, str, str]] = []
    for row in machine.rows:
        key = (row.present, row.next, row.output_cube)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row.input_cube)
    result: list[tuple[str, str, str, str]] = []
    for key in order:
        cubes = merge_cubes(groups[key]) if merge else groups[key]
        for cube in cubes:
            result.append((cube, key[0], key[1], key[2]))
    return result


def _tree(netlist: Netlist, kind: GateType, lines: list[int], max_fanin: int | None,
          name: str) -> int:
    """AND/OR of ``lines``, decomposed into a tree when ``max_fanin`` binds."""
    if not lines:
        raise SynthesisError("empty gate requested")
    if len(lines) == 1:
        return lines[0]
    if max_fanin is None or len(lines) <= max_fanin:
        return netlist.add_gate(kind, lines, name)
    level = list(lines)
    while len(level) > 1:
        next_level: list[int] = []
        for start in range(0, len(level), max_fanin):
            chunk = level[start : start + max_fanin]
            if len(chunk) == 1:
                next_level.append(chunk[0])
            else:
                next_level.append(netlist.add_gate(kind, chunk))
        level = next_level
    return level[0]


def synthesize(
    machine: KissMachine | StateTable,
    options: SynthesisOptions | None = None,
) -> SynthesizedCircuit:
    """Synthesize the combinational block of the scanned machine.

    Accepts either a cube-level :class:`KissMachine` (preferred — the cube
    structure drives the product terms) or a dense :class:`StateTable`
    (converted to one row per transition, then adjacency-merged).

    The synthesized block is validated structurally; functional equivalence
    against the state table is checked by :class:`repro.gatelevel.scan.ScanCircuit`
    and the test suite.
    """
    if options is None:
        options = SynthesisOptions()
    if isinstance(machine, StateTable):
        table = machine
        kiss = table_to_kiss(machine)
    else:
        kiss = machine
        table = machine.to_state_table()
    if options.encoding == "gray":
        encoding = gray_encoding(table)
    else:
        encoding = natural_encoding(table)
    sv = table.n_state_variables
    pi = table.n_inputs
    po = table.n_outputs
    state_index = {name: i for i, name in enumerate(table.state_names)}

    netlist = Netlist(name=f"{table.name or 'fsm'}_comb")
    state_lines = [netlist.add_input(f"y{j}") for j in range(sv)]
    input_lines = [netlist.add_input(f"x{j}") for j in range(pi)]
    inverted: dict[int, int] = {}

    def literal(line: int, positive: bool) -> int:
        if positive:
            return line
        if line not in inverted:
            inverted[line] = netlist.add_gate(GateType.NOT, (line,))
        return inverted[line]

    term_cache: dict[tuple[tuple[int, bool], ...], int] = {}

    def product_term(literals: list[tuple[int, bool]], name: str) -> int:
        key = tuple(literals)
        if key not in term_cache:
            # Never empty: every term lists all (at least one) state bits.
            lines = [literal(line, positive) for line, positive in literals]
            term_cache[key] = _tree(
                netlist, GateType.AND, lines, options.max_fanin, name
            )
        return term_cache[key]

    next_terms: list[list[int]] = [[] for _ in range(sv)]
    output_terms: list[list[int]] = [[] for _ in range(po)]
    for cube, present, nxt, out_cube in _grouped_rows(kiss, options.merge_adjacent):
        present_code = encoding.encode(state_index[present])
        next_code = encoding.encode(state_index[nxt])
        literals: list[tuple[int, bool]] = []
        for j in range(sv):
            bit = (present_code >> (sv - 1 - j)) & 1
            literals.append((state_lines[j], bool(bit)))
        for j, ch in enumerate(cube):
            if ch == "-":
                continue
            literals.append((input_lines[j], ch == "1"))
        drives_next = [j for j in range(sv) if (next_code >> (sv - 1 - j)) & 1]
        drives_out = [j for j, ch in enumerate(out_cube) if ch == "1"]
        if not drives_next and not drives_out:
            continue  # the term drives nothing: next code 0, all outputs 0
        term = product_term(literals, f"t_{present}_{cube}")
        for j in drives_next:
            next_terms[j].append(term)
        for j in drives_out:
            output_terms[j].append(term)

    const0: int | None = None

    def sum_term(terms: list[int], name: str) -> int:
        nonlocal const0
        if not terms:
            if const0 is None:
                const0 = netlist.add_gate(GateType.CONST0, ())
            return const0
        unique = list(dict.fromkeys(terms))
        if len(unique) == 1:
            return unique[0]
        return _tree(netlist, GateType.OR, unique, options.max_fanin, name)

    outputs = [sum_term(next_terms[j], f"Y{j}") for j in range(sv)]
    outputs += [sum_term(output_terms[j], f"z{j}") for j in range(po)]
    netlist.set_outputs(outputs)
    netlist.check()
    return SynthesizedCircuit(netlist, encoding, sv, pi, po)
