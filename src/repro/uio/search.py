"""Breadth-first search for unique input-output sequences.

The search state ("node") is the pair ``(current, candidates)`` where
``current`` is the position the target state ``s`` has reached, and
``candidates`` is the set of positions reached by the other start states
whose output responses have matched ``s``'s response so far.  Applying an
input ``a``:

* others whose output differs from ``current``'s output are *distinguished*
  and leave the candidate set;
* others producing the same output move to their next states;
* if a surviving candidate lands on the same position as ``current``, its
  future responses are identical to ``s``'s forever, so the node is a dead
  end and is pruned.

The goal is an empty candidate set.  Breadth-first order yields a shortest
UIO; visited-set memoization keeps the search finite; a node-expansion budget
bounds worst-case machines (UIO existence is NP-hard in general).

Two input combinations whose next-state and output *columns* are identical
over all states are interchangeable everywhere in the search, so only one
representative per such input equivalence class is expanded
(:func:`input_class_representatives`).  This matters for machines like
``nucpwr`` with ``2**13`` input combinations.  Expanding the representatives
in increasing order makes the result the lexicographically first shortest
UIO over them: a node pruned as visited was reached first by a smaller
prefix, and a merged node has no UIO below it.

Each expansion reads one input's next-state and output columns
(:attr:`~repro.fsm.state_table.StateTable.next_columns`), Python tuples
indexed by state, rather than numpy scalars.

The root expansion — the search's first step, ``(s, all other states)`` —
is read from a classification of every state's root children, built once
per table and memoized on it next to the input representatives (never
pickled, no part in ``==``/``hash``).  Under each representative a root
child is *unique* (no other state shares ``s``'s output: a length-1 UIO),
*merged* (some other state shares both the output and the next state: the
merge prune), or *open*.  The root therefore returns at its first unique
input, counts the merges before it, and builds survivor sets only for the
open children before it; from depth 2 on, every node is expanded as
described above.  The returned sequences and the ``uio.search.*`` effort
counters equal those of expanding the root like any other node.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import SearchBudgetExceeded, StateTableError
from repro.fsm.state_table import StateTable
from repro.obs.metrics import current_registry
from repro.obs.provenance import current_provenance
from repro.obs.trace import span as trace_span

__all__ = [
    "UioSequence",
    "UioTable",
    "find_uio",
    "compute_uio_table",
    "input_class_representatives",
    "DEFAULT_NODE_BUDGET",
]

#: Node-expansion budget used when callers do not specify one.
DEFAULT_NODE_BUDGET = 200_000


@dataclass(frozen=True)
class UioSequence:
    """A unique input-output sequence ``D_s`` for ``state``.

    ``final_state`` is where the machine ends up after applying ``inputs``
    from ``state`` — the paper's "f.stat" column of Table 2.
    """

    state: int
    inputs: tuple[int, ...]
    final_state: int

    @property
    def length(self) -> int:
        return len(self.inputs)


@dataclass
class UioTable:
    """UIO sequences for all states of one machine (at most one per state).

    ``budget_exhausted`` lists states whose search hit the node budget; for
    those states absence of a sequence is *not* proven.
    """

    machine_name: str
    max_length: int
    sequences: dict[int, UioSequence] = field(default_factory=dict)
    budget_exhausted: frozenset[int] = frozenset()

    def get(self, state: int) -> UioSequence | None:
        """The UIO for ``state`` or ``None`` when none was found."""
        return self.sequences.get(state)

    def has(self, state: int) -> bool:
        return state in self.sequences

    @property
    def n_found(self) -> int:
        """The paper's Table 4 "unique" column."""
        return len(self.sequences)

    @property
    def max_found_length(self) -> int:
        """The paper's Table 4 "m.len" column (0 when no state has a UIO)."""
        if not self.sequences:
            return 0
        return max(seq.length for seq in self.sequences.values())

    def __iter__(self) -> Iterator[UioSequence]:
        return iter(self.sequences.values())

    def verify(self, table: StateTable) -> None:
        """Re-check every stored sequence against the machine definition.

        Raises :class:`StateTableError` if any stored sequence fails the UIO
        property; used by the test suite and available as a sanity hook.
        """
        for state, seq in self.sequences.items():
            response = table.response(state, seq.inputs)
            for other in range(table.n_states):
                if other == state:
                    continue
                if table.response(other, seq.inputs) == response:
                    raise StateTableError(
                        f"stored sequence for state {state} does not "
                        f"distinguish it from state {other}"
                    )
            if table.final_state(state, seq.inputs) != seq.final_state:
                raise StateTableError(
                    f"stored final state for state {state} is wrong"
                )


def input_class_representatives(table: StateTable) -> tuple[int, ...]:
    """One input combination per (next-state column, output column) class.

    Returned in increasing input order, so searches that iterate over the
    representatives stay deterministic and prefer numerically small inputs —
    the same tie-break the paper's examples use.

    Memoized on the table (:attr:`StateTable.input_representatives`), so
    repeated UIO/transfer searches on one machine (e.g. ``nucpwr`` with
    ``2**13`` input combinations) share one scan.
    """
    return table.input_representatives


def find_uio(
    table: StateTable,
    state: int,
    max_length: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> UioSequence | None:
    """Shortest UIO of length at most ``max_length`` for ``state``.

    Returns ``None`` when no such sequence exists within the length bound.
    Raises :class:`SearchBudgetExceeded` when ``node_budget`` node
    expansions were insufficient to settle the question.
    """
    n_states = table.n_states
    if not 0 <= state < n_states:
        raise StateTableError(f"state {state} out of range")
    if max_length < 0:
        raise StateTableError("max_length must be non-negative")
    if n_states == 1:
        # A single-state machine: the empty sequence vacuously distinguishes.
        return UioSequence(state, (), state)
    # Search-effort accounting stays in plain locals — the obs registry is
    # consulted once per find_uio call (in _report_search), never per node,
    # so disabled-mode overhead is a handful of integer increments.
    expanded = 0
    merge_prunes = 0
    visited_prunes = 0
    try:
        if max_length == 0:
            return None
        # The root, expanded from the table's classification of its
        # children: only the open ones need a survivor set.
        expanded = 1
        if expanded > node_budget:
            raise _exhausted(state, node_budget, expanded)
        unique, merge_prunes, open_children = _root_children(table)[state]
        next_columns = table.next_columns
        output_columns = table.output_columns
        visited: set[tuple[int, frozenset[int]]] = set()
        frontier: list[tuple[int, frozenset[int], tuple[int, ...]]] = []
        if open_children:
            others = frozenset(range(n_states)) - {state}
            visited.add((state, others))
            for combo in open_children:
                column_next, column_out = next_columns[combo], output_columns[combo]
                out = column_out[state]
                node = (
                    column_next[state],
                    frozenset(
                        [column_next[t] for t in others if column_out[t] == out]
                    ),
                )
                if node in visited:
                    visited_prunes += 1
                else:
                    visited.add(node)
                    frontier.append((*node, (combo,)))
        if unique is not None:
            return UioSequence(state, (unique,), table.next_rows[state][unique])
        if not frontier:
            return None
        columns = [
            (combo, next_columns[combo], output_columns[combo])
            for combo in table.input_representatives
        ]
        for _depth in range(1, max_length):
            next_frontier: list[tuple[int, frozenset[int], tuple[int, ...]]] = []
            for current, candidates, prefix in frontier:
                expanded += 1
                if expanded > node_budget:
                    raise _exhausted(state, node_budget, expanded)
                for combo, column_next, column_out in columns:
                    out = column_out[current]
                    survivors = frozenset(
                        [column_next[t] for t in candidates if column_out[t] == out]
                    )
                    nxt = column_next[current]
                    if not survivors:
                        return UioSequence(state, prefix + (combo,), nxt)
                    if nxt in survivors:
                        merge_prunes += 1
                        continue  # some other state merged with us: dead end
                    node = (nxt, survivors)
                    if node not in visited:
                        visited.add(node)
                        next_frontier.append((nxt, survivors, prefix + (combo,)))
                    else:
                        visited_prunes += 1
            if not next_frontier:
                return None
            frontier = next_frontier
        return None
    finally:
        _report_search(expanded, merge_prunes, visited_prunes)


def _exhausted(state: int, node_budget: int, expanded: int) -> SearchBudgetExceeded:
    return SearchBudgetExceeded(
        f"UIO search for state {state} exceeded {node_budget} node expansions",
        expanded,
    )


def _root_children(table: StateTable) -> tuple[tuple[int | None, int, tuple[int, ...]], ...]:
    """The classification of every search root's children, memoized on the
    table next to its input representatives."""
    return table.memo("_uio_roots", lambda: _classify_roots(table))


def _classify_roots(table: StateTable) -> tuple[tuple[int | None, int, tuple[int, ...]], ...]:
    """How the root of each state's search expands, for all states at once.

    One ``(unique, merged, open)`` per state, over the input
    representatives in increasing order:

    * ``unique`` is the first representative under which no other state
      produces the state's output — a length-1 UIO — or ``None``;
    * ``merged`` counts the representatives before it under which some
      other state produces the same output *and* reaches the same next
      state (the merge prune);
    * ``open`` lists the other representatives before it, the root's
      children that need a survivor set.

    Each verdict is a count over one column tuple (``tuple.count``, a C
    loop).  A state whose whole row another state shares merges under every
    input, so its columns are not walked.
    """
    representatives = table.input_representatives
    next_columns, output_columns = table.next_columns, table.output_columns
    rows = list(zip(table.next_rows, table.output_rows))
    copies = Counter(rows)
    roots = []
    for state, row in enumerate(rows):
        if copies[row] > 1:
            roots.append((None, len(representatives), ()))
            continue
        unique, merged, open_inputs = None, 0, []
        for combo in representatives:
            outs = output_columns[combo]
            out = outs[state]
            if outs.count(out) == 1:
                unique = combo
                break
            if _merges(state, out, outs, next_columns[combo]):
                merged += 1
            else:
                open_inputs.append(combo)
        roots.append((unique, merged, tuple(open_inputs)))
    return tuple(roots)


def _merges(state: int, out: int, outs: tuple[int, ...], nexts: tuple[int, ...]) -> bool:
    """Whether another state produces ``out`` and reaches ``state``'s next
    state in the column ``(outs, nexts)``."""
    nxt = nexts[state]
    index = -1
    for _ in range(nexts.count(nxt)):
        index = nexts.index(nxt, index + 1)
        if index != state and outs[index] == out:
            return True
    return False


def _report_search(expanded: int, merge_prunes: int, visited_prunes: int) -> None:
    """Fold one search's effort counters into the metrics registry."""
    registry = current_registry()
    if registry is None:
        return
    registry.counter("uio.search.nodes_expanded").add(expanded)
    registry.counter("uio.search.prunes.merged").add(merge_prunes)
    registry.counter("uio.search.prunes.visited").add(visited_prunes)
    registry.histogram("uio.search.nodes_per_state").observe(expanded)


def compute_uio_table(
    table: StateTable,
    max_length: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> UioTable:
    """UIO sequences for every state of ``table`` (the paper's Table 2/4).

    ``max_length`` defaults to the number of state variables ``N_SV`` — the
    paper's default bound ``L <= N_SV``, chosen so that applying a UIO never
    takes longer than a scan-out/scan-in pair.  States whose search hits the
    node budget are recorded in :attr:`UioTable.budget_exhausted` and treated
    as having no UIO.
    """
    if max_length is None:
        max_length = table.n_state_variables
    with trace_span(
        "uio.search", machine=table.name, n_states=table.n_states,
        max_length=max_length,
    ) as sp:
        sequences: dict[int, UioSequence] = {}
        exhausted: set[int] = set()
        for state in range(table.n_states):
            try:
                found = find_uio(table, state, max_length, node_budget)
            except SearchBudgetExceeded:
                exhausted.add(state)
                continue
            if found is not None:
                sequences[state] = found
        sp.set(found=len(sequences), budget_exhausted=len(exhausted))
    registry = current_registry()
    if registry is not None:
        registry.counter("uio.search.states").add(table.n_states)
        registry.counter("uio.search.found").add(len(sequences))
        registry.counter("uio.search.budget_exhausted").add(len(exhausted))
    prov = current_provenance()
    if prov is not None:
        # One outcome per state: "none" proves absence within the bound,
        # "budget" only means the search gave up — the generator's
        # scan-out reasons mirror this distinction.
        for state in range(table.n_states):
            seq = sequences.get(state)
            if seq is not None:
                prov.uio_outcome(
                    table.name, state, "found",
                    length=seq.length, final_state=seq.final_state,
                )
            elif state in exhausted:
                prov.uio_outcome(
                    table.name, state, "budget", node_budget=node_budget
                )
            else:
                prov.uio_outcome(
                    table.name, state, "none", max_length=max_length
                )
    return UioTable(table.name, max_length, sequences, frozenset(exhausted))
