"""Transfer sequence search.

A transfer sequence takes the machine from a known state to some state in a
target set, using ordinary (fault-free) transitions.  The paper bounds
transfer sequences to length ``T = 1`` in its main experiments so that a UIO
followed by a transfer never costs more than one clock cycle above a
scan-out/scan-in pair; the search below handles any bound.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from repro.errors import StateTableError
from repro.fsm.state_table import StateTable
from repro.obs.metrics import current_registry
from repro.obs.provenance import current_provenance
from repro.obs.trace import span as trace_span

__all__ = ["find_transfer", "transfer_map"]


def find_transfer(
    table: StateTable,
    source: int,
    targets: Iterable[int] | Callable[[int], bool],
    max_length: int,
) -> tuple[int, ...] | None:
    """Shortest input sequence of length ``<= max_length`` into ``targets``.

    ``targets`` is either a collection of state indices or a predicate.
    Returns the empty tuple when ``source`` itself is a target, and ``None``
    when no target is reachable within the bound.  Ties are broken towards
    numerically smaller inputs (breadth-first, input order), matching the
    worked example in the paper (state 0 transfers to state 1 via input 01).
    """
    if not 0 <= source < table.n_states:
        raise StateTableError(f"source state {source} out of range")
    if max_length < 0:
        raise StateTableError("max_length must be non-negative")
    if callable(targets):
        is_target = targets
    else:
        target_set = frozenset(targets)
        is_target = target_set.__contains__
    if is_target(source):
        return ()
    visited = {source}
    frontier: deque[tuple[int, tuple[int, ...]]] = deque([(source, ())])
    peak_frontier = 1
    found: tuple[int, ...] | None = None
    while frontier:
        if len(frontier) > peak_frontier:
            peak_frontier = len(frontier)
        state, path = frontier.popleft()
        if len(path) == max_length:
            continue
        for combo, nxt in enumerate(table.next_rows[state]):
            if nxt in visited:
                continue
            step_path = path + (combo,)
            if is_target(nxt):
                found = step_path
                frontier.clear()
                break
            visited.add(nxt)
            frontier.append((nxt, step_path))
    registry = current_registry()
    if registry is not None:
        registry.counter("transfer.bfs.searches").add(1)
        registry.counter("transfer.bfs.states_visited").add(len(visited))
        registry.histogram("transfer.bfs.frontier_peak").observe(peak_frontier)
        if found is not None:
            registry.histogram("transfer.bfs.length").observe(len(found))
        else:
            registry.counter("transfer.bfs.unreachable").add(1)
    prov = current_provenance()
    if prov is not None:
        if found is not None:
            prov.transfer_outcome(
                table.name, source, "found", length=len(found)
            )
        else:
            prov.transfer_outcome(
                table.name, source, "none", max_length=max_length
            )
    return found


def transfer_map(
    table: StateTable,
    targets: Iterable[int],
    max_length: int,
) -> dict[int, tuple[int, ...]]:
    """Shortest transfer sequence from *every* state into ``targets``.

    Computed with a single backward breadth-first search, so it costs
    ``O(N_ST * N_PIC)`` regardless of how many sources ask.  States with no
    transfer within the bound are absent from the result.
    """
    target_set = frozenset(targets)
    for state in target_set:
        if not 0 <= state < table.n_states:
            raise StateTableError(f"target state {state} out of range")
    with trace_span(
        "transfer.map", machine=table.name, targets=len(target_set),
        max_length=max_length,
    ) as sp:
        result = _transfer_map(table, target_set, max_length)
        sp.set(reached=len(result))
    registry = current_registry()
    if registry is not None:
        registry.counter("transfer.map.searches").add(1)
        registry.counter("transfer.map.states_reached").add(len(result))
    return result


def _transfer_map(
    table: StateTable,
    target_set: frozenset[int],
    max_length: int,
) -> dict[int, tuple[int, ...]]:
    # Backward BFS over the reversed transition relation.  To reconstruct
    # forward paths with the input-order tie-break, store for each state the
    # (input, successor) step of one shortest path.
    best_step: dict[int, tuple[int, int]] = {}
    distance = {state: 0 for state in target_set}
    frontier = deque(sorted(target_set))
    reverse: dict[int, list[tuple[int, int]]] = {}
    for state in range(table.n_states):
        row = table.next_state[state]
        for combo in range(table.n_input_combinations):
            reverse.setdefault(int(row[combo]), []).append((state, combo))
    while frontier:
        state = frontier.popleft()
        if distance[state] == max_length:
            continue
        for predecessor, combo in reverse.get(state, ()):  # sorted by construction
            if predecessor not in distance:
                distance[predecessor] = distance[state] + 1
                best_step[predecessor] = (combo, state)
                frontier.append(predecessor)
            elif (
                distance[predecessor] == distance[state] + 1
                and predecessor in best_step
                and combo < best_step[predecessor][0]
            ):
                best_step[predecessor] = (combo, state)
    result: dict[int, tuple[int, ...]] = {}
    for state in distance:
        path: list[int] = []
        current = state
        while current not in target_set:
            combo, current = best_step[current]
            path.append(combo)
        result[state] = tuple(path)
    return result
