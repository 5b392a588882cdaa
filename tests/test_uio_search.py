"""Unit tests for the UIO sequence search."""

from __future__ import annotations

import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmarks import circuit_names, load_circuit
from repro.benchmarks.synthetic import synthetic_machine
from repro.errors import SearchBudgetExceeded, StateTableError
from repro.fsm.builders import StateTableBuilder
from repro.fsm.state_table import StateTable
from repro.fuzz.strategies import state_tables
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.uio.search import (
    DEFAULT_NODE_BUDGET,
    UioSequence,
    UioTable,
    compute_uio_table,
    find_uio,
    input_class_representatives,
)

import numpy as np


class TestLionPinnedToPaper:
    """Table 2 of the paper, exactly."""

    def test_state_0_uio(self, lion):
        seq = find_uio(lion, 0, 2)
        assert seq == UioSequence(0, (0b00,), 0)

    def test_state_1_has_none(self, lion):
        assert find_uio(lion, 1, 2) is None

    def test_state_2_uio(self, lion):
        seq = find_uio(lion, 2, 2)
        assert seq == UioSequence(2, (0b00, 0b11), 3)

    def test_state_3_has_none(self, lion):
        assert find_uio(lion, 3, 2) is None

    def test_table(self, lion):
        table = compute_uio_table(lion)
        assert table.n_found == 2
        assert table.max_found_length == 2
        table.verify(lion)


class TestShiftreg:
    def test_every_state_has_uio_of_length_three(self, shiftreg):
        """The paper's Table 4 row: unique = 8, m.len = 3."""
        table = compute_uio_table(shiftreg, max_length=3)
        assert table.n_found == 8
        assert table.max_found_length == 3

    def test_no_uio_within_two(self, shiftreg):
        """Three shifts are needed to expose all register bits."""
        table = compute_uio_table(shiftreg, max_length=2)
        assert table.n_found == 0


class TestSearchProperties:
    def test_uio_distinguishes_all_states(self, lion):
        seq = find_uio(lion, 2, 4)
        reference = lion.response(2, seq.inputs)
        for other in (0, 1, 3):
            assert lion.response(other, seq.inputs) != reference

    def test_shortest_sequence_returned(self, two_counter):
        for state in range(4):
            seq = find_uio(two_counter, state, 5)
            assert seq is not None
            assert seq.length == 1  # outputs reveal the state immediately

    def test_final_state_correct(self, lion):
        seq = find_uio(lion, 2, 2)
        assert lion.final_state(2, seq.inputs) == seq.final_state

    def test_single_state_machine(self):
        table = StateTable(np.array([[0, 0]]), np.array([[0, 1]]), 1, 1)
        seq = find_uio(table, 0, 3)
        assert seq == UioSequence(0, (), 0)

    def test_zero_length_bound(self, lion):
        assert find_uio(lion, 0, 0) is None

    def test_bad_state_rejected(self, lion):
        with pytest.raises(StateTableError):
            find_uio(lion, 7, 2)

    def test_negative_length_rejected(self, lion):
        with pytest.raises(StateTableError):
            find_uio(lion, 0, -1)

    def test_budget_exhaustion_raises(self, shiftreg):
        # shiftreg needs depth-3 searches; a one-node budget cannot finish.
        with pytest.raises(SearchBudgetExceeded) as info:
            find_uio(shiftreg, 0, max_length=3, node_budget=1)
        assert info.value.nodes_expanded > 1

    def test_budget_recorded_in_table(self, shiftreg):
        table = compute_uio_table(shiftreg, node_budget=1)
        assert table.budget_exhausted  # searches cut off, not proven absent

    def test_equivalent_sibling_never_has_uio(self):
        builder = StateTableBuilder(1, 1)
        builder.add("a", 0, "b", 0)
        builder.add("a", 1, "a", 1)
        builder.add("b", 0, "a", 1)
        builder.add("b", 1, "b", 0)
        builder.add("c", 0, "a", 1)  # c mimics b exactly
        builder.add("c", 1, "c", 0)
        # make b and c truly equivalent: same outputs, merging successors
        table = builder.build()
        assert find_uio(table, 1, 8) is None or find_uio(table, 2, 8) is not None


class TestInputClassRepresentatives:
    def test_lion_has_no_duplicate_columns(self, lion):
        assert input_class_representatives(lion) == (0, 1, 2, 3)

    def test_duplicate_columns_merge(self):
        builder = StateTableBuilder(2, 1)
        for state in ("a", "b"):
            other = "b" if state == "a" else "a"
            out = 0 if state == "a" else 1
            builder.add(state, 0b00, other, out)
            builder.add(state, 0b01, other, out)  # same column as 00
            builder.add(state, 0b10, state, out)
            builder.add(state, 0b11, state, out)  # same column as 10
        table = builder.build()
        assert input_class_representatives(table) == (0, 2)

    def test_representatives_preserve_uio_existence(self):
        """A UIO found via representatives is valid for the full machine."""
        builder = StateTableBuilder(2, 1)
        builder.add("a", 0b00, "a", 0)
        builder.add("a", 0b01, "a", 0)
        builder.add("a", 0b10, "b", 1)
        builder.add("a", 0b11, "b", 1)
        builder.add("b", 0b00, "b", 1)
        builder.add("b", 0b01, "b", 1)
        builder.add("b", 0b10, "a", 0)
        builder.add("b", 0b11, "a", 0)
        table = builder.build()
        seq = find_uio(table, 0, 2)
        assert seq is not None
        reference = table.response(0, seq.inputs)
        assert table.response(1, seq.inputs) != reference


class TestUioTable:
    def test_get_and_has(self, lion):
        table = compute_uio_table(lion)
        assert table.has(0) and not table.has(1)
        assert table.get(1) is None

    def test_iteration(self, lion):
        table = compute_uio_table(lion)
        assert {seq.state for seq in table} == {0, 2}

    def test_verify_rejects_tampering(self, lion):
        table = compute_uio_table(lion)
        table.sequences[1] = UioSequence(1, (0b00,), 1)  # not a real UIO
        with pytest.raises(StateTableError):
            table.verify(lion)

    def test_default_length_is_n_sv(self, lion):
        assert compute_uio_table(lion).max_length == lion.n_state_variables


# ------------------------------------------------------ brute-force reference


def _reference_representatives(table: StateTable) -> tuple[int, ...]:
    """The smallest input of each class of identical column pairs."""
    reps: list[int] = []
    for combo in range(table.n_input_combinations):
        if not any(
            np.array_equal(table.next_state[:, combo], table.next_state[:, rep])
            and np.array_equal(table.output[:, combo], table.output[:, rep])
            for rep in reps
        ):
            reps.append(combo)
    return tuple(reps)


def _brute_force_uio(table: StateTable, state: int, max_length: int):
    """First sequence of ``product(representatives, repeat=d)``, d = 1..L,
    whose response from ``state`` differs from every other state's."""
    if table.n_states == 1:
        return UioSequence(state, (), state)
    representatives = _reference_representatives(table)
    others = [other for other in range(table.n_states) if other != state]
    for depth in range(1, max_length + 1):
        for sequence in itertools.product(representatives, repeat=depth):
            response = table.response(state, sequence)
            if all(table.response(other, sequence) != response for other in others):
                return UioSequence(state, sequence, table.final_state(state, sequence))
    return None


class TestAgainstBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(state_tables(max_states=6, max_inputs=2), st.integers(0, 4))
    def test_lexicographically_first_shortest_uio(self, table, max_length):
        assert input_class_representatives(table) == _reference_representatives(table)
        for state in range(table.n_states):
            assert find_uio(table, state, max_length) == _brute_force_uio(
                table, state, max_length
            )

    def test_merged_branches_cost_no_budget(self):
        # Both states go to s0 with output 0 under every input: each branch
        # merges at once, so one expansion settles that no UIO exists.
        table = StateTable(np.zeros((2, 2)), np.zeros((2, 2)), 1, 1)
        assert find_uio(table, 0, 5, node_budget=1) is None


# ------------------------------------------------ reference breadth-first search


def _reference_search(table: StateTable, state: int, max_length: int, node_budget: int):
    """A plain breadth-first search: every node, the root included, expands
    every representative and builds its survivor set.  Returns ``(result,
    counters)``, where ``result`` is the sequence, ``None``, or
    ``"budget"`` when the budget ran out."""
    others = frozenset(t for t in range(table.n_states) if t != state)
    if not others:
        return UioSequence(state, (), state), None
    columns = [
        (combo, table.next_columns[combo], table.output_columns[combo])
        for combo in table.input_representatives
    ]
    visited = {(state, others)}
    frontier = [(state, others, ())]
    expanded = merge_prunes = visited_prunes = 0

    def counters():
        return expanded, merge_prunes, visited_prunes

    for _depth in range(max_length):
        next_frontier = []
        for current, candidates, prefix in frontier:
            expanded += 1
            if expanded > node_budget:
                return "budget", counters()
            for combo, column_next, column_out in columns:
                out = column_out[current]
                survivors = frozenset(
                    [column_next[t] for t in candidates if column_out[t] == out]
                )
                nxt = column_next[current]
                if not survivors:
                    return UioSequence(state, prefix + (combo,), nxt), counters()
                if nxt in survivors:
                    merge_prunes += 1
                    continue
                node = (nxt, survivors)
                if node not in visited:
                    visited.add(node)
                    next_frontier.append((nxt, survivors, prefix + (combo,)))
                else:
                    visited_prunes += 1
        if not next_frontier:
            return None, counters()
        frontier = next_frontier
    return None, counters()


def _searched(table: StateTable, state: int, max_length: int, node_budget: int):
    """``find_uio``'s ``(result, counters)`` in the reference's terms, the
    counters read from a registry installed for this one search."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        result = find_uio(table, state, max_length, node_budget)
    except SearchBudgetExceeded as exc:
        result = "budget"
        assert exc.nodes_expanded == registry.counter("uio.search.nodes_expanded").value
    finally:
        set_registry(previous)
    if not registry.snapshot():
        return result, None  # a one-state machine reports no search
    counters = tuple(
        registry.counter(f"uio.search.{name}").value
        for name in ("nodes_expanded", "prunes.merged", "prunes.visited")
    )
    per_state = registry.histogram("uio.search.nodes_per_state")
    assert (per_state.count, per_state.total) == (1, counters[0])
    return result, counters


def _assert_matches_reference(
    table: StateTable, max_length: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> None:
    expected: dict[int, UioSequence] = {}
    exhausted: set[int] = set()
    for state in range(table.n_states):
        reference = _reference_search(table, state, max_length, node_budget)
        assert _searched(table, state, max_length, node_budget) == reference, state
        if reference[0] == "budget":
            exhausted.add(state)
        elif reference[0] is not None:
            expected[state] = reference[0]
    assert compute_uio_table(table, max_length, node_budget) == UioTable(
        table.name, max_length, expected, frozenset(exhausted)
    )


#: The dimensions of dvram, fetch, log and rie, the machines the
#: test-generation benchmark runs: (inputs, states, core states, outputs,
#: cubes per state).
HELD_OUT_DIMENSIONS = {
    "dvram": (8, 64, 50, 8, 10),
    "fetch": (9, 32, 26, 8, 11),
    "log": (9, 32, 17, 4, 11),
    "rie": (9, 32, 29, 6, 11),
}


def _plain(table: StateTable) -> StateTable:
    """An equal table with every memo slot empty."""
    return StateTable(
        table.next_state, table.output, table.n_inputs, table.n_outputs,
        table.state_names, table.name,
    )


class TestAgainstReferenceSearch:
    """The root expansion read from the table's classification returns the
    reference search's tables and the same search-effort counters."""

    @pytest.mark.parametrize("name", sorted(circuit_names()))
    def test_registry_circuit(self, name):
        table = load_circuit(name)
        _assert_matches_reference(table, table.n_state_variables)

    @pytest.mark.parametrize("copy", range(2))
    @pytest.mark.parametrize("label", sorted(HELD_OUT_DIMENSIONS))
    def test_held_out_machine(self, label, copy):
        name = f"uio-reference-{label}-{copy}"
        table = synthetic_machine(name, *HELD_OUT_DIMENSIONS[label]).to_state_table()
        _assert_matches_reference(table, table.n_state_variables)

    @settings(max_examples=150, deadline=None)
    @given(state_tables(max_states=7, max_inputs=3), st.integers(0, 4))
    def test_generated_machines(self, table, max_length):
        _assert_matches_reference(table, max_length)

    @settings(max_examples=50, deadline=None)
    @given(state_tables(max_states=7, max_inputs=2), st.integers(0, 3))
    def test_node_budget_of_one(self, table, max_length):
        _assert_matches_reference(table, max_length, node_budget=1)

    @pytest.mark.parametrize("max_length", [0, 1])
    @pytest.mark.parametrize("name", ["lion", "shiftreg", "dk16", "bbara"])
    def test_short_bounds(self, name, max_length):
        _assert_matches_reference(load_circuit(name), max_length)

    @pytest.mark.parametrize("node_budget", [0, 1])
    def test_tiny_budgets_on_a_deep_search(self, shiftreg, node_budget):
        # shiftreg's UIOs have length 3: budget 0 stops at the root,
        # budget 1 at the first node of depth 2.
        _assert_matches_reference(shiftreg, 3, node_budget)

    def test_one_state_machines(self):
        for table in (
            StateTable(np.array([[0, 0]]), np.array([[0, 1]]), 1, 1),
            StateTable(np.array([[0]]), np.array([[0]]), 0, 0),
        ):
            for max_length in (0, 1, 3):
                _assert_matches_reference(table, max_length)

    def test_root_child_equal_to_the_root(self):
        # Input 0 fixes s0 and swaps s1/s2 with one output: the root's child
        # is the root itself, a visited prune; input 1 then separates s0.
        table = StateTable(
            np.array([[0, 0], [2, 0], [1, 0]]), np.array([[0, 0], [0, 1], [0, 1]]), 1, 1
        )
        _assert_matches_reference(table, 3)
        assert _searched(table, 0, 3, 10) == (UioSequence(0, (1,), 0), (1, 0, 1))

    def test_pickled_table_rebuilds_its_classification(self):
        table = load_circuit("dk16")
        compute_uio_table(table)
        clone = pickle.loads(pickle.dumps(table))
        assert clone._uio_roots is None
        assert pickle.dumps(table) == pickle.dumps(_plain(table))
        assert clone == table and hash(clone) == hash(table)
        _assert_matches_reference(clone, clone.n_state_variables)
        assert clone._uio_roots == table._uio_roots
