"""Unit tests for the dense state-table representation."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import StateTableError
from repro.fsm.state_table import StateTable, Transition
from repro.fuzz.strategies import state_tables


def make_table(**overrides):
    """A small 2-state, 1-input, 1-output machine."""
    kwargs = dict(
        next_state=np.array([[0, 1], [1, 0]]),
        output=np.array([[0, 0], [1, 1]]),
        n_inputs=1,
        n_outputs=1,
    )
    kwargs.update(overrides)
    return StateTable(**kwargs)


class TestConstruction:
    def test_basic_properties(self):
        table = make_table()
        assert table.n_states == 2
        assert table.n_input_combinations == 2
        assert table.n_transitions == 4
        assert table.n_state_variables == 1

    def test_default_state_names(self):
        assert make_table().state_names == ("s0", "s1")

    def test_custom_state_names(self):
        table = make_table(state_names=["off", "on"])
        assert table.state_names == ("off", "on")
        assert table.state_index("on") == 1

    def test_unknown_state_name_raises(self):
        with pytest.raises(StateTableError, match="unknown state name"):
            make_table().state_index("nope")

    def test_duplicate_state_names_rejected(self):
        with pytest.raises(StateTableError, match="unique"):
            make_table(state_names=["a", "a"])

    def test_wrong_name_count_rejected(self):
        with pytest.raises(StateTableError):
            make_table(state_names=["only-one"])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(StateTableError):
            StateTable(
                np.zeros((2, 2), dtype=int),
                np.zeros((2, 4), dtype=int),
                1,
                1,
            )

    def test_column_count_must_be_power_of_inputs(self):
        with pytest.raises(StateTableError, match="input columns"):
            StateTable(np.zeros((2, 3), dtype=int), np.zeros((2, 3), dtype=int), 1, 1)

    def test_out_of_range_next_state_rejected(self):
        with pytest.raises(StateTableError, match="valid state indices"):
            make_table(next_state=np.array([[0, 2], [1, 0]]))

    def test_output_must_fit_width(self):
        with pytest.raises(StateTableError, match="output"):
            make_table(output=np.array([[0, 2], [1, 0]]))

    def test_immutable(self):
        table = make_table()
        with pytest.raises(AttributeError):
            table.n_inputs = 3
        with pytest.raises(ValueError):
            table.next_state[0, 0] = 1

    def test_zero_input_machine(self):
        table = StateTable(
            np.array([[1], [0]]), np.array([[1], [0]]), 0, 1
        )
        assert table.n_input_combinations == 1
        assert table.step(0, 0) == (1, 1)

    def test_n_state_variables_minimum_one(self):
        table = StateTable(np.array([[0, 0]]), np.array([[0, 1]]), 1, 1)
        assert table.n_state_variables == 1


class TestSemantics:
    def test_step(self):
        table = make_table()
        assert table.step(0, 1) == (1, 0)
        assert table.step(1, 0) == (1, 1)

    def test_step_bounds(self):
        table = make_table()
        with pytest.raises(StateTableError):
            table.step(2, 0)
        with pytest.raises(StateTableError):
            table.step(0, 2)

    def test_run_returns_outputs_and_final(self):
        table = make_table()
        final, outputs = table.run(0, [1, 0, 1])
        assert outputs == (0, 1, 1)
        assert final == 0

    def test_run_empty_sequence(self):
        table = make_table()
        assert table.run(1, []) == (1, ())

    def test_response_matches_run(self):
        table = make_table()
        assert table.response(0, (1, 1)) == table.run(0, (1, 1))[1]

    def test_final_state(self):
        table = make_table()
        assert table.final_state(0, (1, 1)) == 0

    def test_transitions_order(self):
        table = make_table()
        transitions = list(table.transitions())
        assert transitions[0] == Transition(0, 0, 0, 0)
        assert transitions[1] == Transition(0, 1, 1, 0)
        assert transitions[2] == Transition(1, 0, 1, 1)
        assert len(transitions) == 4

    def test_transition_lookup(self):
        table = make_table()
        assert table.transition(1, 1) == Transition(1, 1, 0, 1)

    def test_successors(self):
        table = make_table()
        assert table.successors(0) == frozenset({0, 1})


class TestBitHelpers:
    def test_input_bits_msb_first(self, lion):
        assert lion.input_bits(0b01) == (0, 1)
        assert lion.input_bits(0b10) == (1, 0)

    def test_input_index_roundtrip(self, lion):
        for combo in range(lion.n_input_combinations):
            assert lion.input_index(lion.input_bits(combo)) == combo

    def test_output_bits(self, lion):
        assert lion.output_bits(1) == (1,)

    def test_bad_bits_rejected(self, lion):
        with pytest.raises(StateTableError):
            lion.input_index((0, 2))
        with pytest.raises(StateTableError):
            lion.input_index((0,))

    def test_out_of_range_combination(self, lion):
        with pytest.raises(StateTableError):
            lion.input_bits(4)


class TestEqualityAndRepr:
    def test_equality(self):
        assert make_table() == make_table()
        assert make_table() != make_table(output=np.array([[1, 0], [1, 1]]))

    def test_hash_consistency(self):
        assert hash(make_table()) == hash(make_table())

    def test_renamed(self):
        table = make_table().renamed("fresh")
        assert table.name == "fresh"
        assert table == make_table()  # name does not affect equality

    def test_repr_mentions_dimensions(self, lion):
        assert "4 states" in repr(lion)


def _fresh(table: StateTable) -> StateTable:
    return StateTable(
        table.next_state, table.output, table.n_inputs, table.n_outputs,
        table.state_names, table.name,
    )


class TestViews:
    @settings(max_examples=100, deadline=None)
    @given(state_tables(max_states=6, max_inputs=3))
    def test_views_equal_the_arrays(self, table):
        for rows, array in (
            (table.next_rows, table.next_state),
            (table.output_rows, table.output),
        ):
            assert all(type(value) is int for row in rows for value in row)
            assert np.array_equal(np.array(rows).reshape(array.shape), array)
        for columns, array in (
            (table.next_columns, table.next_state),
            (table.output_columns, table.output),
        ):
            assert len(columns) == table.n_input_combinations
            for combo, column in enumerate(columns):
                assert column == tuple(array[:, combo].tolist())
        representatives = table.input_representatives
        assert representatives == tuple(sorted(representatives))
        classes = {
            (table.next_columns[combo], table.output_columns[combo]): combo
            for combo in reversed(range(table.n_input_combinations))
        }
        assert set(representatives) == set(classes.values())

    @settings(max_examples=50, deadline=None)
    @given(state_tables(max_states=6, max_inputs=3))
    def test_views_stay_out_of_pickles_eq_and_hash(self, table):
        before = pickle.dumps(table)
        plain_hash = hash(_fresh(table))
        _ = (
            table.next_rows, table.output_rows, table.next_columns,
            table.output_columns, table.input_representatives,
        )
        assert pickle.dumps(table) == before
        assert pickle.loads(before)._next_rows is None
        assert table == _fresh(table) and _fresh(table) == table
        assert hash(table) == plain_hash

    def test_views_are_memoized(self, lion):
        assert lion.next_rows is lion.next_rows
        assert lion.next_columns is lion.next_columns
        assert lion.input_representatives is lion.input_representatives


class TestLionPinnedToPaper:
    """The embedded lion machine must equal the paper's Table 1 exactly."""

    EXPECTED = {
        # (state, input): (next_state, output)
        (0, 0b00): (0, 0), (0, 0b01): (1, 1), (0, 0b10): (0, 0), (0, 0b11): (0, 0),
        (1, 0b00): (1, 1), (1, 0b01): (1, 1), (1, 0b10): (3, 1), (1, 0b11): (0, 0),
        (2, 0b00): (2, 1), (2, 0b01): (2, 1), (2, 0b10): (3, 1), (2, 0b11): (3, 1),
        (3, 0b00): (1, 1), (3, 0b01): (2, 1), (3, 0b10): (3, 1), (3, 0b11): (3, 1),
    }

    def test_every_entry(self, lion):
        for (state, combo), expected in self.EXPECTED.items():
            assert lion.step(state, combo) == expected

    def test_dimensions(self, lion):
        assert lion.n_states == 4
        assert lion.n_inputs == 2
        assert lion.n_outputs == 1
        assert lion.n_state_variables == 2
