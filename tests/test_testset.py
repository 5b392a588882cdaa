"""Unit tests for scan tests, test sets, and the clock-cycle model."""

from __future__ import annotations

import pytest

from repro.benchmarks import circuit_names, load_circuit
from repro.core.baseline import per_transition_tests
from repro.core.compaction import combine_tests
from repro.core.generator import generate_tests
from repro.core.testset import (
    KIND_CODES,
    SEGMENT_KINDS,
    ScanTest,
    Segment,
    SegmentKind,
    TestSet,
    baseline_clock_cycles,
)
from repro.errors import GenerationError, StateTableError

TRANSITION = KIND_CODES[SegmentKind.TRANSITION]
UIO = KIND_CODES[SegmentKind.UIO]
TRANSFER = KIND_CODES[SegmentKind.TRANSFER]


def make_test(initial=0, inputs=(0,), final=0):
    return ScanTest(initial, tuple(inputs), final)


class TestScanTest:
    def test_length(self):
        assert make_test(inputs=(1, 2, 3)).length == 3

    def test_empty_inputs_rejected(self):
        with pytest.raises(GenerationError):
            make_test(inputs=())

    def test_segments_must_concatenate(self):
        with pytest.raises(GenerationError, match="concatenate"):
            ScanTest(0, (1, 2), 0, (TRANSITION, 0, 1))
        with pytest.raises(GenerationError, match="concatenate"):
            ScanTest.from_segments(
                0, 0, (Segment(SegmentKind.TRANSITION, 0, (1,)),), inputs=(1, 2)
            )

    def test_transition_segment_single_input(self):
        with pytest.raises(GenerationError, match="exactly one"):
            ScanTest(0, (1, 2), 0, (TRANSITION, 0, 2))
        with pytest.raises(GenerationError, match="exactly one"):
            Segment(SegmentKind.TRANSITION, 0, (1, 2))

    def test_empty_segment_rejected(self):
        with pytest.raises(GenerationError, match="empty"):
            ScanTest(0, (1,), 0, (UIO, 0, 0, TRANSITION, 0, 1))
        with pytest.raises(GenerationError, match="empty"):
            Segment(SegmentKind.UIO, 0, ())

    def test_replay(self, lion):
        test = make_test(0, (0b01, 0b00), 1)
        final, outputs = test.replay(lion)
        assert final == 1
        assert outputs == (1, 1)

    def test_str_format(self):
        assert str(make_test(2, (1, 0, 3), 3)) == "(2, (1,0,3), 3)"

    def test_check_consistency_catches_bad_final(self, lion):
        test = ScanTest(0, (0b01,), 0)
        with pytest.raises(GenerationError):
            test.check_consistency(lion)


def _reference_check(test, table):
    """A two-pass checker: ``StateTable.final_state`` per segment, then
    once over the whole test."""
    state = test.initial_state
    layout, inputs = test.layout, test.inputs
    ends = layout[2::3]
    for claimed, start, end in zip(layout[1::3], (0, *ends), ends):
        if claimed != state:
            raise GenerationError(
                f"segment claims start state {claimed}, machine is in {state}"
            )
        state = table.final_state(state, inputs[start:end])
    final = table.final_state(test.initial_state, test.inputs)
    if final != test.final_state:
        raise GenerationError(
            f"test records final state {test.final_state}, machine "
            f"reaches {final}"
        )


def _outcome(check):
    try:
        check()
    except (GenerationError, StateTableError) as exc:
        return type(exc), str(exc)
    return None


def _corruptions(test, n_states, n_inputs):
    """``test`` with one field or entry bad: each start state, input, claim
    and the final state out of range or wrong."""
    def remade(initial=test.initial_state, inputs=test.inputs,
               final=test.final_state, layout=test.layout):
        return ScanTest(initial, tuple(inputs), final, tuple(layout))

    yield test
    yield remade(layout=())
    for initial in (-1, n_states, (test.initial_state + 1) % n_states):
        yield remade(initial=initial)
        yield remade(initial=initial, layout=())
    yield remade(final=(test.final_state + 1) % n_states)
    for index, combo in enumerate(test.inputs):
        for bad in (-1, n_inputs, (combo + 1) % n_inputs):
            inputs = list(test.inputs)
            inputs[index] = bad
            yield remade(inputs=inputs)
    for index in range(1, len(test.layout), 3):
        for bad in (-1, n_states, (test.layout[index] + 1) % n_states):
            layout = list(test.layout)
            layout[index] = bad
            yield remade(layout=layout)


class TestCheckConsistency:
    """One walk per test raises what the two-pass checker raised."""

    @pytest.mark.parametrize("name", ["lion", "dk27", "bbtas", "shiftreg"])
    def test_same_error_for_every_corruption(self, name):
        table = load_circuit(name)
        rows = table.next_state.tolist()
        for generated in generate_tests(table).test_set:
            for test in _corruptions(
                generated, table.n_states, table.n_input_combinations
            ):
                expected = _outcome(lambda: _reference_check(test, table))
                assert _outcome(lambda: test.check_consistency(table)) == expected
                assert _outcome(lambda: test.check_consistency(table, rows)) == expected


class TestLayout:
    """A layout tiles the inputs: three ints per segment (kind code, start
    state, end offset), ends strictly increasing up to ``len(inputs)``."""

    def test_segments_are_views_of_the_inputs(self):
        test = ScanTest(
            0, (1, 0, 0, 2), 3, (TRANSITION, 0, 1, UIO, 1, 3, TRANSFER, 2, 4)
        )
        assert test.segments == (
            Segment(SegmentKind.TRANSITION, 0, (1,)),
            Segment(SegmentKind.UIO, 1, (0, 0)),
            Segment(SegmentKind.TRANSFER, 2, (2,)),
        )
        assert make_test().segments == ()

    @pytest.mark.parametrize(
        "layout",
        [
            (TRANSITION, 0, 1, UIO, 1, 1, UIO, 1, 3),  # an end repeats
            (UIO, 0, 2, TRANSITION, 1, 1, UIO, 1, 3),  # an end falls
            (TRANSITION, 0, 1, UIO, 1, 2),  # the last end is short
            (TRANSITION, 0, 1, UIO, 1, 4),  # the last end is past the inputs
            (TRANSITION, 0, 1, len(SEGMENT_KINDS), 1, 3),  # unknown kind
            (TRANSITION, 0, 1, -1, 1, 3),  # unknown kind
            (TRANSITION, 0, 1, UIO, 1),  # not three ints per segment
        ],
    )
    def test_malformed_layout_rejected(self, layout):
        with pytest.raises(GenerationError):
            ScanTest(0, (1, 0, 0), 0, layout)

    @pytest.mark.parametrize("name", sorted(circuit_names("small")))
    def test_from_segments_rebuilds_generated_tests(self, name):
        for test in generate_tests(load_circuit(name)).test_set:
            rebuilt = ScanTest.from_segments(
                test.initial_state, test.final_state, test.segments, test.tested
            )
            assert rebuilt == test

    def test_combined_test_concatenates_segments(self, lion_result):
        tests = lion_result.test_set.tests
        left, right = tests[0], tests[2]
        assert left.final_state == right.initial_state
        assert len(left.segments) > 1 and len(right.segments) > 1
        pair = TestSet("lion", 2, 16, [left, right])
        (merged,) = combine_tests(pair).tests
        assert merged.inputs == left.inputs + right.inputs
        assert merged.segments == left.segments + right.segments
        assert merged.tested == left.tested + right.tested

    def test_tests_with_and_without_structure_do_not_combine(self, lion_result):
        left = lion_result.test_set.tests[0]
        right = make_test(left.final_state, (0,), left.final_state)
        with pytest.raises(GenerationError, match="concatenate"):
            combine_tests(TestSet("lion", 2, 16, [left, right]))


class TestTestSetMeasures:
    def test_baseline_counts(self, lion):
        baseline = per_transition_tests(lion)
        assert baseline.n_tests == 16
        assert baseline.total_length == 16
        assert baseline.n_length_one == 16
        assert baseline.pct_transitions_by_length_one == 100.0

    def test_baseline_cycles_match_table7(self, lion):
        baseline = per_transition_tests(lion)
        assert baseline.clock_cycles() == 50  # the paper's lion trans column
        assert baseline_clock_cycles(2, 16) == 50

    def test_cycles_formula(self):
        tests = [make_test(inputs=(0,) * k) for k in (3, 1)]
        test_set = TestSet("m", 3, 8, tests)
        # N_SV*(N_T+1) + total length = 3*3 + 4
        assert test_set.clock_cycles() == 13
        assert test_set.clock_cycles(scan_ratio=2) == 9 * 2 + 4

    def test_empty_set_zero_cycles(self):
        assert TestSet("m", 2, 4).clock_cycles() == 0

    def test_by_decreasing_length_stable(self):
        a = make_test(inputs=(0,))
        b = make_test(inputs=(0, 1))
        c = make_test(inputs=(1,))
        test_set = TestSet("m", 1, 2, [a, b, c])
        assert test_set.by_decreasing_length() == [b, a, c]

    def test_covered_transitions_union(self):
        a = ScanTest(0, (1,), 0, (), ((0, 1),))
        b = ScanTest(1, (0,), 1, (), ((1, 0),))
        test_set = TestSet("m", 1, 4, [a, b])
        assert test_set.covered_transitions() == {(0, 1), (1, 0)}

    def test_subset_guards_foreign_tests(self):
        test_set = TestSet("m", 1, 2, [make_test()])
        foreign = make_test(inputs=(1, 1))
        with pytest.raises(GenerationError):
            test_set.subset([foreign])

    def test_subset_keeps_metadata(self):
        original = TestSet("m", 3, 9, [make_test()])
        subset = original.subset([original.tests[0]])
        assert subset.n_state_variables == 3
        assert subset.n_transitions == 9

    def test_invalid_metadata_rejected(self):
        with pytest.raises(GenerationError):
            TestSet("m", 0, 4)
        with pytest.raises(GenerationError):
            TestSet("m", 1, 0)
