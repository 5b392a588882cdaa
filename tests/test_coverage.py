"""Unit tests for the strict coverage checker."""

from __future__ import annotations

import pytest

from repro.core.baseline import per_transition_tests
from repro.core.coverage import verify_test_set
from repro.core.testset import ScanTest, Segment, SegmentKind, TestSet
from repro.errors import GenerationError


def single_test_set(lion, tests):
    return TestSet("lion", lion.n_state_variables, lion.n_transitions, tests)


class TestBaselineCoverage:
    def test_per_transition_tests_fully_verified(self, lion):
        report = verify_test_set(lion, per_transition_tests(lion))
        assert report.is_complete
        assert report.exercised == report.verified


class TestScanOutVerification:
    def test_last_transition_verified_by_scan_out(self, lion):
        test = ScanTest.from_segments(
            1,
            3,
            (Segment(SegmentKind.TRANSITION, 1, (0b10,)),),
            ((1, 0b10),),
        )
        report = verify_test_set(lion, single_test_set(lion, [test]))
        assert (1, 0b10) in report.verified

    def test_transition_followed_by_transition_not_verified(self, lion):
        # 0 --00--> 0 then 0 --01--> 1: only the second is scan-out-verified.
        test = ScanTest.from_segments(
            0,
            1,
            (
                Segment(SegmentKind.TRANSITION, 0, (0b00,)),
                Segment(SegmentKind.TRANSITION, 0, (0b01,)),
            ),
            ((0, 0b00), (0, 0b01)),
        )
        report = verify_test_set(lion, single_test_set(lion, [test]))
        assert (0, 0b01) in report.verified
        assert (0, 0b00) not in report.verified
        assert (0, 0b00) in report.exercised


class TestUioVerification:
    def test_genuine_uio_verifies(self, lion):
        test = ScanTest.from_segments(
            0,
            0,
            (
                Segment(SegmentKind.TRANSITION, 0, (0b00,)),
                Segment(SegmentKind.UIO, 0, (0b00,)),
            ),
            ((0, 0b00),),
        )
        report = verify_test_set(lion, single_test_set(lion, [test]))
        assert (0, 0b00) in report.verified

    def test_fake_uio_rejected(self, lion):
        # (01) from state 1 does not distinguish state 1: claiming UIO must fail.
        test = ScanTest.from_segments(
            0,
            1,
            (
                Segment(SegmentKind.TRANSITION, 0, (0b01,)),
                Segment(SegmentKind.UIO, 1, (0b01,)),
            ),
            ((0, 0b01),),
        )
        with pytest.raises(GenerationError, match="does not distinguish"):
            verify_test_set(lion, single_test_set(lion, [test]))

    def test_uio_for_wrong_state_rejected(self, lion):
        test = ScanTest.from_segments(
            0,
            0,
            (
                Segment(SegmentKind.TRANSITION, 0, (0b00,)),
                Segment(SegmentKind.UIO, 2, (0b00,)),
            ),
            ((0, 0b00),),
        )
        with pytest.raises(GenerationError, match="start"):
            verify_test_set(lion, single_test_set(lion, [test]))


class TestStructuralChecks:
    def test_missing_segments_rejected(self, lion):
        test = ScanTest(0, (0b00,), 0)
        with pytest.raises(GenerationError, match="segment structure"):
            verify_test_set(lion, single_test_set(lion, [test]))

    def test_wrong_final_state_rejected(self, lion):
        test = ScanTest.from_segments(
            0,
            3,  # machine actually reaches state 1
            (Segment(SegmentKind.TRANSITION, 0, (0b01,)),),
            ((0, 0b01),),
        )
        with pytest.raises(GenerationError, match="final state"):
            verify_test_set(lion, single_test_set(lion, [test]))

    def test_report_shape(self, lion, lion_result):
        report = verify_test_set(lion, lion_result.test_set)
        assert report.n_states == 4
        assert report.n_input_combinations == 4
        assert report.n_transitions == 16
        assert report.verified_fraction == 1.0
        assert not report.partial_pending


class TestPartialUioAccounting:
    def test_partial_mode_on_machine_without_full_uios(self):
        """Generate with partial UIO sets and confirm the checker agrees."""
        from repro.benchmarks import load_circuit
        from repro.core.config import GeneratorConfig
        from repro.core.generator import generate_tests

        table = load_circuit("lion9")
        config = GeneratorConfig(use_partial_uio=True)
        result = generate_tests(table, config)
        report = verify_test_set(table, result.test_set)
        assert report.is_complete, (report.missing, report.partial_pending)
