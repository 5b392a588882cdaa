"""Unit tests for test-set export/import."""

from __future__ import annotations

import json

import pytest

from repro.core.coverage import verify_test_set
# module-qualified access: pytest would otherwise collect imported
# ``test_set_*`` functions as test items
from repro.core import export
from repro.errors import GenerationError


class TestJsonRoundTrip:
    def test_lossless(self, lion_result):
        text = export.test_set_to_json(lion_result.test_set)
        again = export.test_set_from_json(text)
        assert again.machine_name == lion_result.test_set.machine_name
        assert again.n_state_variables == lion_result.test_set.n_state_variables
        assert again.tests == lion_result.test_set.tests

    def test_reimported_set_passes_strict_checker(self, lion, lion_result):
        again = export.test_set_from_json(export.test_set_to_json(lion_result.test_set))
        assert verify_test_set(lion, again).is_complete

    def test_bad_json_rejected(self):
        with pytest.raises(GenerationError, match="JSON"):
            export.test_set_from_json("{not json")

    def test_wrong_format_rejected(self):
        with pytest.raises(GenerationError, match="repro-scan-tests"):
            export.test_set_from_json('{"format": "something-else"}')

    def test_wrong_version_rejected(self):
        with pytest.raises(GenerationError, match="version"):
            export.test_set_from_json(
                '{"format": "repro-scan-tests", "version": 99, "tests": []}'
            )

    def test_segments_must_concatenate_to_inputs(self, lion_result):
        document = json.loads(export.test_set_to_json(lion_result.test_set))
        document["tests"][1]["inputs"][-1] ^= 1
        with pytest.raises(GenerationError, match="concatenate"):
            export.test_set_from_json(json.dumps(document))

    def test_wide_transition_segment_rejected(self, lion_result):
        document = json.loads(export.test_set_to_json(lion_result.test_set))
        entry = document["tests"][1]
        first, second = entry["segments"][:2]
        assert (first["kind"], second["kind"]) == ("transition", "uio")
        # Fold the UIO into the TRANSITION: the inputs still concatenate.
        first["inputs"] += second["inputs"]
        del entry["segments"][1]
        with pytest.raises(GenerationError, match="exactly one"):
            export.test_set_from_json(json.dumps(document))


class TestVectors:
    def test_contains_expected_responses(self, lion, lion_result):
        text = export.test_set_to_vectors(lion_result.test_set, lion)
        # τ0 applies 00 from state 0: expected output 0; then 00 from 0 again.
        assert "test 0" in text
        assert "scan-in  00" in text
        assert "apply    00 -> observe 0" in text
        assert "scan-out 01" in text  # τ0 ends in state 1

    def test_block_count(self, lion, lion_result):
        text = export.test_set_to_vectors(lion_result.test_set, lion)
        assert text.count("test ") == lion_result.n_tests
        assert text.count("scan-in") == lion_result.n_tests
        assert text.count("scan-out") == lion_result.n_tests

    def test_inconsistent_final_state_rejected(self, lion, lion_result):
        from repro.core.testset import ScanTest, TestSet

        broken = TestSet(
            "lion",
            2,
            16,
            [ScanTest(0, (0b01,), 3)],  # really reaches state 1
        )
        with pytest.raises(GenerationError, match="final state"):
            export.test_set_to_vectors(broken, lion)
