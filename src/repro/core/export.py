"""Test-set interchange: JSON and tester-style text formats.

Downstream users need to move generated tests between tools — into a tester
program, a simulator testbench, or back into this library for re-grading.
Two formats are provided:

* **JSON** — lossless round-trip of a :class:`~repro.core.testset.TestSet`,
  including the segment structure (so the strict coverage checker works on
  re-imported sets).
* **Vector text** — one scan test per block in the paper's notation::

      test 0
        scan-in  00
        apply    00 -> observe 0
        apply    01 -> observe 1
        scan-out 01

  The observe columns are the fault-free responses, i.e. what a tester
  compares against.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.testset import ScanTest, Segment, SegmentKind, TestSet
from repro.errors import GenerationError
from repro.fsm.state_table import StateTable

__all__ = ["test_set_to_json", "test_set_from_json", "test_set_to_vectors"]

_FORMAT_VERSION = 1


def test_set_to_json(test_set: TestSet) -> str:
    """Serialize a test set (with segment structure) to a JSON string."""
    payload: dict[str, Any] = {
        "format": "repro-scan-tests",
        "version": _FORMAT_VERSION,
        "machine": test_set.machine_name,
        "state_variables": test_set.n_state_variables,
        "transitions": test_set.n_transitions,
        "tests": [
            {
                "initial_state": test.initial_state,
                "inputs": list(test.inputs),
                "final_state": test.final_state,
                "segments": [
                    {
                        "kind": segment.kind.value,
                        "start_state": segment.start_state,
                        "inputs": list(segment.inputs),
                    }
                    for segment in test.segments
                ],
                "tested": [list(key) for key in test.tested],
            }
            for test in test_set
        ],
    }
    return json.dumps(payload, indent=2)


def test_set_from_json(text: str) -> TestSet:
    """Parse a test set produced by :func:`test_set_to_json`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise GenerationError(f"not valid JSON: {error}") from error
    if payload.get("format") != "repro-scan-tests":
        raise GenerationError("not a repro-scan-tests document")
    if payload.get("version") != _FORMAT_VERSION:
        raise GenerationError(
            f"unsupported format version {payload.get('version')!r}"
        )
    tests = []
    for entry in payload["tests"]:
        segments = tuple(
            Segment(
                SegmentKind(segment["kind"]),
                int(segment["start_state"]),
                tuple(int(value) for value in segment["inputs"]),
            )
            for segment in entry.get("segments", ())
        )
        tests.append(
            ScanTest.from_segments(
                int(entry["initial_state"]),
                int(entry["final_state"]),
                segments,
                tuple(
                    (int(state), int(combo))
                    for state, combo in entry.get("tested", ())
                ),
                inputs=tuple(int(value) for value in entry["inputs"]),
            )
        )
    return TestSet(
        payload["machine"],
        int(payload["state_variables"]),
        int(payload["transitions"]),
        tests,
    )


def test_set_to_vectors(test_set: TestSet, table: StateTable) -> str:
    """Render tester-style vectors with fault-free expected responses."""
    sv = test_set.n_state_variables
    pi = table.n_inputs
    po = table.n_outputs
    lines: list[str] = [
        f"# machine {test_set.machine_name}: {test_set.n_tests} scan tests",
        f"# scan chain width {sv}, {pi} primary inputs, {po} primary outputs",
    ]
    for index, test in enumerate(test_set):
        lines.append(f"test {index}")
        lines.append(f"  scan-in  {test.initial_state:0{sv}b}")
        state = test.initial_state
        for combo in test.inputs:
            state, output = table.step(state, combo)
            lines.append(
                f"  apply    {combo:0{pi}b} -> observe {output:0{max(po, 1)}b}"
            )
        if state != test.final_state:
            raise GenerationError(
                f"test {index} records final state {test.final_state}, "
                f"machine reaches {state}"
            )
        lines.append(f"  scan-out {state:0{sv}b}")
    return "\n".join(lines) + "\n"
