"""Speed scaling, time estimates and failure accounting of the runner.

Run with ``python3 -m pytest perfbench``; needs no program sources.
"""

from __future__ import annotations

import pytest

from run import _failures, _timed_out, machine_time
from speed import REFERENCE_S, SpeedProbe


def test_speed_is_the_mean_work_rate_over_the_window() -> None:
    probe = SpeedProbe()
    probe.samples = [
        (0.00, REFERENCE_S), (0.05, 2 * REFERENCE_S),
        (0.10, REFERENCE_S), (0.15, 4 * REFERENCE_S),
    ]
    assert probe.speed(0.0, 0.12, 1.5) == pytest.approx(
        ((1 + 0.5 + 1) / 3) ** 1.5
    )
    assert probe.speed(0.0, 1.0, 1.5) == pytest.approx(
        ((1 + 0.5 + 1 + 0.25) / 4) ** 1.5
    )
    # Too few samples: the window has no speed of its own.
    assert probe.speed(0.04, 0.12, 1.5) is None


def _op(name: str, ref_s: float, **extra: object) -> dict:
    return {"name": name, "ref_s": ref_s, "wall_s": ref_s, "digest": name, **extra}


def test_machine_time_sums_per_machine_medians() -> None:
    passes = [
        {"ops": [_op("a", 1.0), _op("b", 5.0)]},
        {"ops": [_op("a", 3.0), _op("b", 4.0)]},
        {"ops": [_op("a", 2.0), _op("b", 9.0)]},
    ]
    assert machine_time(passes) == pytest.approx(2.0 + 5.0)


def test_a_stopped_machine_counts_only_where_it_never_finished() -> None:
    passes = [
        {"ops": [_op("a", 1.0), _op("b", 7.0, timeout=True)]},
        {"ops": [_op("a", 30.0, timeout=True)]},
    ]
    assert machine_time(passes) == pytest.approx(1.0 + 7.0)


def test_timed_out_child_keeps_finished_ops_and_times_the_open_one() -> None:
    events = [
        {"setup_end": 10.0, "setup_speed": 0.9},
        {"began": "a", "at": 10.5},
        {"op": {"name": "a", "wall_s": 2.0, "speed": 0.8, "digest": "a"}},
        {"began": "b", "at": 12.5},
    ]
    result = _timed_out(events, stopped=20.0)
    assert result["timeout"] and result["setup_speed"] == 0.9
    assert result["speed"] == 0.8
    assert [op["name"] for op in result["ops"]] == ["a", "b"]
    assert result["ops"][1]["timeout"]
    assert result["ops"][1]["wall_s"] == pytest.approx(7.5)


def test_timeouts_are_attempted_not_failed() -> None:
    reference = {"a": "a", "b": "b"}
    results = [
        {"ops": [_op("a", 1.0), _op("b", 2.0, digest="other")]},
        {"ops": [_op("a", 1.0), _op("b", 9.0, timeout=True)]},
        {"crash": "exit 1: boom"},
    ]
    attempted, failed, notes = _failures(results, reference, machines=2)
    assert (attempted, failed) == (2 + 2 + 2, 1 + 2)
    assert sum(note.startswith("TIMEOUT") for note in notes) == 1
    assert sum(note.startswith("FAILED") for note in notes) == 2
