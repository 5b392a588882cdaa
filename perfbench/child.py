"""One pass of a workload in a fresh process; ``run.py`` starts it.

Usage: ``python3 perfbench/child.py SPEC.json``.  The spec names the
workload, the seed, whether to trace, whether to check the outputs in full,
the artifact cache directory (``grade_warm``; an empty one makes the pass
the cache fill) and where to write the result.  A fresh process per pass
gives every timed pass the state a new CLI invocation sees: imports done,
every in-process memo of the program cold.

The child reports the monotonic time at which its set-up (imports and input
generation) ended, the wall time and peak RSS of the timed pass, and one
record per operation (machine) with its time, the host's speed during it
(:mod:`speed`), its error and a digest of its output.  Each output is
checked and dropped right after its operation, outside the timing.

As it goes, the child also appends one JSON line per event to
``<out>.ops``: its set-up, the start of each operation, and each finished
operation.  A parent that has to stop a pass that overran its time budget
reads from them how far the pass got and how long the unfinished operation
had run.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import IO, Any

from speed import SpeedProbe
from tracer import PeakRss, Tracer, install, layer_metrics
from workloads import (
    REFERENCE_CIRCUIT,
    SETUP_SENSITIVITY,
    WORKLOADS,
    testgen_machines,
)


def _digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# ------------------------------------------------------------------ testgen


def _write_machines(seed: int, directory: Path) -> list[tuple[str, Path]]:
    from repro.benchmarks.synthetic import synthetic_machine
    from repro.fsm.kiss import write_kiss

    directory.mkdir(parents=True, exist_ok=True)
    files = []
    for name, (inputs, states, core, outputs, cubes) in testgen_machines(seed):
        machine = synthetic_machine(
            name, inputs, states, core, outputs, cubes_per_state=cubes
        )
        path = directory / f"{name}.kiss2"
        path.write_text(write_kiss(machine))
        files.append((name, path))
    return files


def _testgen_op(item: tuple[str, Path]) -> dict[str, Any]:
    import repro.core.generator as generator
    import repro.fsm.kiss as kiss

    name, path = item
    table = kiss.parse_kiss(path.read_text(), name).to_state_table()
    return {"name": name, "output": (table, generator.generate_tests(table))}


def _check_testgen(op: dict[str, Any], verify: bool) -> None:
    from repro.core.coverage import verify_test_set

    table, result = op.pop("output")
    op["digest"] = _digest([str(test) for test in result.test_set])
    op["stats"] = {"test_cycles": result.clock_cycles()}
    if verify and not verify_test_set(table, result.test_set).is_complete:
        op["error"] = "verify_test_set: the test set is not complete"


# -------------------------------------------------------------------- grade


def _grade_op(name: str) -> dict[str, Any]:
    import repro.perf.engine as engine

    return {"name": name, "output": engine.compute_studies([name], jobs=1)[name]}


def _check_grade(op: dict[str, Any]) -> None:
    """Detected ⊆ detectable, and detectable/undetectable partition the
    universe, for both fault models."""
    artifacts = op.pop("output")
    stats = {"test_cycles": artifacts.generation.clock_cycles()}
    problems = []
    for model, faults, (detectable, undetectable), selection in (
        ("sa", artifacts.stuck_at_faults, artifacts.stuck_at_detectability,
         artifacts.stuck_at_selection),
        ("bridge", artifacts.bridging_faults, artifacts.bridging_detectability,
         artifacts.bridging_selection),
    ):
        if detectable & undetectable:
            problems.append(f"{model}: detectable and undetectable overlap")
        if detectable | undetectable != set(faults):
            problems.append(f"{model}: detectability does not cover the universe")
        if not selection.detected <= detectable:
            problems.append(f"{model}: detected faults outside the detectable set")
        stats[f"{model}_faults"] = len(faults)
        stats[f"{model}_detected"] = len(selection.detected)
    stats["sa_effective_cycles"] = (
        artifacts.stuck_at_selection.effective.clock_cycles()
    )
    op["stats"] = stats
    op["digest"] = _digest(artifacts.signature())
    if problems:
        op["error"] = "; ".join(problems)


# --------------------------------------------------------------------- main


def _name(item: Any) -> str:
    return item if isinstance(item, str) else item[0]


def _release_memory() -> None:
    """Return freed heap to the OS, so each machine's peak RSS starts from
    the live set instead of whatever earlier machines left fragmented."""
    gc.collect()
    try:
        malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return
    malloc_trim.argtypes = [ctypes.c_size_t]
    malloc_trim.restype = ctypes.c_int
    malloc_trim(0)


def _event(progress: IO[str], record: dict[str, Any]) -> None:
    progress.write(json.dumps(record) + "\n")
    progress.flush()


def main(spec_path: str) -> int:
    probe = SpeedProbe()
    probe.start()
    began = time.monotonic()
    spec = json.loads(Path(spec_path).read_text())
    workload = WORKLOADS[spec["workload"]]
    import numpy

    from repro.perf.cache import cache_enabled

    if workload.circuits:
        inputs: list[Any] = workload.order(spec["seed"])
        run_op, check = _grade_op, _check_grade
    else:
        inputs = _write_machines(spec["seed"], Path(spec["dir"]) / "kiss2")
        run_op = _testgen_op

        def check(op: dict[str, Any]) -> None:
            _check_testgen(op, spec["verify"])

    setup_end = time.monotonic()
    setup = {
        "setup_end": setup_end,
        "setup_speed": probe.speed(began, setup_end, SETUP_SENSITIVITY),
    }
    if spec["setup_only"]:
        probe.stop()
        Path(spec["out"]).write_text(json.dumps(setup))
        return 0

    memory = PeakRss()
    tracer = None
    absent: list[str] = []
    if spec["trace"]:
        tracer = Tracer(memory=memory)
        missing, _ = install(tracer)
        absent = [f"{target.module}.{target.attribute}" for target in missing]
        tracer.active = False
    ops = []
    wall_s = 0.0
    # The pass's peak RSS as if each machine ran first: the RSS the pass
    # started from plus the largest rise of one machine above the RSS it
    # started from.  What earlier machines keep alive (the program's
    # caches of loaded circuits) depends on the order.
    base_kb = peak_kb = 0
    cache_info = None
    first_start = last_end = time.monotonic()
    with (
        open(spec["out"] + ".ops", "w") as progress,
        cache_enabled(spec["cache"]) if spec["cache"] else contextlib.nullcontext()
        as cache,
    ):
        _event(progress, setup)
        # Closed loop, one machine at a time.  The clock and the memory
        # high-water mark cover the program's calls; each output is checked
        # and dropped between them, untimed and untraced.
        for index, item in enumerate(inputs):
            _release_memory()
            rss_kb = 0
            if tracer:
                tracer.active = True
            else:
                memory.reset()
                rss_kb = memory.read_kb()
            _event(progress, {"began": _name(item), "at": time.monotonic()})
            started = time.monotonic()
            try:
                op = run_op(item)
            except Exception as exc:  # an operation fails; the pass goes on
                op = {"name": _name(item), "error": _error(exc)}
            ended = time.monotonic()
            op["wall_s"] = ended - started
            op["speed"] = probe.speed(started, ended, workload.sensitivity)
            wall_s += op["wall_s"]
            if index == 0:
                first_start = started
            last_end = ended
            if tracer:
                tracer.active = False
            else:
                if index == 0:
                    base_kb = rss_kb
                peak_kb = max(peak_kb, base_kb + memory.read_kb() - rss_kb)
            if "output" in op:
                try:
                    check(op)
                except Exception as exc:  # a check that raises fails its op
                    op.pop("output", None)
                    op["error"] = _error(exc)
            ops.append(op)
            _event(progress, {"op": op})
        if cache is not None:
            cache_info = {
                "hits": cache.hits, "misses": cache.misses,
                "bytes": cache.info()["bytes"],
            }
    probe.stop()

    reference = None
    if spec["reference"]:
        try:
            reference = _grade_op(REFERENCE_CIRCUIT)
            _check_grade(reference)
        except Exception as exc:  # reported as one failed operation
            reference = {"name": REFERENCE_CIRCUIT, "error": _error(exc)}
    host = {}
    if spec["verify"]:
        from repro.obs.ledger import git_sha

        host = {"numpy": numpy.__version__, "git_sha": git_sha()}

    result = {
        **setup,
        "speed": probe.speed(first_start, last_end, workload.sensitivity),
        "probe_ms": probe.median_ms(),
        "wall_s": wall_s,
        "peak_kb": peak_kb,
        "rss_method": memory.method,
        "host": host,
        "ops": ops,
        "reference": reference,
        "cache": cache_info,
        "absent": absent,
        "layers": layer_metrics(tracer.spans) if tracer else None,
        "spans": tracer.records() if tracer else None,
    }
    Path(spec["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
