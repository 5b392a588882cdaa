"""The repo's benchmark: four serial workloads, timed end to end.

Usage::

    python3 perfbench/run.py --workload testgen|grade_cold|grade_large|grade_warm \\
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout that holds ``src/repro``; it reads
and writes only inside that checkout (under ``.perfbench/``).  Each timed
pass runs in a fresh child process (``child.py``).  Passes repeat until the
workload's floor of passes is met and ``--seconds`` of passes have been
timed, as long as the run's time budget allows.  ``grade_warm`` first fills
a fresh artifact cache from a child of its own; the fill is part of
set-up.

Times are in reference seconds (:mod:`speed`): host wall time scaled by
the host's speed, sampled while the time was taken, relative to a fixed
reference.  With ``--trace 0`` the last line of standard output is a JSON
object whose ``metrics`` are the end-to-end metrics:

``setup_s``
    median over five or more children (fewer when the time budget runs
    out) of the time from starting one to the end of its imports and input
    generation; for ``grade_warm`` plus the cache fill's time
``wall_s``
    the timed pass: each machine's median time over the passes, summed
``peak_rss_mb``
    peak RSS of the timed pass as if each machine ran first: the RSS the
    pass started from plus the largest rise of one machine's peak above
    the RSS it started from, median over passes; ``VmHWM`` is reset before
    each machine, after freed heap went back to the OS
``test_cycles``
    Table 7 "funct": N_SV·(N_T+1)+ΣN_PIC summed over the machines
``sa_effective_cycles``
    Table 7 "s.a.": clock cycles of the effective stuck-at subset, summed
``sa_coverage_pct`` / ``bridge_coverage_pct``
    Table 6: detected faults over the collapsed stuck-at (sampled AND/OR
    bridging) universe, pooled over circuits

The last four are simulated statistics: a change meant only to speed the
program up must leave them identical.  ``testgen`` grades nothing at gate
level; it reports the gate-level three for the paper's worked example,
``lion``, graded once after the timed pass.

With ``--trace 1`` untraced and traced passes alternate and ``metrics`` are
the per-layer metrics of :mod:`tracer`, the medians over traced passes,
plus ``cache.bytes`` and ``trace.overhead_pct``.  Per-layer times are host
wall seconds, so that they add up to the traced ``compute_studies`` time.
The spans are written to ``.perfbench/traces/<workload>-seed<N>.json``.

An operation is one machine.  It fails when the program raises or its
check fails; ``attempted`` and ``failed`` count operations over every pass
and the fill.  A child still running when the run's time budget
(:data:`RUN_BUDGET_S`) is spent is stopped: its finished machines count as
usual, the unfinished one counts as attempted but not failed, and its time
so far stands in for its time, so ``wall_s`` is then a lower bound.  The
run prints a ``TIMEOUT`` line for it.  The run exits 2 without a result
where the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from tracer import UNITS
from workloads import REFERENCE_CIRCUIT, WORKLOADS, testgen_machines

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Every run ends within this many seconds: no child starts that the
#: slowest child so far says would overrun it, and one still running at it
#: is stopped.
RUN_BUDGET_S = 165.0
#: ``setup_s`` is the median of at least this many set-ups per run; children
#: that only set up and exit make up for runs with fewer passes.
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "test_cycles": "cycles",
    "sa_effective_cycles": "cycles",
    "sa_coverage_pct": "%",
    "bridge_coverage_pct": "%",
}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _speed(result: dict[str, Any]) -> float:
    """The host's speed over a child's pass, else over its set-up."""
    return result.get("speed") or result.get("setup_speed") or 1.0


def _read_events(path: Path) -> list[dict[str, Any]]:
    events = []
    if path.is_file():
        for line in path.read_text().splitlines():
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:  # the line the stop cut short
                break
    return events


def _timed_out(events: list[dict[str, Any]], stopped: float) -> dict[str, Any]:
    """What a stopped child got done: its set-up, its finished operations,
    and the unfinished one, timed up to the stop."""
    result: dict[str, Any] = {"timeout": True, "ops": [], "setup_speed": None}
    began = None
    for event in events:
        if "setup_end" in event:
            result.update(event)
        elif "began" in event:
            began = event
        elif "op" in event:
            result["ops"].append(event["op"])
            began = None
    speeds = [op["speed"] for op in result["ops"] if op.get("speed")]
    result["speed"] = statistics.median(speeds) if speeds else None
    if began is not None:
        result["ops"].append({
            "name": began["began"], "wall_s": stopped - began["at"],
            "speed": None, "timeout": True,
        })
    return result


class Run:
    """One invocation: set-up, passes until the floor and ``seconds`` are
    met, results."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.monotonic()
        self.dir = ROOT / ".perfbench" / f"run-{os.getpid()}"
        self.env = dict(os.environ)
        self.env.pop("REPRO_CACHE_DIR", None)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        # One hash seed for every run: set iteration order, and with it the
        # program's allocation pattern and peak RSS, then depends only on
        # the inputs.
        self.env["PYTHONHASHSEED"] = "0"
        self.children = 0
        self.slowest = 0.0

    def affords(self, children: int) -> bool:
        """Whether ``children`` more children as slow as the slowest so far
        end within the run's budget."""
        elapsed = time.monotonic() - self.started
        return elapsed + children * self.slowest < RUN_BUDGET_S

    def child(
        self, *, traced: bool = False, verify: bool = False,
        reference: bool = False, cache: Path | None = None,
        setup_only: bool = False,
    ) -> dict[str, Any]:
        """Run one pass in a fresh process; returns its result record."""
        self.children += 1
        spec = {
            "workload": self.workload.name, "seed": self.seed, "trace": traced,
            "verify": verify, "reference": reference, "setup_only": setup_only,
            "cache": str(cache) if cache else None,
            "dir": str(self.dir / f"child-{self.children}"),
            "out": str(self.dir / f"child-{self.children}.json"),
        }
        spec_path = self.dir / f"child-{self.children}.spec.json"
        spec_path.write_text(json.dumps(spec))
        timeout = max(1.0, RUN_BUDGET_S - (time.monotonic() - self.started))
        spawned = time.monotonic()
        process = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            cwd=ROOT, env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        out = Path(spec["out"])
        try:
            _, stderr = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            stopped = time.monotonic()
            process.kill()
            process.communicate()
            result = _timed_out(_read_events(Path(spec["out"] + ".ops")), stopped)
        except BaseException:
            # Interrupted: leave no child behind.
            process.kill()
            process.communicate()
            raise
        else:
            if process.returncode != 0 or not out.is_file():
                tail = stderr.strip().splitlines()[-3:]
                return {
                    "crash": f"exit {process.returncode}: " + " | ".join(tail),
                    "traced": traced,
                }
            result = json.loads(out.read_text())
        ended = time.monotonic()
        self.slowest = max(self.slowest, ended - spawned)
        result["traced"] = traced
        if "setup_end" in result:
            result["setup_s"] = result["setup_end"] - spawned
            result["setup_ref_s"] = result["setup_s"] * (
                result["setup_speed"] or _speed(result)
            )
        for op in result.get("ops", []):
            op["ref_s"] = op["wall_s"] * (op["speed"] or _speed(result))
        return result

    def execute(
        self,
    ) -> tuple[dict[str, Any] | None, list[dict[str, Any]], list[float]]:
        """The cache fill (``grade_warm`` only), the passes and the set-up
        times of every child but the fill."""
        self.dir.mkdir(parents=True, exist_ok=True)
        fill = None
        cache = None
        if self.workload.warm:
            # A traced fill gives the cache writes' spans.
            cache = self.dir / "cache"
            fill = self.child(traced=self.trace, cache=cache)
            if _stopped(fill):
                return fill, [], []
        kinds = (False, True) if self.trace else (False,)
        passes: list[dict[str, Any]] = []
        while True:
            for traced in kinds:
                first = not passes
                passes.append(self.child(
                    traced=traced, verify=first, cache=cache,
                    reference=first and not self.workload.circuits,
                ))
            if any(_stopped(result) for result in passes):
                break
            untraced = [r for r in passes if not r["traced"]]
            timed = sum(r["wall_s"] for r in untraced)
            if (
                len(untraced) >= self.workload.passes and timed >= self.seconds
            ) or not self.affords(len(kinds)):
                break
        setups = [r["setup_ref_s"] for r in passes if "setup_ref_s" in r]
        while len(setups) < SETUP_SAMPLES and self.affords(2):
            result = self.child(setup_only=True)
            if _stopped(result):
                passes.append(result)
                break
            setups.append(result["setup_ref_s"])
        return fill, passes, setups


def _stopped(result: dict[str, Any]) -> bool:
    """Whether a child crashed or was stopped before it finished."""
    return "crash" in result or result.get("timeout", False)


def _failures(
    results: list[dict[str, Any]], reference: dict[str, str], machines: int
) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) over every operation of every child.

    ``reference`` maps each machine to the digest every child must
    reproduce: the fill's for ``grade_warm``, else the first pass's.
    A child that crashed fails all ``machines`` of its pass; an operation
    stopped at the time budget is attempted, not failed.
    """
    attempted = failed = 0
    notes = []
    for index, result in enumerate(results):
        if "crash" in result:
            attempted += machines
            failed += machines
            notes.append(f"FAILED child {index}: {result['crash']}")
            continue
        for op in result["ops"]:
            attempted += 1
            if op.get("timeout"):
                notes.append(
                    f"TIMEOUT child {index} {op['name']}: stopped after "
                    f"{op['wall_s']:.1f} s at the {RUN_BUDGET_S:.0f} s run budget"
                )
                continue
            error = op.get("error")
            if error is None and op["digest"] != reference.get(op["name"]):
                error = "output differs from the reference pass"
            if error is not None:
                failed += 1
                notes.append(f"FAILED child {index} {op['name']}: {error}")
    return attempted, failed, notes


def machine_time(results: list[dict[str, Any]], key: str = "ref_s") -> float:
    """Each machine's median time over ``results``, summed: reference
    seconds, or host wall seconds with ``key="wall_s"``.

    A machine that never finished counts with its longest stopped time.
    """
    done: dict[str, list[float]] = {}
    stopped: dict[str, float] = {}
    for result in results:
        for op in result.get("ops", []):
            if op.get("timeout"):
                stopped[op["name"]] = max(stopped.get(op["name"], 0.0), op[key])
            else:
                done.setdefault(op["name"], []).append(op[key])
    return sum(statistics.median(times) for times in done.values()) + sum(
        value for name, value in stopped.items() if name not in done
    )


def _grade_totals(ops: list[dict[str, Any]]) -> dict[str, float]:
    stats = [op["stats"] for op in ops if "stats" in op]

    def total(key: str) -> int:
        return sum(stat.get(key, 0) for stat in stats)

    def pct(detected: str, faults: str) -> float:
        return 100.0 * total(detected) / total(faults) if total(faults) else 0.0

    return {
        "test_cycles": total("test_cycles"),
        "sa_effective_cycles": total("sa_effective_cycles"),
        "sa_coverage_pct": pct("sa_detected", "sa_faults"),
        "bridge_coverage_pct": pct("bridge_detected", "bridge_faults"),
    }


def summarize(
    run: Run,
    fill: dict[str, Any] | None,
    passes: list[dict[str, Any]],
    setups: list[float],
) -> tuple[dict[str, Any], list[str]]:
    """The result object and human-readable report lines of one run."""
    ok = [result for result in passes if "crash" not in result]
    untraced = [result for result in ok if not result["traced"]]
    first = next((r for r in ok if r.get("host")), {})
    lines = ["host: " + json.dumps({
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **first.get("host", {}),
        "rss": first.get("rss_method", "unknown"),
    })]
    fills = [fill] if fill is not None else []
    if fill is not None and not _stopped(fill):
        lines.append(
            f"fill: wall {fill['wall_s']:.3f} s = "
            f"{machine_time(fills):.3f} ref s, cache {fill['cache']}"
        )
    for index, result in enumerate(ok):
        if result.get("timeout"):
            lines.append(f"pass {index}: stopped at the run budget")
            continue
        lines.append(
            f"pass {index}: setup {result['setup_s']:.3f} s, "
            f"wall {result['wall_s']:.3f} s = {machine_time([result]):.3f} ref s, "
            f"probe {result['probe_ms']:.3f} ms, "
            + ("traced" if result["traced"] else
               f"peak {result['peak_kb'] / 1024:.1f} MB")
            + (f", cache {result['cache']}" if result["cache"] else "")
        )
    lines.append("setups (ref s): " + ", ".join(f"{value:.3f}" for value in setups))

    # Every child must reproduce the fill's outputs (grade_warm) or else the
    # first pass's, which was checked in full.
    source = next(
        (r for r in (fills or untraced[:1]) if "crash" not in r), None
    )
    reference = {
        op["name"]: op.get("digest") for op in source["ops"]
    } if source else {}
    machines = len(run.workload.circuits) or len(testgen_machines(run.seed))
    attempted, failed, notes = _failures(fills + passes, reference, machines)
    extra = ok[0].get("reference") if ok else None
    if extra is not None:
        attempted += 1
        if "error" in extra:
            failed += 1
            notes.append(f"FAILED {REFERENCE_CIRCUIT}: {extra['error']}")
    if not attempted:
        attempted = failed = 1
        notes.append("FAILED: no operation started within the run budget")
    lines.extend(notes)

    if run.trace:
        metrics, units = _layer_summary(run, fill, ok, untraced, lines), UNITS
    else:
        metrics, units = {}, END_TO_END_UNITS
        finished = [r for r in untraced if not r.get("timeout")]
        if untraced:
            metrics["setup_s"] = statistics.median(setups) if setups else 0.0
            if fill is not None:
                metrics["setup_s"] += machine_time(fills)
            metrics["wall_s"] = machine_time(untraced)
            lines.append(
                f"wall_s in host wall time: {machine_time(untraced, 'wall_s'):.3f} s"
            )
        if finished:
            metrics["peak_rss_mb"] = (
                statistics.median(r["peak_kb"] for r in finished) / 1024
            )
            metrics["test_cycles"] = _grade_totals(finished[0]["ops"])["test_cycles"]
            graded = _grade_totals([extra] if extra else finished[0]["ops"])
            for key in ("sa_effective_cycles", "sa_coverage_pct",
                        "bridge_coverage_pct"):
                metrics[key] = graded[key]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }
    return result, lines


def _layer_summary(
    run: Run,
    fill: dict[str, Any] | None,
    ok: list[dict[str, Any]],
    untraced: list[dict[str, Any]],
    lines: list[str],
) -> dict[str, float]:
    """Per-layer metrics: medians over the traced passes."""
    traced = [result for result in ok if result["traced"] and result.get("layers")]
    metrics: dict[str, float] = {}
    if traced:
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
        if traced[0]["absent"]:
            lines.append("absent targets: " + ", ".join(traced[0]["absent"]))
        lines.append(_attribution(traced[0]["spans"]))
    fill = fill or {}
    if fill.get("layers"):
        # The pass only reads the cache; its writes happen during the fill.
        metrics["cache.put_s"] = fill["layers"]["cache.put_s"]
    caches = [result["cache"] for result in traced if result["cache"]]
    metrics["cache.bytes"] = caches[0]["bytes"] if caches else 0
    if traced and untraced:
        metrics["trace.overhead_pct"] = 100.0 * (
            machine_time(traced) / machine_time(untraced) - 1.0
        )
    spans = {
        f"pass-{index}": result["spans"]
        for index, result in enumerate(ok) if result.get("spans")
    }
    if fill.get("spans"):
        spans["fill"] = fill["spans"]
    out = ROOT / ".perfbench" / "traces" / f"{run.workload.name}-seed{run.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(spans))
    lines.append(f"trace: {out.relative_to(ROOT)}")
    return metrics


def _attribution(spans: list[dict[str, Any]]) -> str:
    """How much of the traced ``compute_studies`` time the layer self times
    plus ``engine.self_s`` account for (100% unless spans overlap)."""
    def root(index: int) -> int:
        while spans[index]["parent"] is not None:
            index = spans[index]["parent"]
        return index

    engine = {i for i, span in enumerate(spans) if span["layer"] == "engine"}
    total = sum(spans[i]["end"] - spans[i]["start"] for i in engine)
    covered = sum(
        span["self_s"] for i, span in enumerate(spans) if root(i) in engine
    )
    share = 100.0 * covered / total if total else 100.0
    return f"layer self times cover {share:.4f}% of compute_studies time"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        fill, passes, setups = run.execute()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    result, lines = summarize(run, fill, passes, setups)
    for line in lines:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
