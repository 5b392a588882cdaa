"""Steadiness study: how far the benchmark's end-to-end metrics spread.

Usage::

    python3 perfbench/steadiness.py [--first-seed N] [--out perfbench/steadiness.json]

Makes two sets of ten runs of ``run.py --trace 0`` on every workload of
``BENCHMARK.json``, at its ``run_seconds``, each run with its own seed
(``--first-seed`` onwards), interleaving the workloads so a slow spell of
the host touches all of them.  For every metric and workload it reports
each set's median, quartiles (``statistics.quantiles(n=4)``) and spread
(the distance between the quartiles over the median), and the change of
the second set's median against the first, in the direction in which the
metric gets worse.  Every spread and change, ``setup_s``'s too, is held
against the metric's bound; the exit status is 0 when all are within it
and no run failed an operation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10


def _run(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    started = time.monotonic()
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = process.stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed: {process.stderr[-2000:]}")
    return json.loads(lines[-1]), time.monotonic() - started


def _stats(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    workloads = [workload["name"] for workload in config["workloads"]]
    seconds = config["run_seconds"]
    metrics = {metric["name"]: metric for metric in config["end_to_end"]}

    values = {workload: [] for workload in workloads}
    durations: dict[str, list[float]] = {workload: [] for workload in workloads}
    failures = 0
    for set_index in range(SETS):
        for workload in workloads:
            values[workload].append({name: [] for name in metrics})
        for run in range(RUNS):
            seed = args.first_seed + set_index * RUNS + run
            for workload in workloads:
                result, duration = _run(workload, seed, seconds)
                durations[workload].append(duration)
                failures += result["failed"] + (not result["correct"])
                for name in metrics:
                    value = result["metrics"][name]["value"]
                    values[workload][set_index][name].append(value)
                print(f"set {set_index} seed {seed} {workload}: " + ", ".join(
                    f"{name}={result['metrics'][name]['value']:.4g}"
                    for name in ("setup_s", "wall_s", "peak_rss_mb")
                ) + f" ({duration:.1f} s)", flush=True)

    report: dict[str, dict] = {}
    within = True
    print(f"\n{'workload':12s} {'metric':20s} {'bound':>6s} "
          + " ".join(f"{'median' + str(i):>11s} {'spread' + str(i):>8s}"
                     for i in range(SETS))
          + f" {'change':>8s}")
    for workload in workloads:
        report[workload] = {}
        for name, metric in metrics.items():
            sets = [_stats(per_set[name]) for per_set in values[workload]]
            sign = 1 if metric["better"] == "lower" else -1
            change = sign * (
                sets[1]["median"] - sets[0]["median"]
            ) / sets[0]["median"] if sets[0]["median"] else 0.0
            within = within and change <= metric["bound"] and all(
                s["spread"] <= metric["bound"] for s in sets
            )
            report[workload][name] = {
                "bound": metric["bound"], "sets": sets, "change": change,
            }
            print(f"{workload:12s} {name:20s} {metric['bound']:6.3f} "
                  + " ".join(f"{s['median']:11.5g} {100 * s['spread']:7.2f}%"
                             for s in sets)
                  + f" {100 * change:+7.2f}%")
    mean_run = statistics.mean(d for values in durations.values() for d in values)
    total = sum(d for values in durations.values() for d in values)
    print(f"\nmean run {mean_run:.1f} s; the study took {total:.0f} s")
    print(f"failed operations or incorrect runs: {failures}")
    print("within bounds" if within and not failures else "NOT within bounds")
    if args.out:
        args.out.write_text(json.dumps(
            {"runs": RUNS, "seconds": seconds, "first_seed": args.first_seed,
             "report": report, "values": values, "durations": durations},
            indent=1,
        ) + "\n")
    return 0 if within and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
