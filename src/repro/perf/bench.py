"""Perf benchmark harness: ``repro-fsatpg bench`` / ``scripts/bench_perf.py``.

One bench invocation measures two runs over the same circuit set and
writes the result as ``BENCH_perf.json``:

``serial_cold``
    ``jobs=1`` — the baseline the paper-table harness used before the perf
    engine existed.
``parallel_cold``
    ``jobs=N``: measures the parallel speedup.

Grading reads no artifact cache, so there is no warm run: a second sweep
recomputes exactly what the first did.

After ``serial_cold``, ``OVERHEAD_PAIRS`` pairs of serial runs, one with
the :mod:`repro.obs` collectors enabled and one without, measure the
tracing overhead under ``observability`` (the medians of the pairs'
enabled-vs-disabled wall and CPU ratios, each pair's figures, span/metric
counts), so the cost of turning profiling on — and the near-zero cost of
leaving it off — is tracked run over run.  The order within a pair
alternates, and the cold first run is in no pair: a second sweep in one
process runs warmer than the first, which alone would read as several
percent.  For the same reason the parallel speedup divides the median wall
(and per-stage medians) of the pairs' unobserved runs, which also follow
``serial_cold``, by the parallel wall.

Every run's studies are reduced to a timing-free signature
(:meth:`~repro.harness.experiments.CircuitStudy.signature`) and compared; any
difference is reported under ``divergence`` and makes the CLI exit
non-zero.  Timing numbers never fail the bench — only result divergence
does — so CI can run this on noisy shared runners.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, Sequence

from repro.harness.experiments import CircuitStudy
from repro.harness.runtime import StageTimings, stopwatch
from repro.obs.log import get_logger, set_verbosity, verbosity_from_flags
from repro.obs.resources import UsageProbe
from repro.perf.engine import compute_studies

__all__ = ["BENCH_SCHEMA", "default_bench_circuits", "run_bench", "main"]

#: Schema tag stored in BENCH_perf.json; bump when the layout changes.
#: /3 adds the per-circuit ``results`` block (scalar test/coverage
#: summaries) and the ``options`` block so ``repro-fsatpg regress`` can
#: reproduce the exact workload the baseline measured.
#: /4 adds ``stage_speedups`` (per-stage serial/parallel ratios for the
#: cold and warm runs) and records the fault-sim ``engine`` under
#: ``options`` so regressions pin the engine the baseline measured.
#: /5 adds a ``resources`` block to every run (CPU user/system seconds
#: including workers, peak RSS) — what the ``regress`` memory gate
#: compares — and a ``pool`` utilization block (per-worker busy/idle/task
#: split) to the parallel runs so ``speedup_parallel_*`` is explainable
#: from the report alone.
#: /6 drops the warm parallel run and its speedups, the ``cache_dir``
#: field and every run's ``cache`` block: grading reads no artifact cache.
BENCH_SCHEMA = "repro-fsatpg-bench/6"

#: Circuits for ``--quick`` (CI smoke): small machines with non-trivial
#: bridging universes, a few seconds per run.
QUICK_CIRCUITS = ("lion", "mc", "train11", "bbtas")

#: Unobserved/observed serial run pairs behind ``observability``.
OVERHEAD_PAIRS = 3


def default_bench_circuits(quick: bool = False) -> tuple[str, ...]:
    """The default benchmark set: small tier + representative medium."""
    if quick:
        return QUICK_CIRCUITS
    from repro.benchmarks import circuit_names

    return tuple(sorted(circuit_names("small"))) + ("bbara", "ex4", "mark1")


def _run(
    circuits: Sequence[str],
    jobs: int,
    options: Any,
) -> tuple[dict[str, CircuitStudy], dict[str, Any]]:
    timings = StageTimings()
    probe = UsageProbe()
    with stopwatch() as clock:
        studies = compute_studies(circuits, options, jobs=jobs, timings=timings)
    record = {"jobs": jobs, "wall_s": clock.elapsed_s}
    record.update(timings.to_dict())
    # CPU is windowed over this run (workers included: the pool sends each
    # task's worker CPU with its result); peak RSS is a process high-water
    # mark and can only grow monotonically across runs.
    record["resources"] = probe.sample().to_dict()
    return studies, record


def _overhead_pct(disabled_s: float, enabled_s: float) -> float:
    return 100.0 * (enabled_s - disabled_s) / disabled_s if disabled_s else 0.0


def _cpu_s(record: dict[str, Any]) -> float:
    resources = record["resources"]
    return resources["cpu_user_s"] + resources["cpu_system_s"]


def _observer_overhead(
    circuits: Sequence[str],
    options: Any,
    reference: dict[str, CircuitStudy],
    pairs: int = OVERHEAD_PAIRS,
) -> tuple[dict[str, Any], dict[str, Any], list[str]]:
    """Time ``pairs`` unobserved/observed serial runs, alternating the order.

    Returns the ``observability`` block, the first observed run's metrics
    snapshot, and any divergence of the runs' results from ``reference``.
    The block's ``disabled_wall_s`` and ``disabled_stage_seconds`` (medians
    over the unobserved runs) are the serial reference of the speedups.
    """
    from repro import obs

    records: list[dict[str, Any]] = []
    divergence: list[str] = []
    counts: dict[str, int] = {}
    snapshot: dict[str, Any] = {}
    for index in range(pairs):
        order = ("disabled", "enabled") if index % 2 == 0 else ("enabled", "disabled")
        runs: dict[str, dict[str, Any]] = {}
        for mode in order:
            if mode == "enabled":
                with obs.observing() as session:
                    studies, record = _run(circuits, 1, options)
                if not counts:
                    counts = {
                        "spans": len(session.tracer.events),
                        "metrics": len(session.registry),
                    }
                    snapshot = session.registry.snapshot()
            else:
                studies, record = _run(circuits, 1, options)
            runs[mode] = record
            divergence += _compare(
                reference, studies, f"serial-{mode} (pair {index + 1}) vs serial"
            )
        disabled, enabled = runs["disabled"], runs["enabled"]
        records.append(
            {
                "order": order[0] + " first",
                "disabled_wall_s": disabled["wall_s"],
                "enabled_wall_s": enabled["wall_s"],
                "overhead_pct": _overhead_pct(disabled["wall_s"], enabled["wall_s"]),
                "disabled_cpu_s": _cpu_s(disabled),
                "enabled_cpu_s": _cpu_s(enabled),
                "overhead_cpu_pct": _overhead_pct(_cpu_s(disabled), _cpu_s(enabled)),
                "disabled_stage_seconds": disabled["stage_seconds"],
            }
        )
    block = {
        "disabled_wall_s": statistics.median(r["disabled_wall_s"] for r in records),
        "enabled_wall_s": statistics.median(r["enabled_wall_s"] for r in records),
        "disabled_stage_seconds": {
            name: statistics.median(r["disabled_stage_seconds"][name] for r in records)
            for name in records[0]["disabled_stage_seconds"]
        },
        "overhead_pct": statistics.median(r["overhead_pct"] for r in records),
        "overhead_cpu_pct": statistics.median(r["overhead_cpu_pct"] for r in records),
        "pairs": records,
        **counts,
    }
    return block, snapshot, divergence


def _pool_delta(
    before: dict[str, Any] | None, after: dict[str, Any] | None
) -> dict[str, Any] | None:
    """Per-run pool utilization: ``after`` minus ``before`` snapshots."""
    if before is None or after is None:
        return None
    workers = []
    for b, a in zip(before["workers"], after["workers"]):
        workers.append(
            {
                "worker": a["worker"],
                "tasks": a["tasks"] - b["tasks"],
                "busy_s": round(a["busy_s"] - b["busy_s"], 6),
                "idle_s": round(a["idle_s"] - b["idle_s"], 6),
            }
        )
    return {"queue_depth_peak": after["queue_depth_peak"], "workers": workers}


def _stage_speedups(
    serial_stages: dict[str, float], candidate_record: dict[str, Any]
) -> dict[str, float]:
    """Serial/candidate wall ratio per pipeline stage (>1 means faster)."""
    candidate_stages = candidate_record.get("stage_seconds", {})
    return {
        stage: (
            seconds / candidate_stages[stage]
            if candidate_stages.get(stage)
            else 0.0
        )
        for stage, seconds in serial_stages.items()
    }


def _compare(
    reference: dict[str, CircuitStudy],
    candidate: dict[str, CircuitStudy],
    label: str,
) -> list[str]:
    problems: list[str] = []
    for name in reference:
        left = reference[name].signature()
        right = candidate[name].signature()
        if left != right:
            fields = sorted(key for key in left if left[key] != right[key])
            problems.append(f"{label}: circuit {name} differs in {', '.join(fields)}")
    return problems


def run_bench(
    circuits: Sequence[str] | None = None,
    *,
    jobs: int = 4,
    quick: bool = False,
    options: Any = None,
    engine: str | None = None,
) -> dict[str, Any]:
    """Serial vs parallel sweep; returns the report.

    ``engine`` overrides the fault-sim engine (``auto``/``ppsfp``/
    ``bigint``) for every run; ``None`` keeps whatever ``options`` carries.
    """
    from repro.core.config import FaultSimConfig
    from repro.harness.experiments import StudyOptions

    names = tuple(circuits) if circuits else default_bench_circuits(quick)
    options = options or StudyOptions()
    if engine is not None:
        options = replace(options, faultsim=FaultSimConfig(engine=engine))

    bench_started = time.perf_counter()
    serial, serial_record = _run(names, 1, options)
    observability, metrics_snapshot, overhead_divergence = _observer_overhead(
        names, options, serial
    )

    from repro.perf.pool import get_pool

    pool = get_pool(jobs)
    util_start = pool.utilization() if pool is not None else None
    parallel_cold, cold_record = _run(names, jobs, options)
    pool = get_pool(jobs)
    util_cold = pool.utilization() if pool is not None else None
    cold_record["pool"] = _pool_delta(util_start, util_cold)

    divergence = _compare(serial, parallel_cold, "parallel-cold vs serial")
    divergence += overhead_divergence

    # The speedup's serial reference follows serial_cold, like the
    # parallel run; serial_cold, the process's first sweep, runs colder.
    serial_wall = observability["disabled_wall_s"]
    serial_stages = observability["disabled_stage_seconds"]
    cold_wall = cold_record["wall_s"]
    results = {name: serial[name].summary() for name in names}
    options_block = {
        "config": asdict(options.config),
        "max_fanin": options.max_fanin,
        "bridging_pair_limit": options.bridging_pair_limit,
        "engine": options.faultsim.engine,
    }
    report = {
        "schema": BENCH_SCHEMA,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "circuits": list(names),
        "jobs": jobs,
        "options": options_block,
        "runs": {
            "serial_cold": serial_record,
            "parallel_cold": cold_record,
        },
        "speedup_parallel_cold": serial_wall / cold_wall if cold_wall else 0.0,
        "stage_speedups": {
            "parallel_cold": _stage_speedups(serial_stages, cold_record),
        },
        "observability": observability,
        "results": results,
        "identical": not divergence,
        "divergence": divergence,
    }

    # The bench also ledgers itself, so BENCH files and the run ledger carry
    # the same per-circuit results and can never silently diverge.
    from repro.obs import ledger as run_ledger

    record = run_ledger.build_record(
        "bench",
        semantic_args={"circuits": list(names), "options": options_block},
        circuits=names,
        jobs=jobs,
        exit_code=0 if not divergence else 1,
        wall_s=time.perf_counter() - bench_started,
        stage_seconds=serial_record.get("stage_seconds", {}),
        metrics=metrics_snapshot,
        results=results,
    )
    run_ledger.append_record(record)
    return report


def _summarize(report: dict[str, Any]) -> str:
    lines = [
        f"bench: {len(report['circuits'])} circuits, jobs={report['jobs']}",
    ]
    for label, record in report["runs"].items():
        lines.append(f"  {label:<14} {record['wall_s']:8.2f}s")
    lines.append(f"  speedup cold {report['speedup_parallel_cold']:.2f}x")
    cold_stages = report.get("stage_speedups", {}).get("parallel_cold", {})
    if cold_stages:
        lines.append(
            "  stage speedups (cold) "
            + ", ".join(
                f"{stage} {ratio:.2f}x" for stage, ratio in cold_stages.items()
            )
        )
    observability = report["observability"]
    lines.append(
        f"  observability  {observability['enabled_wall_s']:8.2f}s enabled "
        f"({observability['overhead_pct']:+.1f}% wall, "
        f"{observability['overhead_cpu_pct']:+.1f}% CPU vs disabled, median of "
        f"{len(observability['pairs'])} pairs, "
        f"{observability['spans']} spans, {observability['metrics']} metrics)"
    )
    lines.append(
        "  results identical across runs"
        if report["identical"]
        else "  DIVERGENCE: " + "; ".join(report["divergence"])
    )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_perf",
        description="Measure serial vs parallel sweep times and write "
        "BENCH_perf.json.",
    )
    parser.add_argument("--circuits", default="",
                        help="comma-separated circuit names")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes for the parallel runs")
    parser.add_argument("--quick", action="store_true",
                        help="tiny circuit set for CI smoke runs")
    parser.add_argument("--engine", default=None,
                        choices=("auto", "ppsfp", "bigint"),
                        help="fault-sim engine for every run "
                        "(default: auto, PPSFP on byte-budget chunks)")
    parser.add_argument("-o", "--output", default="BENCH_perf.json",
                        help="report path ('-' prints JSON to stdout)")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more progress on stderr (-vv for debug)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="errors only (silences the summary)")
    args = parser.parse_args(argv)
    set_verbosity(verbosity_from_flags(args.verbose, args.quiet))
    log = get_logger("bench")

    circuits = tuple(
        name.strip() for name in args.circuits.split(",") if name.strip()
    ) or None
    report = run_bench(
        circuits, jobs=max(1, args.jobs), quick=args.quick, engine=args.engine
    )
    text = json.dumps(report, indent=2, sort_keys=False)
    if args.output == "-":
        print(text)
    else:
        Path(args.output).write_text(text + "\n")
        log.note(f"wrote {args.output}")
    for line in _summarize(report).splitlines():
        log.note(line)
    return 0 if report["identical"] else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
