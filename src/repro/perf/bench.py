"""Perf benchmark harness: ``repro-fsatpg bench`` / ``scripts/bench_perf.py``.

One bench invocation measures three runs over the same circuit set and
writes the result as ``BENCH_perf.json``:

``serial_cold``
    ``jobs=1``, no artifact cache — the baseline the paper-table harness
    used before the perf engine existed.
``parallel_cold``
    ``jobs=N`` against a freshly cleared cache directory: measures the
    parallel speedup and fills the cache.
``parallel_warm``
    ``jobs=N`` against the now-warm cache: UIO search, synthesis +
    verification, and the detectability oracle are all served as hits
    (``stage_seconds`` collapse to ~0 and ``cache.hits`` counts them).

A fourth serial run repeats ``serial_cold`` with the :mod:`repro.obs`
collectors enabled and reports the tracing overhead under
``observability`` (enabled vs disabled wall time, span/metric counts), so
the cost of turning profiling on — and the near-zero cost of leaving it
off — is tracked run over run.

Every run's studies are reduced to a timing-free signature
(:meth:`~repro.harness.experiments.CircuitStudy.signature`) and compared; any
difference is reported under ``divergence`` and makes the CLI exit
non-zero.  Timing numbers never fail the bench — only result divergence
does — so CI can run this on noisy shared runners.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, Sequence

from repro.harness.experiments import CircuitStudy
from repro.harness.runtime import StageTimings, stopwatch
from repro.obs.log import get_logger, set_verbosity, verbosity_from_flags
from repro.obs.resources import UsageProbe
from repro.perf.cache import cache_enabled, default_cache_dir
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
BENCH_SCHEMA = "repro-fsatpg-bench/5"

#: Circuits for ``--quick`` (CI smoke): small machines with non-trivial
#: bridging universes, a few seconds per run.
QUICK_CIRCUITS = ("lion", "mc", "train11", "bbtas")


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
    serial_record: dict[str, Any], candidate_record: dict[str, Any]
) -> dict[str, float]:
    """Serial/candidate wall ratio per pipeline stage (>1 means faster)."""
    serial_stages = serial_record.get("stage_seconds", {})
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
    cache_root: str | Path | None = None,
    quick: bool = False,
    options: Any = None,
    engine: str | None = None,
) -> dict[str, Any]:
    """Serial-cold vs parallel-cold vs parallel-warm; returns the report.

    ``engine`` overrides the fault-sim engine (``auto``/``ppsfp``/
    ``bigint``) for every run; ``None`` keeps whatever ``options`` carries.
    """
    from repro.core.config import FaultSimConfig
    from repro.harness.experiments import StudyOptions

    names = tuple(circuits) if circuits else default_bench_circuits(quick)
    options = options or StudyOptions()
    if engine is not None:
        options = replace(options, faultsim=FaultSimConfig(engine=engine))
    root = (
        Path(cache_root).expanduser()
        if cache_root is not None
        else default_cache_dir() / "bench"
    )

    bench_started = time.perf_counter()
    serial, serial_record = _run(names, 1, options)

    from repro import obs

    with obs.observing() as session:
        observed, observed_record = _run(names, 1, options)
    n_spans = len(session.tracer.events)
    n_metrics = len(session.registry)
    metrics_snapshot = session.registry.snapshot()

    from repro.perf.pool import get_pool

    with cache_enabled(root) as cache:
        cache.clear()
        pool = get_pool(jobs)
        util_start = pool.utilization() if pool is not None else None
        parallel_cold, cold_record = _run(names, jobs, options)
        pool = get_pool(jobs)
        util_cold = pool.utilization() if pool is not None else None
        cold_record["pool"] = _pool_delta(util_start, util_cold)
        parallel_warm, warm_record = _run(names, jobs, options)
        pool = get_pool(jobs)
        util_warm = pool.utilization() if pool is not None else None
        warm_record["pool"] = _pool_delta(util_cold, util_warm)

    divergence = _compare(serial, parallel_cold, "parallel-cold vs serial")
    divergence += _compare(serial, parallel_warm, "parallel-warm vs serial")
    divergence += _compare(serial, observed, "serial-observed vs serial")

    serial_wall = serial_record["wall_s"]
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
        "cache_dir": str(root),
        "options": options_block,
        "runs": {
            "serial_cold": serial_record,
            "parallel_cold": cold_record,
            "parallel_warm": warm_record,
        },
        "speedup_parallel_cold": serial_wall / cold_wall if cold_wall else 0.0,
        "speedup_parallel_warm": (
            serial_wall / warm_record["wall_s"] if warm_record["wall_s"] else 0.0
        ),
        "stage_speedups": {
            "parallel_cold": _stage_speedups(serial_record, cold_record),
            "parallel_warm": _stage_speedups(serial_record, warm_record),
        },
        "observability": {
            "disabled_wall_s": serial_wall,
            "enabled_wall_s": observed_record["wall_s"],
            "overhead_pct": (
                100.0 * (observed_record["wall_s"] - serial_wall) / serial_wall
                if serial_wall
                else 0.0
            ),
            "spans": n_spans,
            "metrics": n_metrics,
        },
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
        cache_hits=warm_record.get("cache", {}).get("hits", 0),
        cache_misses=warm_record.get("cache", {}).get("misses", 0),
    )
    run_ledger.append_record(record)
    return report


def _summarize(report: dict[str, Any]) -> str:
    lines = [
        f"bench: {len(report['circuits'])} circuits, jobs={report['jobs']}",
    ]
    for label, record in report["runs"].items():
        cache = record["cache"]
        lines.append(
            f"  {label:<14} {record['wall_s']:8.2f}s  "
            f"(cache {cache['hits']}h/{cache['misses']}m)"
        )
    lines.append(
        f"  speedup cold {report['speedup_parallel_cold']:.2f}x, "
        f"warm {report['speedup_parallel_warm']:.2f}x"
    )
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
        f"({observability['overhead_pct']:+.1f}% vs disabled, "
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
        description="Measure serial vs parallel vs warm-cache sweep times "
        "and write BENCH_perf.json.",
    )
    parser.add_argument("--circuits", default="",
                        help="comma-separated circuit names")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes for the parallel runs")
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory for the cold/warm runs "
                        "(default: <cache>/bench; cleared before the cold run)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny circuit set for CI smoke runs")
    parser.add_argument("--engine", default=None,
                        choices=("auto", "ppsfp", "bigint"),
                        help="fault-sim engine for every run "
                        "(default: auto-dispatch per universe)")
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
        circuits, jobs=max(1, args.jobs), cache_root=args.cache_dir,
        quick=args.quick, engine=args.engine,
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
