"""Regression gate: compare the current tree against a BENCH baseline.

``repro-fsatpg regress --baseline BENCH_perf.json`` re-runs the baseline's
workload (same circuits, same generator options) on the current tree and
fails on any of three regression classes:

* **Stage time** — any pipeline stage (uio, generation, synthesis, sca,
  detectability, fault-sim) slower than the baseline by more than
  ``--threshold`` percent (default 25).  Stages faster than
  ``--min-seconds`` in *both* runs are skipped: sub-100ms stages are
  timer noise, not signal, and a gate that cries wolf gets disabled.
* **Test quality** — *any* change in the per-circuit result summaries
  (test counts, total lengths, UIO statistics, fault coverage).  The
  pipeline is deterministic, so a quality delta is a behavior change by
  definition and no tolerance applies.
* **Peak memory** — the rerun's max-RSS more than ``--threshold`` percent
  above the baseline's ``serial_cold`` figure (schema /5 baselines record
  a ``resources`` block per run).  Runs whose RSS stays under
  ``--min-rss-kb`` pass unconditionally: the interpreter's own baseline
  footprint dominates down there and percentage growth on it is noise.

Timing checks always apply as configured — there is deliberately no
"different machine, skip timing" escape hatch, because a gate with a
silent bypass is decorative.  Runs on slower hardware should pass a
larger ``--threshold`` explicitly (CI does).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.obs.analytics import flatten
from repro.obs.log import get_logger

__all__ = [
    "Regression",
    "RegressionReport",
    "collect_current",
    "compare_reports",
    "options_from_baseline",
    "run_regress",
]

_LOG = get_logger("regress")

#: Baseline schemas the gate reads in full: /6 only dropped the warm
#: parallel run and the per-run cache blocks, which the gate never read.
_SCHEMAS = ("repro-fsatpg-bench/5", "repro-fsatpg-bench/6")


@dataclass(frozen=True)
class Regression:
    """One detected regression (timing or quality)."""

    kind: str  # "stage-time" | "quality" | "memory"
    subject: str  # stage name, or "circuit.path.to.field"
    baseline: Any
    current: Any
    detail: str

    def render(self) -> str:
        return (
            f"[{self.kind}] {self.subject}: "
            f"{self.baseline} -> {self.current} ({self.detail})"
        )


@dataclass
class RegressionReport:
    """Outcome of one baseline comparison."""

    regressions: list[Regression] = field(default_factory=list)
    checked_stages: int = 0
    checked_circuits: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = [
            f"regress: {self.checked_stages} stages, "
            f"{self.checked_circuits} circuits checked"
        ]
        lines += [f"  note: {note}" for note in self.notes]
        if self.ok:
            lines.append("  no regressions")
        else:
            lines += [f"  {regression.render()}" for regression in self.regressions]
        return "\n".join(lines)


def options_from_baseline(baseline: Mapping[str, Any]) -> Any:
    """Rebuild the :class:`StudyOptions` a /3+ baseline was measured with.

    Schema /4 baselines record the fault-sim ``engine`` too, so the rerun
    dispatches exactly as the baseline did.  Older baselines (schema /2,
    no ``options`` block) fall back to the defaults — the caller should
    surface that in the report notes.
    """
    from repro.core.config import FaultSimConfig, GeneratorConfig
    from repro.harness.experiments import StudyOptions

    block = baseline.get("options")
    if not isinstance(block, dict):
        return StudyOptions()
    config_block = block.get("config")
    config = (
        GeneratorConfig(**config_block)
        if isinstance(config_block, dict)
        else GeneratorConfig()
    )
    return StudyOptions(
        config=config,
        max_fanin=block.get("max_fanin", 4),
        bridging_pair_limit=block.get("bridging_pair_limit", 500),
        faultsim=FaultSimConfig(engine=block.get("engine", "auto")),
    )


def collect_current(
    circuits: Sequence[str],
    options: Any = None,
    *,
    jobs: int = 1,
) -> dict[str, Any]:
    """Run the baseline workload on the current tree; return the comparable view."""
    from repro.harness.runtime import StageTimings
    from repro.obs.resources import UsageProbe
    from repro.perf.engine import compute_studies

    timings = StageTimings()
    probe = UsageProbe()
    artifacts = compute_studies(circuits, options, jobs=jobs, timings=timings)
    return {
        "stage_seconds": timings.to_dict().get("stage_seconds", {}),
        "results": {name: art.summary() for name, art in artifacts.items()},
        "resources": probe.sample().to_dict(),
    }


def compare_reports(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    *,
    threshold_pct: float = 25.0,
    min_seconds: float = 0.1,
    min_rss_kb: float = 51200.0,
) -> RegressionReport:
    """Compare a BENCH baseline against a :func:`collect_current` view."""
    report = RegressionReport()

    base_stages = (
        baseline.get("runs", {}).get("serial_cold", {}).get("stage_seconds", {})
    )
    current_stages = current.get("stage_seconds", {})
    for stage in sorted(base_stages):
        base_s = float(base_stages[stage])
        if stage not in current_stages:
            report.notes.append(f"stage {stage!r} absent from current run")
            continue
        current_s = float(current_stages[stage])
        report.checked_stages += 1
        if base_s < min_seconds and current_s < min_seconds:
            continue  # both under the noise floor
        limit = max(base_s * (1.0 + threshold_pct / 100.0), min_seconds)
        if current_s > limit:
            grew = 100.0 * (current_s - base_s) / base_s if base_s else float("inf")
            report.regressions.append(
                Regression(
                    "stage-time", stage,
                    round(base_s, 4), round(current_s, 4),
                    f"+{grew:.0f}%, threshold {threshold_pct:g}%",
                )
            )

    if any(r.kind == "stage-time" for r in report.regressions):
        # Explain *why* the gate tripped, not just that it did: the same
        # delta attribution `diff` uses, over the full stage vector.
        from repro.obs.analytics import attribute_deltas, render_attribution

        attribution = render_attribution(
            attribute_deltas(
                {k: float(v) for k, v in base_stages.items()},
                {k: float(v) for k, v in current_stages.items()},
            )
        )
        if attribution:
            report.notes.append(f"stage-time shift attribution: {attribution}")

    base_resources = (
        baseline.get("runs", {}).get("serial_cold", {}).get("resources")
    )
    current_resources = current.get("resources")
    if not isinstance(base_resources, dict):
        report.notes.append(
            "baseline has no resources block (pre-/5 schema): "
            "memory gate skipped"
        )
    elif isinstance(current_resources, dict):
        base_kb = float(base_resources.get("max_rss_kb", 0))
        current_kb = float(current_resources.get("max_rss_kb", 0))
        limit_kb = max(base_kb * (1.0 + threshold_pct / 100.0), min_rss_kb)
        if current_kb > limit_kb:
            grew = (
                100.0 * (current_kb - base_kb) / base_kb
                if base_kb
                else float("inf")
            )
            report.regressions.append(
                Regression(
                    "memory", "max_rss_kb",
                    int(base_kb), int(current_kb),
                    f"+{grew:.0f}%, threshold {threshold_pct:g}%",
                )
            )

    base_results = baseline.get("results")
    if not isinstance(base_results, dict) or not base_results:
        report.notes.append(
            "baseline has no results block (pre-/3 schema): "
            "quality gate skipped"
        )
        base_results = {}
    current_results = current.get("results", {})
    for circuit in sorted(base_results):
        report.checked_circuits += 1
        if circuit not in current_results:
            report.regressions.append(
                Regression(
                    "quality", circuit, "present", "missing",
                    "circuit absent from current run",
                )
            )
            continue
        base_flat: dict[str, Any] = {}
        current_flat: dict[str, Any] = {}
        flatten("", base_results[circuit], base_flat)
        flatten("", current_results[circuit], current_flat)
        for key in sorted(set(base_flat) | set(current_flat)):
            left = base_flat.get(key, "<absent>")
            right = current_flat.get(key, "<absent>")
            if left != right:
                report.regressions.append(
                    Regression(
                        "quality", f"{circuit}.{key}", left, right,
                        "any quality delta fails (deterministic pipeline)",
                    )
                )
    return report


def run_regress(
    baseline_path: str | Path,
    *,
    circuits: Sequence[str] | None = None,
    jobs: int = 1,
    threshold_pct: float = 25.0,
    min_seconds: float = 0.1,
    min_rss_kb: float = 51200.0,
) -> tuple[RegressionReport | None, int]:
    """CLI driver: load baseline, rerun its workload, compare.

    Returns ``(report, exit_code)``: 0 clean, 1 regressions found, 2 the
    baseline could not be used.
    """
    path = Path(baseline_path)
    try:
        baseline = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        _LOG.error(f"cannot read baseline {path}: {exc}")
        return None, 2
    if not isinstance(baseline, dict):
        _LOG.error(f"baseline {path} is not a JSON object")
        return None, 2
    names = list(circuits) if circuits else list(baseline.get("circuits", []))
    if not names:
        _LOG.error(f"baseline {path} lists no circuits and none were given")
        return None, 2
    options = options_from_baseline(baseline)
    current = collect_current(names, options, jobs=jobs)
    report = compare_reports(
        baseline, current,
        threshold_pct=threshold_pct, min_seconds=min_seconds,
        min_rss_kb=min_rss_kb,
    )
    if "options" not in baseline:
        report.notes.append("baseline has no options block: defaults assumed")
    schema = baseline.get("schema")
    if schema not in _SCHEMAS:
        report.notes.append(f"baseline schema {schema!r} (current is /6)")
    return report, 0 if report.ok else 1
