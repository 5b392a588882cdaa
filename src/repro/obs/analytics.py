"""Ledger analytics: a columnar frame, scaling fits, diffing, anomalies.

The run ledger (:mod:`repro.obs.ledger`) records what every invocation *was*
and *did*; this module is what *interprets* that history.  Everything is
zero-dependency (stdlib only) and deterministic: two runs over the same
ledger produce byte-identical tables, diffs, and JSON payloads.

Four layers, bottom to top:

* :class:`Frame` — a small columnar frame (equal-length typed columns with
  filter / group / sort / select), loaded from one or more ledger
  directories by :func:`run_frame` (one row per record) and
  :func:`circuit_frame` (one row per record × circuit, joined against the
  benchmark registry's machine sizes).  Loading is forgiving about the
  ledger schema: ``/1`` records without a ``resources`` block simply get
  ``None`` in the resource columns.
* **Scaling fits** — :func:`scaling_fits` least-squares fits each metric
  (tests, test length, clock cycles, stage seconds, max RSS) against each
  machine-size axis (N_ST, N_PIC, transition count) as both a power law
  ``y = c·x^k`` (log–log regression) and a straight line, keeps the better
  model by R², and reports per-circuit residuals.  Rendered as markdown
  and LaTeX by :func:`render_fits_markdown` / :func:`render_fits_latex`
  (the ``repro-fsatpg tables`` command).
* **Run diffing** — :func:`diff_records` attributes the wall-time delta
  between two records to the pipeline-stage spans and metric names
  responsible (:func:`attribute_deltas`, the same attribution ``regress``
  uses to explain *why* its gate tripped), plus per-circuit result deltas.
* **Anomaly detection** — :func:`detect_anomalies` computes MAD-based
  robust z-scores over each (command, args-hash) group's wall-time,
  per-stage, and RSS history and flags outlier runs; surfaced by
  ``history`` and the report dashboard's warnings panel.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.obs.ledger import read_records

__all__ = [
    "ANALYTICS_SCHEMA",
    "DIFF_SCHEMA",
    "ANOMALY_THRESHOLD",
    "Frame",
    "load_records",
    "run_frame",
    "circuit_frame",
    "registry_sizes",
    "Fit",
    "linear_fit",
    "power_fit",
    "best_fit",
    "ScalingFit",
    "scaling_fits",
    "render_fits_markdown",
    "render_fits_latex",
    "tables_payload",
    "validate_tables_payload",
    "record_id",
    "resolve_record",
    "Delta",
    "attribute_deltas",
    "render_attribution",
    "RunDiff",
    "diff_records",
    "flatten",
    "render_diff",
    "diff_payload",
    "validate_diff_payload",
    "Anomaly",
    "robust_z_scores",
    "detect_anomalies",
]

#: Schema tags stamped on the JSON payloads (``tables``/``diff``
#: ``--format json``); checked by ``scripts/validate_analytics.py``.
ANALYTICS_SCHEMA = "repro-fsatpg-analytics/1"
DIFF_SCHEMA = "repro-fsatpg-diff/1"

#: Default robust-z threshold: 3.5 is the classic Iglewicz–Hoaglin cutoff
#: for MAD-based outlier labeling.
ANOMALY_THRESHOLD = 3.5

#: Consistency constant making the MAD estimate comparable to a standard
#: deviation under normality (1/Φ⁻¹(3/4)).
_MAD_SCALE = 0.6745

#: Machine-size axes joined from the benchmark registry: the paper's N_ST
#: (state count), N_PIC (primary-input combinations, 2^pi), and the
#: transition count N_ST·N_PIC (a gate-count proxy — synthesized netlist
#: size tracks it closely).
SIZE_KEYS = ("n_states", "n_input_combos", "n_transitions")


# ------------------------------------------------------------------- frame


class Frame:
    """A zero-dependency columnar frame: named, equal-length columns.

    Rows are plain dicts on the way in and out; storage is per-column
    Python lists, so filters and projections never copy row objects.  All
    operations return new frames; nothing mutates in place.
    """

    def __init__(self, columns: Mapping[str, Sequence[Any]]) -> None:
        self._columns: dict[str, list[Any]] = {
            name: list(values) for name, values in columns.items()
        }
        lengths = {len(values) for values in self._columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        self._n = lengths.pop() if lengths else 0

    # ------------------------------------------------------------- basics

    def __len__(self) -> int:
        return self._n

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def column(self, name: str) -> list[Any]:
        return list(self._columns[name])

    def row(self, index: int) -> dict[str, Any]:
        return {name: values[index] for name, values in self._columns.items()}

    def rows(self) -> list[dict[str, Any]]:
        return [self.row(index) for index in range(self._n)]

    @classmethod
    def from_rows(
        cls, rows: Sequence[Mapping[str, Any]],
        names: Sequence[str] | None = None,
    ) -> "Frame":
        """Build a frame from row dicts; missing cells become ``None``."""
        if names is None:
            seen: dict[str, None] = {}
            for row in rows:
                for name in row:
                    seen.setdefault(name)
            names = tuple(seen)
        return cls(
            {name: [row.get(name) for row in rows] for name in names}
        )

    # ---------------------------------------------------------- operations

    def _take(self, indices: Sequence[int]) -> "Frame":
        return Frame(
            {
                name: [values[i] for i in indices]
                for name, values in self._columns.items()
            }
        )

    def filter(self, predicate: Callable[[dict[str, Any]], bool]) -> "Frame":
        return self._take(
            [i for i in range(self._n) if predicate(self.row(i))]
        )

    def where(self, **equals: Any) -> "Frame":
        """Rows whose columns equal every given value."""
        return self._take(
            [
                i
                for i in range(self._n)
                if all(
                    self._columns[name][i] == value
                    for name, value in equals.items()
                )
            ]
        )

    def select(self, *names: str) -> "Frame":
        return Frame({name: self._columns[name] for name in names})

    def sorted_by(self, *names: str, reverse: bool = False) -> "Frame":
        order = sorted(
            range(self._n),
            key=lambda i: tuple(
                _sort_key(self._columns[name][i]) for name in names
            ),
            reverse=reverse,
        )
        return self._take(order)

    def group_by(self, *names: str) -> dict[tuple[Any, ...], "Frame"]:
        """Group keys in first-appearance order → sub-frame per key."""
        groups: dict[tuple[Any, ...], list[int]] = {}
        for i in range(self._n):
            key = tuple(self._columns[name][i] for name in names)
            groups.setdefault(key, []).append(i)
        return {key: self._take(indices) for key, indices in groups.items()}

    def numeric(self, name: str) -> list[float]:
        """The column's numeric values, non-numeric cells dropped."""
        return [
            float(value)
            for value in self._columns[name]
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        ]

    def pairs(self, x: str, y: str) -> list[tuple[float, float]]:
        """Aligned ``(x, y)`` pairs over rows where both are numeric."""
        out: list[tuple[float, float]] = []
        for a, b in zip(self._columns[x], self._columns[y]):
            if (
                isinstance(a, (int, float)) and not isinstance(a, bool)
                and isinstance(b, (int, float)) and not isinstance(b, bool)
            ):
                out.append((float(a), float(b)))
        return out

    def __repr__(self) -> str:
        return f"<Frame {self._n} rows × {len(self._columns)} columns>"


def _sort_key(value: Any) -> tuple[int, Any]:
    """Total order across None / numbers / strings (None first)."""
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))


# ----------------------------------------------------------------- loading


def load_records(
    directories: Sequence[str | Path] | None = None,
) -> list[dict[str, Any]]:
    """Every parseable record from one or more ledger directories.

    ``None`` reads the active ledger directory.  Each directory's records
    keep their ledger (oldest-first) order; directories concatenate in the
    order given, so ``@-1`` selectors mean "newest of the last directory".
    """
    if directories is None:
        return read_records()
    records: list[dict[str, Any]] = []
    for directory in directories:
        records.extend(read_records(Path(directory)))
    return records


def _resource(record: Mapping[str, Any], key: str) -> float | None:
    """A ``resources`` field, or ``None`` on pre-/2 records without one."""
    resources = record.get("resources")
    if isinstance(resources, dict):
        value = resources.get(key)
        if isinstance(value, (int, float)):
            return float(value)
    return None


def _stage_seconds(record: Mapping[str, Any]) -> dict[str, float]:
    stages = record.get("stage_seconds")
    if not isinstance(stages, dict):
        return {}
    return {
        str(name): float(seconds)
        for name, seconds in stages.items()
        if isinstance(seconds, (int, float))
    }


def record_id(record: Mapping[str, Any]) -> str:
    """A short content hash identifying one ledger record.

    Stable across reads (it hashes the canonical JSON of the record, which
    the ledger never rewrites) and unique enough at 12 hex digits for any
    plausible ledger size.  Shown by ``history --format json``, ``diff``,
    and the report; accepted by :func:`resolve_record` as a selector.
    """
    canonical = json.dumps(dict(record), sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def run_frame(records: Sequence[Mapping[str, Any]]) -> Frame:
    """One row per ledger record with typed scalar columns.

    ``stage_seconds`` stays a dict column (stage names vary per command);
    ``stage_total_s`` is its sum.  Resource columns are ``None`` for
    schema ``/1`` records, which predate the ``resources`` block.
    """
    rows: list[dict[str, Any]] = []
    for index, record in enumerate(records):
        cache = record.get("cache") if isinstance(record.get("cache"), dict) \
            else {}
        stages = _stage_seconds(record)
        circuits = tuple(
            str(name) for name in record.get("circuits", ())
            if isinstance(name, str)
        )
        rows.append(
            {
                "index": index,
                "id": record_id(record),
                "schema": str(record.get("schema", "")),
                "ts": str(record.get("ts", "")),
                "git_sha": str(record.get("git_sha", "")),
                "command": str(record.get("command", "")),
                "args_hash": str(record.get("args_hash", "")),
                "jobs": int(record.get("jobs", 1) or 1),
                "exit_code": int(record.get("exit_code", 0) or 0),
                "wall_s": float(record.get("wall_s", 0.0) or 0.0),
                "circuits": circuits,
                "n_circuits": len(circuits),
                "cache_hits": int(cache.get("hits", 0) or 0),
                "cache_misses": int(cache.get("misses", 0) or 0),
                "cache_hit_rate": float(cache.get("hit_rate", 0.0) or 0.0),
                "cpu_user_s": _resource(record, "cpu_user_s"),
                "cpu_system_s": _resource(record, "cpu_system_s"),
                "max_rss_kb": _resource(record, "max_rss_kb"),
                "stage_seconds": stages,
                "stage_total_s": sum(stages.values()),
            }
        )
    return Frame.from_rows(rows, names=_RUN_COLUMNS)


_RUN_COLUMNS = (
    "index", "id", "schema", "ts", "git_sha", "command", "args_hash",
    "jobs", "exit_code", "wall_s", "circuits", "n_circuits",
    "cache_hits", "cache_misses", "cache_hit_rate",
    "cpu_user_s", "cpu_system_s", "max_rss_kb",
    "stage_seconds", "stage_total_s",
)


def registry_sizes(circuit: str) -> dict[str, float] | None:
    """Machine-size axes for one benchmark circuit, ``None`` if unknown.

    Imported lazily so the analytics layer stays importable without the
    benchmark registry (e.g. when analysing a foreign ledger).
    """
    try:
        from repro.benchmarks import get_spec

        spec = get_spec(circuit)
    except Exception:
        return None
    return {
        "n_states": float(spec.n_states),
        "n_input_combos": float(1 << spec.n_inputs),
        "n_transitions": float(spec.n_transitions),
    }


#: Per-circuit result fields copied from a record's ``results`` block.
_RESULT_FIELDS = (
    "tests", "test_length", "pct_length_one", "clock_cycles",
    "uio_found", "uio_max_len",
)

#: Nested fault-model summaries flattened as ``<model>_faults`` /
#: ``<model>_coverage``.
_FAULT_MODELS = ("stuck_at", "bridging")


def circuit_frame(
    records: Sequence[Mapping[str, Any]],
    sizes: Callable[[str], Mapping[str, float] | None] | None = None,
) -> Frame:
    """One row per (record, circuit) with results joined to machine sizes.

    Wall time, stage seconds, and max RSS are attributable to a circuit
    only when the record ran exactly that one circuit, so multi-circuit
    records get ``None`` there — fits over timing silently use the
    single-circuit history.  ``sizes`` defaults to the benchmark registry
    (:func:`registry_sizes`); pass a callable to analyse foreign circuits.
    """
    resolve = registry_sizes if sizes is None else sizes
    size_cache: dict[str, Mapping[str, float] | None] = {}
    rows: list[dict[str, Any]] = []
    for index, record in enumerate(records):
        results = record.get("results")
        if not isinstance(results, dict):
            continue
        single = len(record.get("circuits", ())) == 1
        stages = _stage_seconds(record)
        for circuit in sorted(results):
            summary = results[circuit]
            if not isinstance(summary, dict):
                continue
            if circuit not in size_cache:
                size_cache[circuit] = resolve(circuit)
            size = size_cache[circuit] or {}
            row: dict[str, Any] = {
                "index": index,
                "id": record_id(record),
                "ts": str(record.get("ts", "")),
                "command": str(record.get("command", "")),
                "args_hash": str(record.get("args_hash", "")),
                "circuit": str(circuit),
                "wall_s": float(record.get("wall_s", 0.0) or 0.0)
                if single else None,
                "stage_seconds": stages if single else None,
                "max_rss_kb": _resource(record, "max_rss_kb")
                if single else None,
            }
            for field in _RESULT_FIELDS:
                value = summary.get(field)
                row[field] = (
                    float(value)
                    if isinstance(value, (int, float))
                    and not isinstance(value, bool)
                    else None
                )
            for model in _FAULT_MODELS:
                block = summary.get(model)
                block = block if isinstance(block, dict) else {}
                for field in ("faults", "coverage"):
                    value = block.get(field)
                    row[f"{model}_{field}"] = (
                        float(value)
                        if isinstance(value, (int, float))
                        and not isinstance(value, bool)
                        else None
                    )
            for key in SIZE_KEYS:
                row[key] = size.get(key)
            rows.append(row)
    names = (
        ("index", "id", "ts", "command", "args_hash", "circuit",
         "wall_s", "stage_seconds", "max_rss_kb")
        + _RESULT_FIELDS
        + tuple(
            f"{model}_{field}"
            for model in _FAULT_MODELS
            for field in ("faults", "coverage")
        )
        + SIZE_KEYS
    )
    return Frame.from_rows(rows, names=names)


# -------------------------------------------------------------------- fits


@dataclass(frozen=True)
class Fit:
    """One least-squares model ``y = f(x)``.

    ``model`` is ``"power"`` (``y = coeff · x^exponent``, fitted in
    log–log space) or ``"linear"`` (``y = coeff + exponent·x`` — the
    ``exponent`` field doubles as the slope so both models expose their
    scaling rate under one name).
    """

    model: str
    coeff: float
    exponent: float
    r2: float
    n: int

    def predict(self, x: float) -> float:
        if self.model == "power":
            return self.coeff * (x ** self.exponent)
        return self.coeff + self.exponent * x

    def formula(self, y: str = "y", x: str = "x") -> str:
        if self.model == "power":
            return f"{y} ≈ {self.coeff:.4g}·{x}^{self.exponent:.3f}"
        return f"{y} ≈ {self.coeff:.4g} + {self.exponent:.4g}·{x}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "model": self.model,
            "coeff": round(self.coeff, 10),
            "exponent": round(self.exponent, 10),
            "r2": round(self.r2, 10),
            "n": self.n,
        }


def _least_squares(xs: Sequence[float], ys: Sequence[float]) \
        -> tuple[float, float, float]:
    """Slope/intercept/R² of the ordinary least-squares line."""
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx if sxx else 0.0
    intercept = mean_y - slope * mean_x
    ss_res = sum(
        (y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys)
    )
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r2 = 1.0 - ss_res / ss_tot if ss_tot else 1.0
    return slope, intercept, r2


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> Fit | None:
    """``y = a + b·x`` by ordinary least squares (≥ 2 distinct x)."""
    if len(xs) < 2 or len(set(xs)) < 2:
        return None
    slope, intercept, r2 = _least_squares(xs, ys)
    return Fit("linear", intercept, slope, r2, len(xs))


def power_fit(xs: Sequence[float], ys: Sequence[float]) -> Fit | None:
    """``y = c·x^k`` via log–log least squares (strictly positive data)."""
    if len(xs) < 2 or len(set(xs)) < 2:
        return None
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        return None
    log_x = [math.log(x) for x in xs]
    log_y = [math.log(y) for y in ys]
    slope, intercept, r2 = _least_squares(log_x, log_y)
    return Fit("power", math.exp(intercept), slope, r2, len(xs))


def best_fit(xs: Sequence[float], ys: Sequence[float]) -> Fit | None:
    """The better of the power-law and linear fits by R² (ties → power).

    Asymptotic scaling is the question being asked, so the power law wins
    ties; data with zeros or negatives falls back to the line.
    """
    power = power_fit(xs, ys)
    linear = linear_fit(xs, ys)
    if power is not None and (linear is None or power.r2 >= linear.r2):
        return power
    return linear


@dataclass(frozen=True)
class ScalingFit:
    """One fitted (metric, size-axis) relation with its per-circuit data.

    ``points`` are ``(circuit, x, y)`` sorted by x then name — y is the
    mean of that circuit's metric across the frame's records.
    ``residuals`` are relative: ``(y - fit(x)) / fit(x)``.
    """

    metric: str
    size: str
    fit: Fit
    points: tuple[tuple[str, float, float], ...]

    @property
    def residuals(self) -> tuple[tuple[str, float], ...]:
        out = []
        for circuit, x, y in self.points:
            predicted = self.fit.predict(x)
            relative = (y - predicted) / predicted if predicted else 0.0
            out.append((circuit, relative))
        return tuple(out)

    def to_dict(self) -> dict[str, Any]:
        return {
            "metric": self.metric,
            "size": self.size,
            "fit": self.fit.to_dict(),
            "points": [
                {"circuit": c, "x": x, "y": round(y, 10)}
                for c, x, y in self.points
            ],
            "residuals": {
                circuit: round(value, 10)
                for circuit, value in self.residuals
            },
        }


#: Metrics fitted by default (timing/RSS rows exist only for
#: single-circuit records — see :func:`circuit_frame`).
FIT_METRICS = (
    "tests", "test_length", "clock_cycles", "wall_s", "max_rss_kb",
)


def _per_circuit_means(
    frame: Frame, metric: str
) -> list[tuple[str, dict[str, float], float]]:
    """(circuit, sizes, mean metric) per circuit with data and known size."""
    out: list[tuple[str, dict[str, float], float]] = []
    for (circuit,), group in sorted(frame.group_by("circuit").items()):
        values = group.numeric(metric)
        if not values:
            continue
        sizes = {
            key: group.column(key)[0]
            for key in SIZE_KEYS
            if isinstance(group.column(key)[0], (int, float))
        }
        if not sizes:
            continue
        out.append((circuit, sizes, sum(values) / len(values)))
    return out


def _stage_metric_names(frame: Frame) -> list[str]:
    names: set[str] = set()
    for stages in frame.column("stage_seconds"):
        if isinstance(stages, dict):
            names.update(stages)
    return sorted(names)


def _with_stage_columns(frame: Frame) -> tuple[Frame, list[str]]:
    """Explode the ``stage_seconds`` dict column into ``stage.<name>``."""
    stage_names = _stage_metric_names(frame)
    if not stage_names:
        return frame, []
    rows = frame.rows()
    for row in rows:
        stages = row.get("stage_seconds")
        for name in stage_names:
            row[f"stage.{name}"] = (
                stages.get(name) if isinstance(stages, dict) else None
            )
    columns = frame.names + tuple(f"stage.{name}" for name in stage_names)
    return Frame.from_rows(rows, names=columns), \
        [f"stage.{name}" for name in stage_names]


def scaling_fits(
    frame: Frame,
    metrics: Sequence[str] | None = None,
    sizes: Sequence[str] = SIZE_KEYS,
    min_points: int = 3,
) -> list[ScalingFit]:
    """Fit every (metric, size-axis) pair with at least ``min_points``.

    ``frame`` is a :func:`circuit_frame`.  Per-circuit metric values are
    averaged across records first, so a circuit measured 50 times does not
    outweigh one measured once.  Results are sorted by metric then size
    for deterministic rendering.
    """
    frame, stage_columns = _with_stage_columns(frame)
    if metrics is None:
        metrics = tuple(FIT_METRICS) + tuple(stage_columns)
    fits: list[ScalingFit] = []
    for metric in metrics:
        if metric not in frame.names:
            continue
        per_circuit = _per_circuit_means(frame, metric)
        for size in sizes:
            points = sorted(
                (circuit, sized[size], mean)
                for circuit, sized, mean in per_circuit
                if size in sized
            )
            points.sort(key=lambda p: (p[1], p[0]))
            if len(points) < min_points:
                continue
            xs = [x for _, x, _ in points]
            ys = [y for _, _, y in points]
            fit = best_fit(xs, ys)
            if fit is None:
                continue
            fits.append(ScalingFit(metric, size, fit, tuple(points)))
    fits.sort(key=lambda f: (f.metric, f.size))
    return fits


# ------------------------------------------------------- table rendering


def _markdown_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) \
        -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


def _latex_escape(text: str) -> str:
    out = text
    for char, escaped in (
        ("\\", r"\textbackslash{}"), ("&", r"\&"), ("%", r"\%"),
        ("_", r"\_"), ("#", r"\#"), ("$", r"\$"), ("^", r"\^{}"),
    ):
        out = out.replace(char, escaped)
    return out


def _latex_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[str]],
    caption: str,
    label: str,
) -> str:
    spec = "l" + "r" * (len(headers) - 1)
    lines = [
        r"\begin{table}[htbp]",
        r"  \centering",
        rf"  \caption{{{_latex_escape(caption)}}}",
        rf"  \label{{{label}}}",
        rf"  \begin{{tabular}}{{{spec}}}",
        r"    \hline",
        "    " + " & ".join(_latex_escape(h) for h in headers) + r" \\",
        r"    \hline",
    ]
    lines += [
        "    " + " & ".join(_latex_escape(cell) for cell in row) + r" \\"
        for row in rows
    ]
    lines += [r"    \hline", r"  \end{tabular}", r"\end{table}"]
    return "\n".join(lines)


def _fit_rows(fits: Sequence[ScalingFit]) -> list[list[str]]:
    return [
        [
            f.metric,
            f.size,
            f.fit.model,
            f.fit.formula(f.metric, f.size),
            f"{f.fit.r2:.4f}",
            str(f.fit.n),
        ]
        for f in fits
    ]


_FIT_HEADERS = ("metric", "size axis", "model", "fit", "R²", "circuits")


def _residual_fits(fits: Sequence[ScalingFit]) -> list[ScalingFit]:
    """One fit per metric — the size axis with the highest R²."""
    chosen: dict[str, ScalingFit] = {}
    for fit in fits:
        held = chosen.get(fit.metric)
        if held is None or fit.fit.r2 > held.fit.r2:
            chosen[fit.metric] = fit
    return [chosen[metric] for metric in sorted(chosen)]


def render_fits_markdown(
    fits: Sequence[ScalingFit], command: str = ""
) -> str:
    """Deterministic markdown: the fit summary plus residual tables."""
    title = f"## Scaling fits{f' — `{command}`' if command else ''}"
    if not fits:
        return f"{title}\n\nNo fit has enough per-circuit data (≥ 3 circuits)."
    parts = [title, "", _markdown_table(_FIT_HEADERS, _fit_rows(fits))]
    for fit in _residual_fits(fits):
        parts += [
            "",
            f"### `{fit.metric}` vs `{fit.size}` "
            f"({fit.fit.formula(fit.metric, fit.size)}, R²={fit.fit.r2:.4f})",
            "",
            _markdown_table(
                ("circuit", fit.size, fit.metric, "fitted", "residual"),
                [
                    [
                        circuit,
                        f"{x:g}",
                        f"{y:.4g}",
                        f"{fit.fit.predict(x):.4g}",
                        f"{residual:+.1%}",
                    ]
                    for (circuit, x, y), (_, residual) in zip(
                        fit.points, fit.residuals
                    )
                ],
            ),
        ]
    return "\n".join(parts)


def render_fits_latex(fits: Sequence[ScalingFit], command: str = "") -> str:
    """The same tables as LaTeX (plain ``tabular``, no package deps)."""
    suffix = f" for {command}" if command else ""
    if not fits:
        return f"% no scaling fits{suffix}: not enough per-circuit data"
    parts = [
        _latex_table(
            _FIT_HEADERS,
            _fit_rows(fits),
            f"Asymptotic scaling fits{suffix}",
            f"tab:scaling-{command or 'all'}",
        )
    ]
    for fit in _residual_fits(fits):
        parts.append(
            _latex_table(
                ("circuit", fit.size, fit.metric, "fitted", "residual"),
                [
                    [
                        circuit,
                        f"{x:g}",
                        f"{y:.4g}",
                        f"{fit.fit.predict(x):.4g}",
                        f"{100.0 * residual:+.1f}%",
                    ]
                    for (circuit, x, y), (_, residual) in zip(
                        fit.points, fit.residuals
                    )
                ],
                f"Per-circuit residuals of {fit.metric} vs {fit.size}{suffix}",
                f"tab:residuals-{command or 'all'}-{fit.metric}",
            )
        )
    return "\n\n".join(parts)


def tables_payload(
    records: Sequence[Mapping[str, Any]],
    commands: Sequence[str] | None = None,
) -> dict[str, Any]:
    """The machine-readable ``tables`` output, grouped per command."""
    frame = circuit_frame(records)
    if commands is None:
        commands = sorted(
            {str(c) for c in frame.column("command")} if len(frame) else set()
        )
    blocks: dict[str, Any] = {}
    for command in commands:
        selected = frame.where(command=command)
        fits = scaling_fits(selected)
        blocks[command] = {
            "rows": len(selected),
            "circuits": sorted(set(selected.column("circuit"))),
            "fits": [fit.to_dict() for fit in fits],
        }
    return {
        "schema": ANALYTICS_SCHEMA,
        "n_records": len(records),
        "commands": blocks,
    }


def validate_tables_payload(payload: Any) -> list[str]:
    """Schema-check a ``tables --format json`` payload (empty = valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    if payload.get("schema") != ANALYTICS_SCHEMA:
        problems.append(
            f"schema is {payload.get('schema')!r}, expected "
            f"{ANALYTICS_SCHEMA!r}"
        )
    if not isinstance(payload.get("n_records"), int):
        problems.append("n_records missing or non-integer")
    commands = payload.get("commands")
    if not isinstance(commands, dict):
        return problems + ["commands missing or not an object"]
    for command, block in commands.items():
        where = f"commands[{command!r}]"
        if not isinstance(block, dict):
            problems.append(f"{where}: not an object")
            continue
        for fit in block.get("fits", ()):
            model = fit.get("fit", {}).get("model") \
                if isinstance(fit, dict) else None
            if model not in ("power", "linear"):
                problems.append(f"{where}: fit model {model!r}")
                continue
            inner = fit["fit"]
            for key in ("coeff", "exponent", "r2"):
                value = inner.get(key)
                if not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    problems.append(f"{where}: fit.{key} not finite")
            if inner.get("r2", 0) > 1.0 + 1e-9:
                problems.append(f"{where}: R² above 1")
            if not isinstance(inner.get("n"), int) or inner["n"] < 2:
                problems.append(f"{where}: fit over fewer than 2 points")
            points = fit.get("points")
            if not isinstance(points, list) or len(points) != inner.get("n"):
                problems.append(f"{where}: points do not match fit.n")
    return problems


# -------------------------------------------------------------------- diff


def resolve_record(
    records: Sequence[Mapping[str, Any]], selector: str
) -> tuple[int, dict[str, Any]]:
    """Find one record by index, record id, git SHA, or args hash.

    Selectors, tried in order:

    * ``last`` / ``prev`` — the newest / second-newest record;
    * ``@N`` — ledger position (negative from the end);
    * a bare integer — ledger position too, but only when in range: an
      out-of-range one falls through to the prefix match, since an
      all-digit hex prefix reads as an integer;
    * otherwise a hex prefix matched against record ids, then git SHAs,
      then args hashes — the *newest* matching record wins, so
      ``diff <old-sha> <new-sha>`` compares each revision's latest run.
    """
    if not records:
        raise ValueError("the ledger is empty")
    text = selector.strip()
    alias = {"last": -1, "prev": -2}.get(text.lower())
    positional = alias is not None or text.startswith("@")
    body = str(alias) if alias is not None else text.removeprefix("@")
    try:
        index = int(body)
    except ValueError:
        index = None
    if index is not None:
        position = index if index >= 0 else len(records) + index
        if 0 <= position < len(records):
            return position, dict(records[position])
        if positional:
            raise ValueError(
                f"index {selector!r} out of range for "
                f"{len(records)} record(s)"
            )
    for field in ("id", "git_sha", "args_hash"):
        for position in range(len(records) - 1, -1, -1):
            record = records[position]
            value = record_id(record) if field == "id" \
                else str(record.get(field, ""))
            if value.startswith(text):
                return position, dict(record)
    raise ValueError(
        f"no record matches {selector!r} (tried index, record id, "
        "git SHA, and args hash)"
    )


@dataclass(frozen=True)
class Delta:
    """One named before/after pair."""

    name: str
    base: float
    current: float

    @property
    def delta(self) -> float:
        return self.current - self.base


def attribute_deltas(
    base: Mapping[str, float], current: Mapping[str, float]
) -> list[Delta]:
    """Per-name deltas between two numeric mappings, largest first.

    Missing names count as zero on their side, so a stage that appeared
    or vanished is attributed at full weight.  This is the attribution
    primitive shared by ``diff`` and the ``regress`` gate's explanations.
    """
    names = sorted(set(base) | set(current))
    deltas = [
        Delta(name, float(base.get(name, 0.0)), float(current.get(name, 0.0)))
        for name in names
    ]
    deltas = [d for d in deltas if d.base or d.current]
    deltas.sort(key=lambda d: (-abs(d.delta), d.name))
    return deltas


def render_attribution(
    deltas: Sequence[Delta], *, unit: str = "s", top: int = 3
) -> str:
    """``"faultsim +0.320s (79%), uio +0.085s (21%)"`` — share of |Δ|."""
    total = sum(abs(d.delta) for d in deltas)
    parts = []
    for delta in deltas[:top]:
        share = 100.0 * abs(delta.delta) / total if total else 0.0
        parts.append(f"{delta.name} {delta.delta:+.3f}{unit} ({share:.0f}%)")
    return ", ".join(parts)


def _numeric_metrics(record: Mapping[str, Any]) -> dict[str, float]:
    """Flatten a record's metrics block to ``name`` → number.

    Counter/gauge payloads contribute their ``value``; histogram payloads
    contribute ``<name>.count`` and ``<name>.sum``.
    """
    out: dict[str, float] = {}
    metrics = record.get("metrics")
    if not isinstance(metrics, dict):
        return out
    for name, payload in metrics.items():
        if isinstance(payload, (int, float)) and not isinstance(payload, bool):
            out[str(name)] = float(payload)
        elif isinstance(payload, dict):
            value = payload.get("value")
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[str(name)] = float(value)
                continue
            for key in ("count", "sum"):
                value = payload.get(key)
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    out[f"{name}.{key}"] = float(value)
    return out


def flatten(prefix: str, value: Any, into: dict[str, Any]) -> None:
    """Store the leaves of nested dict ``value`` in ``into`` under dotted
    keys (``prefix.key.subkey``), in sorted key order."""
    if isinstance(value, dict):
        for key in sorted(value):
            flatten(f"{prefix}.{key}" if prefix else str(key), value[key], into)
    else:
        into[prefix] = value


@dataclass
class RunDiff:
    """Everything that changed between two ledger records."""

    base_index: int
    other_index: int
    base: dict[str, Any]
    other: dict[str, Any]
    stages: list[Delta]
    metrics: list[Delta]
    results: list[tuple[str, Any, Any]]
    resources: list[Delta]

    @property
    def base_id(self) -> str:
        return record_id(self.base)

    @property
    def other_id(self) -> str:
        return record_id(self.other)

    @property
    def wall(self) -> Delta:
        return Delta(
            "wall_s",
            float(self.base.get("wall_s", 0.0) or 0.0),
            float(self.other.get("wall_s", 0.0) or 0.0),
        )


def diff_records(
    base: Mapping[str, Any],
    other: Mapping[str, Any],
    base_index: int = -1,
    other_index: int = -1,
) -> RunDiff:
    """Attribute the differences between two records.

    Stage and metric deltas come out largest-magnitude first
    (:func:`attribute_deltas`); result deltas are the flattened
    per-circuit fields whose values differ, sorted by path.
    """
    base_flat: dict[str, Any] = {}
    other_flat: dict[str, Any] = {}
    flatten("", base.get("results", {}), base_flat)
    flatten("", other.get("results", {}), other_flat)
    results = [
        (key, base_flat.get(key, "<absent>"), other_flat.get(key, "<absent>"))
        for key in sorted(set(base_flat) | set(other_flat))
        if base_flat.get(key, "<absent>") != other_flat.get(key, "<absent>")
    ]
    base_resources = {
        key: value
        for key in ("cpu_user_s", "cpu_system_s", "max_rss_kb")
        if (value := _resource(base, key)) is not None
    }
    other_resources = {
        key: value
        for key in ("cpu_user_s", "cpu_system_s", "max_rss_kb")
        if (value := _resource(other, key)) is not None
    }
    return RunDiff(
        base_index=base_index,
        other_index=other_index,
        base=dict(base),
        other=dict(other),
        stages=attribute_deltas(_stage_seconds(base), _stage_seconds(other)),
        metrics=attribute_deltas(
            _numeric_metrics(base), _numeric_metrics(other)
        ),
        results=results,
        resources=attribute_deltas(base_resources, other_resources),
    )


def render_diff(diff: RunDiff, *, top_metrics: int = 10) -> str:
    """Deterministic fixed-width rendering of one diff."""
    base, other = diff.base, diff.other
    wall = diff.wall

    def pair(key: str) -> str:
        return f"{base.get(key, '?')} -> {other.get(key, '?')}"

    lines = [
        f"diff {diff.base_id} -> {diff.other_id}",
        f"  command    {pair('command')}",
        f"  when       {pair('ts')}",
        f"  git sha    {str(base.get('git_sha', '?'))[:12]} -> "
        f"{str(other.get('git_sha', '?'))[:12]}",
        f"  args hash  {pair('args_hash')}",
        f"  jobs       {pair('jobs')}",
        f"  wall       {wall.base:.3f}s -> {wall.current:.3f}s "
        f"({wall.delta:+.3f}s)",
    ]
    if diff.stages:
        lines.append(f"  stage attribution (wall {wall.delta:+.3f}s):")
        total = sum(abs(d.delta) for d in diff.stages)
        for delta in diff.stages:
            share = 100.0 * abs(delta.delta) / total if total else 0.0
            lines.append(
                f"    {delta.name:<16} {delta.base:>9.3f}s -> "
                f"{delta.current:>9.3f}s  {delta.delta:+9.3f}s ({share:.0f}%)"
            )
    changed_metrics = [d for d in diff.metrics if d.delta]
    if changed_metrics:
        shown = changed_metrics[:top_metrics]
        lines.append(
            f"  metrics ({len(shown)} of {len(changed_metrics)} changed):"
        )
        for delta in shown:
            lines.append(
                f"    {delta.name:<32} {delta.base:>12g} -> "
                f"{delta.current:>12g}  ({delta.delta:+g})"
            )
    if diff.results:
        lines.append(f"  results ({len(diff.results)} changed):")
        for path, left, right in diff.results:
            lines.append(f"    {path:<32} {left} -> {right}")
    else:
        lines.append("  results    identical")
    cache_base = base.get("cache", {}) or {}
    cache_other = other.get("cache", {}) or {}
    lines.append(
        f"  cache      {cache_base.get('hits', 0)}h/"
        f"{cache_base.get('misses', 0)}m -> "
        f"{cache_other.get('hits', 0)}h/{cache_other.get('misses', 0)}m"
    )
    for delta in diff.resources:
        unit = "KiB" if delta.name == "max_rss_kb" else "s"
        lines.append(
            f"  {delta.name:<10} {delta.base:g}{unit} -> "
            f"{delta.current:g}{unit} ({delta.delta:+g}{unit})"
        )
    return "\n".join(lines)


def diff_payload(diff: RunDiff) -> dict[str, Any]:
    """Machine-readable diff (``diff --format json``)."""

    def dump(deltas: Sequence[Delta]) -> list[dict[str, Any]]:
        return [
            {
                "name": d.name,
                "base": round(d.base, 10),
                "current": round(d.current, 10),
                "delta": round(d.delta, 10),
            }
            for d in deltas
        ]

    return {
        "schema": DIFF_SCHEMA,
        "base": {
            "index": diff.base_index,
            "id": diff.base_id,
            "ts": diff.base.get("ts", ""),
            "git_sha": diff.base.get("git_sha", ""),
            "command": diff.base.get("command", ""),
            "args_hash": diff.base.get("args_hash", ""),
        },
        "other": {
            "index": diff.other_index,
            "id": diff.other_id,
            "ts": diff.other.get("ts", ""),
            "git_sha": diff.other.get("git_sha", ""),
            "command": diff.other.get("command", ""),
            "args_hash": diff.other.get("args_hash", ""),
        },
        "wall": dump([diff.wall])[0],
        "stages": dump(diff.stages),
        "metrics": dump([d for d in diff.metrics if d.delta]),
        "results": [
            {"path": path, "base": left, "current": right}
            for path, left, right in diff.results
        ],
        "resources": dump(diff.resources),
    }


def validate_diff_payload(payload: Any) -> list[str]:
    """Schema-check a ``diff --format json`` payload (empty = valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    if payload.get("schema") != DIFF_SCHEMA:
        problems.append(
            f"schema is {payload.get('schema')!r}, expected {DIFF_SCHEMA!r}"
        )
    for side in ("base", "other"):
        block = payload.get(side)
        if not isinstance(block, dict) or not isinstance(
            block.get("id"), str
        ):
            problems.append(f"{side} block missing or lacks an id")
    wall = payload.get("wall")
    if not isinstance(wall, dict) or not all(
        isinstance(wall.get(k), (int, float))
        for k in ("base", "current", "delta")
    ):
        problems.append("wall block missing or non-numeric")
    for section in ("stages", "metrics", "resources"):
        entries = payload.get(section)
        if not isinstance(entries, list):
            problems.append(f"{section} is not a list")
            continue
        for entry in entries:
            if not isinstance(entry, dict) or not all(
                isinstance(entry.get(k), (int, float))
                for k in ("base", "current", "delta")
            ):
                problems.append(f"{section} entry malformed")
                break
            if abs(
                (entry["current"] - entry["base"]) - entry["delta"]
            ) > 1e-6:
                problems.append(f"{section} delta inconsistent")
                break
    if not isinstance(payload.get("results"), list):
        problems.append("results is not a list")
    return problems


# --------------------------------------------------------------- anomalies


@dataclass(frozen=True)
class Anomaly:
    """One flagged outlier: a record whose field strays from its history."""

    index: int
    id: str
    ts: str
    command: str
    args_hash: str
    field: str
    value: float
    median: float
    z: float

    def render(self) -> str:
        return (
            f"{self.command} {self.ts} [{self.id}]: {self.field} "
            f"{self.value:.3f} vs median {self.median:.3f} (z={self.z:+.1f})"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "id": self.id,
            "ts": self.ts,
            "command": self.command,
            "args_hash": self.args_hash,
            "field": self.field,
            "value": round(self.value, 10),
            "median": round(self.median, 10),
            "z": round(self.z, 10),
        }


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def robust_z_scores(values: Sequence[float]) -> list[float]:
    """MAD-based robust z-scores (Iglewicz–Hoaglin modified z).

    ``z = 0.6745·(x − median) / MAD``.  A zero MAD (over half the history
    is identical) gets a floor of 1% of |median| so a genuinely flat
    series never divides by zero yet a large spike still scores high;
    a series flat at exactly zero scores everything zero.
    """
    if not values:
        return []
    median = _median(values)
    mad = _median([abs(v - median) for v in values])
    if mad == 0.0:
        mad = 0.01 * abs(median)
    if mad == 0.0:
        return [0.0 for _ in values]
    return [_MAD_SCALE * (v - median) / mad for v in values]


def _anomaly_fields(record: Mapping[str, Any]) -> dict[str, float]:
    fields: dict[str, float] = {"wall_s": float(record.get("wall_s", 0.0)
                                                or 0.0)}
    for stage, seconds in _stage_seconds(record).items():
        fields[f"stage.{stage}"] = seconds
    rss = _resource(record, "max_rss_kb")
    if rss is not None:
        fields["max_rss_kb"] = rss
    user = _resource(record, "cpu_user_s")
    system = _resource(record, "cpu_system_s")
    if user is not None and system is not None:
        fields["cpu_s"] = user + system
    return fields


def detect_anomalies(
    records: Sequence[Mapping[str, Any]],
    threshold: float = ANOMALY_THRESHOLD,
    min_runs: int = 5,
) -> list[Anomaly]:
    """Outlier runs in each (command, args-hash) group's history.

    Only workloads with at least ``min_runs`` comparable records are
    scored — a robust location estimate over fewer runs is noise.  The
    result is sorted by descending |z| (ties broken by record order and
    field name) so the worst outliers lead.
    """
    groups: dict[tuple[str, str], list[int]] = {}
    for index, record in enumerate(records):
        key = (str(record.get("command", "")),
               str(record.get("args_hash", "")))
        groups.setdefault(key, []).append(index)
    anomalies: list[Anomaly] = []
    for (command, args_hash), indices in sorted(groups.items()):
        if len(indices) < min_runs:
            continue
        series: dict[str, list[tuple[int, float]]] = {}
        for index in indices:
            for field, value in _anomaly_fields(records[index]).items():
                series.setdefault(field, []).append((index, value))
        for field, pairs in sorted(series.items()):
            if len(pairs) < min_runs:
                continue
            scores = robust_z_scores([value for _, value in pairs])
            for (index, value), z in zip(pairs, scores):
                if abs(z) < threshold:
                    continue
                record = records[index]
                anomalies.append(
                    Anomaly(
                        index=index,
                        id=record_id(record),
                        ts=str(record.get("ts", "")),
                        command=command,
                        args_hash=args_hash,
                        field=field,
                        value=value,
                        median=_median([v for _, v in pairs]),
                        z=z,
                    )
                )
    anomalies.sort(key=lambda a: (-abs(a.z), a.index, a.field))
    return anomalies
