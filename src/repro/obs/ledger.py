"""Append-only, schema-versioned run ledger (JSONL on disk).

Every ledgered CLI invocation — the ``tableN`` commands, ``all``,
``generate``, ``claims``, ``fuzz``, ``analyze`` and ``atpg`` — appends one
JSON record to ``<ledger dir>/ledger.jsonl``; ``bench`` writes its own
record there.  The directory defaults to
``~/.local/state/repro-fsatpg/ledger`` and is overridden by the
``REPRO_LEDGER_DIR`` environment variable (set it to an empty string, or
pass ``--no-ledger``, to disable recording entirely).

A record captures what the run *was* (command, semantic argument hash,
circuits, git SHA) and what it *did* (wall seconds, per-stage span seconds,
metrics snapshot, per-command results such as test counts and fault
coverage, cache traffic, decision-provenance summary).  Records never
contain host names, user names, or absolute paths.

Determinism contract: for a deterministic workload the record is
byte-identical across runs and across ``--jobs`` values after
:func:`normalized` strips the volatile fields (timestamp, git SHA, argv,
jobs, timings, cache traffic).  Scheduling-shaped metrics — per-chunk
fault-simulation counters whose values depend on how the sweep was cut —
are excluded at write time (:data:`SCHEDULING_METRICS`), so the ``metrics``
block itself is jobs-invariant.

Reading is forgiving: a corrupted or truncated line (e.g. from an
interrupted append) is skipped with a warning, never a crash — an
append-only log must stay readable after a partial write.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.obs.log import get_logger

__all__ = [
    "LEDGER_SCHEMA",
    "LEDGER_ENV",
    "LEDGER_FILENAME",
    "SCHEDULING_METRICS",
    "SCHEDULING_METRIC_PREFIXES",
    "ledger_dir",
    "ledger_enabled",
    "args_hash",
    "git_sha",
    "curated_metrics",
    "build_record",
    "append_record",
    "read_records",
    "prune_records",
    "normalized",
    "validate_record",
]

#: Schema tag stored in every record; bump on layout changes.
#:
#: * ``/1`` — initial layout (PR 5).
#: * ``/2`` — adds the required ``resources`` block (CPU user/system
#:   seconds and max-RSS KiB for the whole invocation, workers included).
LEDGER_SCHEMA = "repro-fsatpg-ledger/2"

LEDGER_ENV = "REPRO_LEDGER_DIR"
LEDGER_FILENAME = "ledger.jsonl"

#: Metric names whose values depend on how the parallel sweep was chunked
#: (one entry per fault chunk / compiled universe).  They stay available in
#: ``--metrics-out`` snapshots but are dropped from ledger records so the
#: ``metrics`` block is identical for serial and ``--jobs N`` runs.
SCHEDULING_METRICS: frozenset[str] = frozenset(
    {
        "faultsim.batches",
        "faultsim.batch_detected",
        "faultsim.compiled_calls",
        "faultsim.compiled_universes",
    }
)

#: Metric-name prefixes that are scheduling-shaped as a family: the pool
#: utilization telemetry (``pool.worker.<i>.busy_s``, ``pool.task_s``, ...)
#: only exists for ``--jobs N`` runs and its values depend on worker count
#: and dispatch order, so the whole namespace is dropped from records.
SCHEDULING_METRIC_PREFIXES: tuple[str, ...] = ("pool.",)

_LOG = get_logger("ledger")


def ledger_dir() -> Path | None:
    """The active ledger directory, or ``None`` when recording is disabled.

    ``REPRO_LEDGER_DIR`` overrides the default; an empty value disables the
    ledger (useful for hermetic scripts and CI steps that must not write
    outside the workspace).
    """
    value = os.environ.get(LEDGER_ENV)
    if value is not None:
        return Path(value).expanduser() if value.strip() else None
    return Path.home() / ".local" / "state" / "repro-fsatpg" / "ledger"


def ledger_enabled() -> bool:
    return ledger_dir() is not None


def args_hash(command: str, values: Mapping[str, Any]) -> str:
    """Stable hash of a run's *semantic* arguments.

    Callers pass only knobs that change results (circuit set, UIO/transfer
    bounds, fanin, ...) — never scheduling knobs like ``--jobs`` or
    ``--cache-dir`` — so serial and parallel runs of the same workload
    share a hash and ``history``/``regress`` can group them.
    """
    canonical = json.dumps(
        {"command": command, **{k: values[k] for k in sorted(values)}},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


_GIT_SHA: str | None = None


def git_sha() -> str:
    """The current checkout's HEAD SHA, cached per process.

    Falls back to the ``REPRO_GIT_SHA`` environment variable (CI images
    without a ``.git`` directory) and then to ``"unknown"`` — the ledger
    must keep working outside a repository.
    """
    global _GIT_SHA
    if _GIT_SHA is None:
        sha = os.environ.get("REPRO_GIT_SHA", "").strip()
        if not sha:
            try:
                sha = subprocess.run(
                    ["git", "rev-parse", "HEAD"],
                    capture_output=True,
                    text=True,
                    timeout=5,
                    check=False,
                ).stdout.strip()
            except (OSError, subprocess.SubprocessError):
                sha = ""
        _GIT_SHA = sha or "unknown"
    return _GIT_SHA


def curated_metrics(snapshot: Mapping[str, Any]) -> dict[str, Any]:
    """A metrics snapshot minus the scheduling-shaped names."""
    return {
        name: snapshot[name]
        for name in sorted(snapshot)
        if name not in SCHEDULING_METRICS
        and not name.startswith(SCHEDULING_METRIC_PREFIXES)
    }


def build_record(
    command: str,
    *,
    semantic_args: Mapping[str, Any],
    argv: Iterable[str] = (),
    circuits: Iterable[str] = (),
    jobs: int = 1,
    exit_code: int = 0,
    wall_s: float = 0.0,
    stage_seconds: Mapping[str, float] | None = None,
    metrics: Mapping[str, Any] | None = None,
    results: Mapping[str, Any] | None = None,
    provenance: Mapping[str, Any] | None = None,
    cache_hits: int = 0,
    cache_misses: int = 0,
    resources: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble one schema-conformant ledger record.

    ``resources`` is a :meth:`repro.obs.resources.ResourceUsage.to_dict`
    mapping for the invocation (the CLI samples a
    :class:`~repro.obs.resources.UsageProbe` spanning the command, which
    folds in worker-process deltas).  When omitted, the process's own
    cumulative usage is recorded so every record stays schema-valid.
    """
    if resources is None:
        from repro.obs.resources import process_usage

        resources = process_usage().to_dict()
    traffic = cache_hits + cache_misses
    record: dict[str, Any] = {
        "schema": LEDGER_SCHEMA,
        "ts": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_sha": git_sha(),
        "command": command,
        "args_hash": args_hash(command, semantic_args),
        "argv": list(argv),
        "circuits": list(circuits),
        "jobs": int(jobs),
        "exit_code": int(exit_code),
        "wall_s": float(wall_s),
        "stage_seconds": {
            name: float(seconds)
            for name, seconds in sorted((stage_seconds or {}).items())
        },
        "cache": {
            "hits": int(cache_hits),
            "misses": int(cache_misses),
            "hit_rate": (cache_hits / traffic) if traffic else 0.0,
        },
        "resources": {
            "cpu_user_s": float(resources.get("cpu_user_s", 0.0)),
            "cpu_system_s": float(resources.get("cpu_system_s", 0.0)),
            "max_rss_kb": int(resources.get("max_rss_kb", 0)),
        },
        "metrics": curated_metrics(metrics or {}),
        "results": dict(results or {}),
    }
    if provenance:
        record["provenance"] = dict(provenance)
    return record


def append_record(record: Mapping[str, Any],
                  directory: Path | None = None) -> Path | None:
    """Append one record to the ledger; returns the file written.

    A disabled ledger (or any I/O failure) returns ``None`` — recording
    must never break the run that produced the data.
    """
    root = directory if directory is not None else ledger_dir()
    if root is None:
        return None
    try:
        root.mkdir(parents=True, exist_ok=True)
        path = root / LEDGER_FILENAME
        line = json.dumps(record, sort_keys=True, default=str)
        with open(path, "a") as handle:
            handle.write(line + "\n")
    except OSError as exc:
        _LOG.warning(f"could not append ledger record: {exc}")
        return None
    _LOG.debug("ledger record appended", command=record.get("command"),
               path=str(path))
    return path


def read_records(directory: Path | None = None) -> list[dict[str, Any]]:
    """Every parseable record, oldest first.

    Corrupted or truncated lines are skipped with a warning — an
    append-only log interrupted mid-write must stay readable.
    """
    root = directory if directory is not None else ledger_dir()
    if root is None:
        return []
    path = root / LEDGER_FILENAME
    if not path.exists():
        return []
    records: list[dict[str, Any]] = []
    try:
        text = path.read_text()
    except OSError as exc:
        _LOG.warning(f"could not read ledger: {exc}")
        return []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            _LOG.warning(f"skipping corrupt ledger line {number} in {path}")
            continue
        if not isinstance(record, dict):
            _LOG.warning(f"skipping non-object ledger line {number} in {path}")
            continue
        records.append(record)
    return records


def prune_records(
    keep: int, directory: Path | None = None
) -> dict[str, int] | None:
    """Rewrite the ledger keeping the newest ``keep`` records per circuit.

    Long-lived ledger directories grow without bound (one record per
    invocation, forever); pruning bounds them while preserving enough
    history per circuit for ``history``/``diff``/anomaly detection.  A
    record naming several circuits survives if it is among the newest
    ``keep`` for *any* of them; a record naming none (e.g. a failed run
    recorded before circuit resolution) is grouped under its command name
    instead.  Surviving lines are rewritten byte-for-byte (no re-
    serialization), corrupt lines are dropped and counted, and the rewrite
    is atomic (temp file + :func:`os.replace`) so a reader never sees a
    half-pruned log.

    Returns ``{"kept": ..., "pruned": ..., "corrupt": ...}``, or ``None``
    when the ledger is disabled or the file does not exist.
    """
    if keep < 1:
        raise ValueError(f"--keep must be >= 1, got {keep}")
    root = directory if directory is not None else ledger_dir()
    if root is None:
        return None
    path = root / LEDGER_FILENAME
    if not path.exists():
        return None
    try:
        text = path.read_text()
    except OSError as exc:
        _LOG.warning(f"could not read ledger for pruning: {exc}")
        return None
    parsed: list[tuple[str, dict[str, Any]]] = []
    corrupt = 0
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError:
            corrupt += 1
            continue
        if not isinstance(record, dict):
            corrupt += 1
            continue
        parsed.append((stripped, record))
    counts: dict[str, int] = {}
    keep_flags: list[bool] = []
    for _, record in reversed(parsed):
        circuits = record.get("circuits")
        groups = (
            [str(name) for name in circuits]
            if isinstance(circuits, list) and circuits
            else [f"command:{record.get('command', '?')}"]
        )
        keep_flags.append(any(counts.get(g, 0) < keep for g in groups))
        for group in groups:
            counts[group] = counts.get(group, 0) + 1
    keep_flags.reverse()
    survivors = [line for (line, _), kept in zip(parsed, keep_flags) if kept]
    temp = path.with_suffix(".jsonl.tmp")
    try:
        with open(temp, "w") as handle:
            for line in survivors:
                handle.write(line + "\n")
        os.replace(temp, path)
    except OSError as exc:
        _LOG.warning(f"could not rewrite ledger: {exc}")
        try:
            temp.unlink()
        except OSError:
            pass
        return None
    summary = {
        "kept": len(survivors),
        "pruned": len(parsed) - len(survivors),
        "corrupt": corrupt,
    }
    _LOG.debug("ledger pruned", **{k: str(v) for k, v in summary.items()})
    return summary


#: Fields stripped by :func:`normalized`: run identity and anything timing-
#: or scheduling-shaped.  ``argv`` and ``jobs`` go too — ``--jobs 2`` and a
#: serial run of the same workload must normalize identically.
_VOLATILE_FIELDS = (
    "ts", "git_sha", "argv", "jobs", "wall_s", "cache", "resources",
)


def normalized(record: Mapping[str, Any]) -> dict[str, Any]:
    """The determinism-comparable view of a record.

    Drops timestamps, SHA, argv, jobs, wall seconds, and cache traffic, and
    reduces ``stage_seconds`` to its sorted stage-name list (the *set* of
    stages executed is part of the contract; their durations are not).
    Two runs of the same workload — serial or ``--jobs N`` — must produce
    byte-identical JSON dumps of this view.
    """
    view = {
        key: value
        for key, value in record.items()
        if key not in _VOLATILE_FIELDS
    }
    view["stage_seconds"] = sorted(record.get("stage_seconds", {}))
    return view


def validate_record(record: Any) -> list[str]:
    """Schema-check one record; returns a list of problems (empty = valid)."""
    problems: list[str] = []
    if not isinstance(record, dict):
        return ["record is not a JSON object"]
    schema = record.get("schema")
    if schema != LEDGER_SCHEMA:
        problems.append(f"schema is {schema!r}, expected {LEDGER_SCHEMA!r}")
    for key, kinds in (
        ("ts", str),
        ("git_sha", str),
        ("command", str),
        ("args_hash", str),
        ("argv", list),
        ("circuits", list),
        ("jobs", int),
        ("exit_code", int),
        ("wall_s", (int, float)),
        ("stage_seconds", dict),
        ("cache", dict),
        ("resources", dict),
        ("metrics", dict),
        ("results", dict),
    ):
        if key not in record:
            problems.append(f"missing required field {key!r}")
        elif not isinstance(record[key], kinds):
            problems.append(
                f"field {key!r} has type {type(record[key]).__name__}"
            )
    stage_seconds = record.get("stage_seconds")
    if isinstance(stage_seconds, dict):
        for name, seconds in stage_seconds.items():
            if not isinstance(seconds, (int, float)) or seconds < 0:
                problems.append(f"stage_seconds[{name!r}] is not a duration")
    cache = record.get("cache")
    if isinstance(cache, dict):
        for key in ("hits", "misses", "hit_rate"):
            if not isinstance(cache.get(key), (int, float)):
                problems.append(f"cache.{key} missing or non-numeric")
    usage = record.get("resources")
    if isinstance(usage, dict):
        for key in ("cpu_user_s", "cpu_system_s", "max_rss_kb"):
            value = usage.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"resources.{key} missing or non-numeric")
    circuits = record.get("circuits")
    if isinstance(circuits, list):
        for item in circuits:
            if not isinstance(item, str):
                problems.append("circuits must be a list of names")
                break
    return problems
