"""Parallel + cached execution engine for circuit sweeps.

Three pieces (see ``docs/performance.md``):

* :mod:`repro.perf.cache` — content-addressed on-disk artifact cache;
* :mod:`repro.perf.engine` — the sweep engine that grades every
  :class:`~repro.harness.experiments.CircuitStudy`, inline or across a
  process pool, with identical results for any ``jobs`` value;
* :mod:`repro.perf.bench` — the ``BENCH_perf.json`` benchmark harness.

The cache and key helpers are imported eagerly; the engine and bench are
loaded on first attribute access so that importing
:mod:`repro.harness.experiments` (which uses the cache wrappers) never
recurses into the engine (which uses :class:`StudyOptions`).
"""

from __future__ import annotations

from typing import Any

from repro.perf.artifacts import cached_scan_circuit, cached_uio_table
from repro.perf.cache import (
    ARTIFACT_VERSIONS,
    ArtifactCache,
    CacheError,
    active_cache,
    artifact_key,
    cache_enabled,
    default_cache_dir,
    set_active_cache,
    stable_hash,
)

__all__ = [
    "ARTIFACT_VERSIONS",
    "ArtifactCache",
    "CacheError",
    "active_cache",
    "artifact_key",
    "cache_enabled",
    "cached_scan_circuit",
    "cached_uio_table",
    "compute_studies",
    "default_cache_dir",
    "run_bench",
    "set_active_cache",
    "stable_hash",
]

_ENGINE_EXPORTS = {"compute_studies"}
_BENCH_EXPORTS = {"run_bench"}


def __getattr__(name: str) -> Any:
    if name in _ENGINE_EXPORTS:
        from repro.perf import engine

        return getattr(engine, name)
    if name in _BENCH_EXPORTS:
        from repro.perf import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
