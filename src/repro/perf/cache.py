"""Content-addressed on-disk cache for structural ATPG runs.

An ATPG run (:func:`repro.perf.artifacts.cached_atpg`) is keyed by a stable
SHA-256 hash of *everything that determines it*: the netlist and state
table contents, the fault list, every relevant option, plus the kind's
algorithm version.  Changing the algorithm means bumping its entry in
:data:`ARTIFACT_VERSIONS`, which moves every affected run to a new key;
stale entries are ignored and can be swept with ``repro-fsatpg cache
clear``.  ATPG is the one stage cached: a hit skips seconds of search per
medium circuit, while everything grading computes (UIO tables, synthesis,
static analysis) costs less to recompute than to look up.

The cache lives under ``~/.cache/repro-fsatpg`` by default (respecting
``XDG_CACHE_HOME``) and can be redirected with the ``REPRO_CACHE_DIR``
environment variable or ``atpg --cache-dir``.  Writes are atomic
(temp file + ``os.replace``), so concurrent processes can share one cache
directory safely; a corrupt or unreadable entry is treated as a miss and
removed.

Nothing in the library touches the disk unless a cache is *activated*
(:func:`set_active_cache` / :func:`cache_enabled`); with no active cache
every lookup helper degrades to plain computation.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import pickle
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.errors import ReproError
from repro.obs.metrics import counter_add

__all__ = [
    "ARTIFACT_VERSIONS",
    "ArtifactCache",
    "CacheError",
    "active_cache",
    "artifact_key",
    "cache_enabled",
    "default_cache_dir",
    "set_active_cache",
    "stable_hash",
]


class CacheError(ReproError):
    """The artifact cache was driven with inconsistent inputs."""


#: Per-kind algorithm versions.  Bump a value whenever the corresponding
#: computation changes meaning, so old on-disk entries can never be returned
#: for the new algorithm.
ARTIFACT_VERSIONS: dict[str, int] = {
    # 2: AtpgRun verdicts carry search-forensics traces (aborted and
    # hardest-N targets); entries stored by version 1 lack them.
    # 3: AtpgRun has no ``algorithm`` field and search events no
    # ``j_frontier``; PODEM is the only search.
    "atpg": 3,
}

#: On-disk layout version; bump to orphan every existing entry at once.
CACHE_FORMAT = "v1"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro-fsatpg``, else
    ``~/.cache/repro-fsatpg``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-fsatpg"


# --------------------------------------------------------------------- keys


def _feed(hasher: "hashlib._Hash", value: Any) -> None:
    """Feed one value into ``hasher`` with an unambiguous type prefix."""
    if value is None:
        hasher.update(b"N;")
    elif isinstance(value, bool):
        hasher.update(b"b1;" if value else b"b0;")
    elif isinstance(value, int):
        data = str(value).encode()
        hasher.update(b"i%d:%s;" % (len(data), data))
    elif isinstance(value, float):
        data = value.hex().encode()
        hasher.update(b"f%d:%s;" % (len(data), data))
    elif isinstance(value, str):
        data = value.encode()
        hasher.update(b"s%d:%s;" % (len(data), data))
    elif isinstance(value, bytes):
        hasher.update(b"y%d:" % len(value))
        hasher.update(value)
        hasher.update(b";")
    elif isinstance(value, enum.Enum):
        _feed(hasher, f"{type(value).__name__}.{value.name}")
    elif isinstance(value, (tuple, list)):
        hasher.update(b"t%d:" % len(value))
        for item in value:
            _feed(hasher, item)
        hasher.update(b";")
    elif isinstance(value, (set, frozenset)):
        hasher.update(b"S%d:" % len(value))
        for item in sorted(value, key=repr):
            _feed(hasher, item)
        hasher.update(b";")
    elif isinstance(value, dict):
        hasher.update(b"d%d:" % len(value))
        for key in sorted(value, key=repr):
            _feed(hasher, key)
            _feed(hasher, value[key])
        hasher.update(b";")
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        hasher.update(b"D:")
        _feed(hasher, type(value).__qualname__)
        for field in dataclasses.fields(value):
            _feed(hasher, field.name)
            _feed(hasher, getattr(value, field.name))
        hasher.update(b";")
    elif hasattr(value, "tobytes") and hasattr(value, "shape"):  # numpy array
        hasher.update(b"a:")
        _feed(hasher, str(getattr(value, "dtype", "")))
        _feed(hasher, tuple(int(n) for n in value.shape))
        hasher.update(value.tobytes())
        hasher.update(b";")
    else:
        raise CacheError(
            f"cannot hash value of type {type(value).__name__!r} into a cache key"
        )


def stable_hash(*parts: Any) -> str:
    """Deterministic SHA-256 hex digest of structured values.

    Supports None, bool, int, float, str, bytes, enums, (frozen)sets, dicts,
    tuples/lists, dataclasses, and numpy arrays, nested arbitrarily.  The
    encoding is type-prefixed and length-delimited, so distinct structures
    never collide by concatenation.
    """
    hasher = hashlib.sha256()
    for part in parts:
        _feed(hasher, part)
    return hasher.hexdigest()


def artifact_key(kind: str, *parts: Any) -> str:
    """Cache key for one artifact: content hash + the kind's algorithm version."""
    try:
        version = ARTIFACT_VERSIONS[kind]
    except KeyError:
        raise CacheError(
            f"unknown artifact kind {kind!r}; known: {sorted(ARTIFACT_VERSIONS)}"
        ) from None
    return stable_hash(kind, version, parts)


# -------------------------------------------------------------------- store


class ArtifactCache:
    """Pickle-backed content-addressed store with hit/miss accounting."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root).expanduser() if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    def _path(self, kind: str, key: str) -> Path:
        return self.root / CACHE_FORMAT / kind / key[:2] / f"{key}.pkl"

    def get(self, kind: str, key: str) -> Any | None:
        """The stored artifact, or ``None`` on a miss (also counts it)."""
        path = self._path(kind, key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            counter_add("cache.miss")
            counter_add(f"cache.miss.{kind}")
            return None
        except Exception:
            # Corrupt / stale / unreadable entry: drop it and treat as a miss.
            # Damaged pickles raise no one type: UnpicklingError, EOFError,
            # ValueError, TypeError, OverflowError, AttributeError and
            # MemoryError all occur, and a stale class may raise anything.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            counter_add("cache.miss")
            counter_add(f"cache.miss.{kind}")
            return None
        self.hits += 1
        counter_add("cache.hit")
        counter_add(f"cache.hit.{kind}")
        return value

    def put(self, kind: str, key: str, value: Any) -> None:
        """Store an artifact atomically (safe under concurrent writers)."""
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with open(temp, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp, path)
        except OSError:
            # A read-only or full cache directory must never fail the
            # computation it was meant to accelerate.
            try:
                temp.unlink()
            except OSError:
                pass

    # ----------------------------------------------------------- management

    def info(self) -> dict:
        """Entry counts and byte totals, per artifact kind."""
        kinds: dict[str, dict[str, int]] = {}
        base = self.root / CACHE_FORMAT
        total_entries = 0
        total_bytes = 0
        if base.is_dir():
            for kind_dir in sorted(base.iterdir()):
                if not kind_dir.is_dir():
                    continue
                entries = 0
                size = 0
                for path in kind_dir.rglob("*.pkl"):
                    entries += 1
                    try:
                        size += path.stat().st_size
                    except OSError:
                        pass
                kinds[kind_dir.name] = {"entries": entries, "bytes": size}
                total_entries += entries
                total_bytes += size
        lookups = self.hits + self.misses
        return {
            "root": str(self.root),
            "format": CACHE_FORMAT,
            "versions": dict(ARTIFACT_VERSIONS),
            "kinds": kinds,
            "entries": total_entries,
            "bytes": total_bytes,
            "session": {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (self.hits / lookups) if lookups else 0.0,
            },
        }

    def clear(self) -> int:
        """Remove every entry; returns the number of entries removed."""
        base = self.root / CACHE_FORMAT
        removed = 0
        if base.is_dir():
            removed = sum(1 for _ in base.rglob("*.pkl"))
            shutil.rmtree(base, ignore_errors=True)
        return removed

    def __repr__(self) -> str:
        return f"<ArtifactCache {str(self.root)!r} ({self.hits}h/{self.misses}m)>"


# ------------------------------------------------------------ active cache

_ACTIVE: ArtifactCache | None = None


def active_cache() -> ArtifactCache | None:
    """The process-wide cache, or ``None`` when caching is disabled."""
    return _ACTIVE


def set_active_cache(cache: ArtifactCache | None) -> ArtifactCache | None:
    """Install (or remove, with ``None``) the process-wide cache.

    Returns the previously active cache so callers can restore it.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = cache
    return previous


@contextmanager
def cache_enabled(root: str | Path | None = None) -> Iterator[ArtifactCache]:
    """Activate an :class:`ArtifactCache` for the duration of a block."""
    cache = ArtifactCache(root)
    previous = set_active_cache(cache)
    try:
        yield cache
    finally:
        set_active_cache(previous)
