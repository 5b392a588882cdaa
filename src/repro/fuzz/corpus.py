"""Persistent failure corpus for the fuzzer.

Every failing (ideally shrunk) machine is written as a standalone KISS2
file next to a small JSON metadata record::

    <corpus>/
        coverage-chaining/
            a3f09b2c41d6e8f7.kiss
            a3f09b2c41d6e8f7.json
        sim-ppsfp-vs-interpreted/
            ...

The KISS file *is* the reproduction recipe — ``repro-fsatpg fuzz --corpus
<dir>`` replays every stored machine through its oracle before generating
anything new, so a once-found bug acts as a permanent regression test until
the files are deleted.  File names are content digests, which deduplicates
re-found failures for free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import FuzzError
from repro.fsm.kiss import parse_kiss, table_to_kiss, write_kiss
from repro.fsm.state_table import StateTable
from repro.perf.artifacts import state_table_parts
from repro.perf.cache import stable_hash

__all__ = ["CorpusEntry", "corpus_digest", "load_corpus", "save_failure"]


@dataclass(frozen=True)
class CorpusEntry:
    """One stored failure: the machine plus how it failed."""

    oracle: str
    digest: str
    table: StateTable
    metadata: dict[str, Any]

    @property
    def relative_path(self) -> str:
        """Corpus-root-relative KISS path (stable across machines/CI)."""
        return f"{self.oracle}/{self.digest}.kiss"


def corpus_digest(table: StateTable) -> str:
    """Content digest naming ``table``'s corpus files (name-independent)."""
    return stable_hash(state_table_parts(table))[:16]


def save_failure(
    root: str | Path,
    oracle: str,
    table: StateTable,
    detail: str,
    origin: str = "generated",
    shrunk_from: str | None = None,
) -> CorpusEntry:
    """Persist one failing machine under ``root``; returns its entry.

    Existing files for the same machine/oracle pair are overwritten (the
    digest is content-derived, so this only refreshes the metadata).
    """
    if table.n_inputs < 1 or table.n_outputs < 1:
        raise FuzzError(
            "corpus machines need at least one input and one output bit "
            "(KISS2 rows cannot express zero-width cubes)"
        )
    if not oracle or "/" in oracle or oracle.startswith("."):
        raise FuzzError(f"unusable oracle name for corpus path: {oracle!r}")
    digest = corpus_digest(table)
    directory = Path(root) / oracle
    directory.mkdir(parents=True, exist_ok=True)
    metadata: dict[str, Any] = {
        "detail": detail,
        "machine": table.name,
        "n_inputs": table.n_inputs,
        "n_outputs": table.n_outputs,
        "n_states": table.n_states,
        "oracle": oracle,
        "origin": origin,
        "shrunk_from": shrunk_from,
    }
    (directory / f"{digest}.kiss").write_text(write_kiss(table_to_kiss(table)))
    (directory / f"{digest}.json").write_text(
        json.dumps(metadata, indent=2, sort_keys=True) + "\n"
    )
    return CorpusEntry(oracle, digest, table, metadata)


def load_corpus(root: str | Path) -> list[CorpusEntry]:
    """Every stored failure under ``root``, in deterministic order.

    A missing corpus directory is an empty corpus (first run); a corpus
    *file* that cannot be parsed is an error — silently skipping it would
    turn a regression guard into a no-op.
    """
    base = Path(root)
    if not base.exists():
        return []
    if not base.is_dir():
        raise FuzzError(f"corpus path {base} is not a directory")
    entries: list[CorpusEntry] = []
    for kiss_path in sorted(base.glob("*/*.kiss")):
        oracle = kiss_path.parent.name
        digest = kiss_path.stem
        try:
            machine = parse_kiss(kiss_path.read_text(), name=f"corpus-{digest}")
            table = machine.to_state_table()
        except Exception as exc:
            raise FuzzError(f"unreadable corpus entry {kiss_path}: {exc}") from exc
        metadata: dict[str, Any] = {}
        json_path = kiss_path.with_suffix(".json")
        if json_path.exists():
            try:
                metadata = json.loads(json_path.read_text())
            except json.JSONDecodeError as exc:
                raise FuzzError(
                    f"corrupt corpus metadata {json_path}: {exc}"
                ) from exc
        entries.append(CorpusEntry(oracle, digest, table, metadata))
    return entries
