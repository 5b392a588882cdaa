"""Non-feedback bridging faults per the paper's three conditions.

The paper considers AND-type and OR-type bridging faults between every pair
of lines ``g1``, ``g2`` that satisfy:

1. ``g1`` and ``g2`` are outputs of multi-input gates;
2. ``g1`` and ``g2`` are inputs of different gates (no common consumer);
3. there is no combinational path from ``g1`` to ``g2`` or back (which
   makes the bridge non-feedback by construction).

Under an AND-type bridge both lines carry ``g1 AND g2`` as seen by their
fanouts; under an OR-type bridge, ``g1 OR g2``.

Two-level implementations expose many more such pairs than the multi-level
circuits the paper used, so :func:`enumerate_bridging_faults` optionally
caps the universe with a deterministic sample (documented in DESIGN.md).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

import numpy as np

from repro.errors import FaultSimulationError
from repro.gatelevel.netlist import CONTROLLING_VALUE, Netlist

__all__ = ["BridgeKind", "BridgingFault", "enumerate_bridging_faults"]


class BridgeKind(enum.Enum):
    AND = "and"
    OR = "or"


@dataclass(frozen=True, order=True)
class BridgingFault:
    """A short between ``line1`` and ``line2`` (``line1 < line2``)."""

    line1: int
    line2: int
    kind: BridgeKind

    def __post_init__(self) -> None:
        if self.line1 >= self.line2:
            raise FaultSimulationError("bridging lines must satisfy line1 < line2")

    def site(self) -> str:
        return f"bridge-{self.kind.value}(g{self.line1}, g{self.line2})"


def _candidate_lines(netlist: Netlist) -> list[int]:
    """Outputs of multi-input gates that feed at least one gate."""
    fanouts = netlist.fanouts()
    return [
        gate.index
        for gate in netlist.gates
        if gate.kind in CONTROLLING_VALUE
        and gate.n_fanins >= 2
        and fanouts[gate.index]
    ]


def _candidate_matrices(
    netlist: Netlist, candidates: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean ``candidates × candidates`` matrices of conditions 2 and 3.

    ``shared[i, j]``: candidates ``i`` and ``j`` feed a common gate;
    ``path[i, j]``: candidate ``i`` reaches candidate ``j``, read off the
    netlist's reachability bitset one byte per entry.  Candidates ascend
    and gate order is topological, so for ``i < j`` the only possible path
    between the two runs from ``i`` to ``j``.
    """
    m = len(candidates)
    position = {line: i for i, line in enumerate(candidates)}
    shared = np.zeros((m, m), dtype=bool)
    for gate in netlist.gates:
        fed = [position[f] for f in gate.fanins if f in position]
        if len(fed) > 1:
            shared[np.ix_(fed, fed)] = True
    lines = np.asarray(candidates, dtype=np.intp)
    # In little-endian bytes, bit ``j`` of a row is bit ``j % 8`` of byte
    # ``j // 8``.
    reach = netlist.reachability_matrix().astype("<u8", copy=False).view(np.uint8)
    entries = reach[np.ix_(lines, lines // 8)] >> (lines % 8).astype(np.uint8)
    return shared, (entries & 1).astype(bool)


def enumerate_bridging_faults(
    netlist: Netlist,
    limit: int | None = None,
    seed: int | str = 0,
) -> list[BridgingFault]:
    """All (or a deterministic sample of) paper-condition bridging faults.

    ``limit`` caps the number of *line pairs*; each kept pair contributes
    both an AND-type and an OR-type fault.  Sampling is reproducible from
    ``seed`` and independent of ``limit`` ordering.

    Qualifying pairs are the ``i < j`` entries of the candidate matrix
    that neither condition excludes, numbered in row-major order — the
    lexicographic order of ``(line1, line2)``.  A sample draws pair
    *numbers*: ``Random.sample`` chooses positions from the population's
    length alone, so sampling ``range(n_pairs)`` keeps exactly the pairs
    that sampling the list of pairs would.
    """
    candidates = _candidate_lines(netlist)
    shared, path = _candidate_matrices(netlist, candidates)
    qualifying = np.triu(~(shared | path), 1)
    numbers = np.flatnonzero(qualifying)
    if limit is not None and 0 <= limit < numbers.size:
        rng = random.Random(f"repro-bridging:{seed}")
        numbers = numbers[sorted(rng.sample(range(numbers.size), limit))]
    firsts, seconds = np.divmod(numbers, len(candidates))
    faults: list[BridgingFault] = []
    for first, second in zip(firsts.tolist(), seconds.tolist()):
        line1, line2 = candidates[first], candidates[second]
        faults.append(BridgingFault(line1, line2, BridgeKind.AND))
        faults.append(BridgingFault(line1, line2, BridgeKind.OR))
    return faults
