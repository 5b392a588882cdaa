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


def enumerate_bridging_faults(
    netlist: Netlist,
    limit: int | None = None,
    seed: int | str = 0,
) -> list[BridgingFault]:
    """All (or a deterministic sample of) paper-condition bridging faults.

    ``limit`` caps the number of *line pairs*; each kept pair contributes
    both an AND-type and an OR-type fault.  Sampling is reproducible from
    ``seed`` and independent of ``limit`` ordering.
    """
    candidates = _candidate_lines(netlist)
    fanouts = netlist.fanouts()
    consumer_sets = {line: frozenset(fanouts[line]) for line in candidates}
    reach = netlist.reachability_matrix()

    def reaches(src: int, dst: int) -> bool:
        return bool(
            (reach[src, dst // 64] >> np.uint64(dst % 64)) & np.uint64(1)
        )

    pairs: list[tuple[int, int]] = []
    for i, line1 in enumerate(candidates):
        set1 = consumer_sets[line1]
        for line2 in candidates[i + 1 :]:
            if set1 & consumer_sets[line2]:
                continue  # condition 2: a common consumer gate
            if reaches(line1, line2) or reaches(line2, line1):
                continue  # condition 3: a path between the lines
            pairs.append((line1, line2))
    if limit is not None and limit >= 0 and len(pairs) > limit:
        rng = random.Random(f"repro-bridging:{seed}")
        pairs = sorted(rng.sample(pairs, limit))
    faults: list[BridgingFault] = []
    for line1, line2 in pairs:
        faults.append(BridgingFault(line1, line2, BridgeKind.AND))
        faults.append(BridgingFault(line1, line2, BridgeKind.OR))
    return faults
