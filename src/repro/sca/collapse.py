"""Collapsed stuck-at fault universe with class bookkeeping.

:func:`repro.gatelevel.stuck_at.collapse_stuck_at` produces the raw
fault → representative mapping; this module packages it as a
:class:`CollapsedUniverse` for the static analysis: the deterministic
representative list (exactly ``sorted(set(mapping.values()))``, the list
:func:`~repro.gatelevel.stuck_at.stuck_at_representatives` gives grading
without building the mapping), the inverse representative → class
mapping, and :meth:`CollapsedUniverse.expand` to reconstruct
full-universe verdicts from representative verdicts — bit-identically,
because structural equivalence means every member of a class is detected
by exactly the same tests.

Only *equivalence* shrinks the simulated universe.  Structural dominance
(fault A dominates B when every test for B also detects A — e.g. a region
stem's fault dominating its checkpoint faults) shares detection, not
equivalence, so dropping dominated faults would change per-fault verdict
tables; the fanout-free regions of :mod:`repro.sca.graph` give consumers
the raw material if they want dominance-guided ATPG ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

from repro.gatelevel.netlist import Netlist
from repro.gatelevel.stuck_at import (
    StuckAtFault,
    collapse_stuck_at,
    enumerate_stuck_at,
)

__all__ = ["CollapsedUniverse", "collapse_universe"]

#: The faults' total order, read once per fault instead of once per
#: comparison.
_SORT_KEY = attrgetter("sort_key")


@dataclass(frozen=True)
class CollapsedUniverse:
    """Equivalence-collapsed stuck-at universe of one netlist."""

    #: Every fault of the uncollapsed universe → its class representative.
    mapping: dict[StuckAtFault, StuckAtFault]

    @cached_property
    def representatives(self) -> tuple[StuckAtFault, ...]:
        """Deterministic simulation list — one fault per class."""
        return tuple(sorted(set(self.mapping.values()), key=_SORT_KEY))

    @cached_property
    def classes(self) -> dict[StuckAtFault, tuple[StuckAtFault, ...]]:
        """Representative → all members of its class (sorted)."""
        members: dict[StuckAtFault, list[StuckAtFault]] = {}
        for fault, rep in self.mapping.items():
            members.setdefault(rep, []).append(fault)
        return {
            rep: tuple(sorted(group, key=_SORT_KEY))
            for rep, group in members.items()
        }

    @property
    def n_faults(self) -> int:
        return len(self.mapping)

    @property
    def n_representatives(self) -> int:
        return len(self.representatives)

    @property
    def ratio(self) -> float:
        """Collapse ratio: uncollapsed size over collapsed size (>= 1)."""
        if not self.representatives:
            return 1.0
        return self.n_faults / self.n_representatives

    def expand(self, detected: set[StuckAtFault]) -> set[StuckAtFault]:
        """Full-universe verdicts from representative verdicts.

        A fault is detected iff its class representative is — equivalence
        means identical detecting-test sets, so this reconstruction is
        exact, not an approximation.
        """
        return {
            fault
            for fault, rep in self.mapping.items()
            if rep in detected
        }


def collapse_universe(
    netlist: Netlist, faults: list[StuckAtFault] | None = None
) -> CollapsedUniverse:
    """Collapse the stuck-at universe of ``netlist`` (or ``faults``)."""
    if faults is None:
        faults = enumerate_stuck_at(netlist)
    return CollapsedUniverse(collapse_stuck_at(netlist, faults))
