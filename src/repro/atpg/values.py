"""The five-valued (0 / 1 / X / D / D') ATPG calculus (Roth 1966).

A structural test generator reasons about the *good* and the *faulty*
circuit at once.  Each line carries a composite value: ``D`` means "1 in
the good circuit, 0 in the faulty one", ``D'`` the opposite, ``0``/``1``
mean both circuits agree, and ``X`` means at least one of the two
components is still unknown.  Formally a composite value is a pair of
three-valued bits, and every gate evaluates componentwise — the good
component through the plain gate function, the faulty component through
the gate function with the stuck line forced.

This module is pure calculus: composite constants, the component
projections and the three-valued gate fold PODEM evaluates each rail
with.  Nothing here knows about faults or netlists beyond
:class:`~repro.gatelevel.netlist.GateType`.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import AtpgError
from repro.gatelevel.netlist import CONTROLLING_VALUE, GateType

__all__ = [
    "ZERO",
    "ONE",
    "UNKNOWN",
    "D",
    "D_BAR",
    "GOOD",
    "FAULTY",
    "X3",
    "from_components",
    "eval3",
]

#: Composite values.  ``ZERO``/``ONE`` double as plain bits on purpose so
#: ``value == bit`` comparisons read naturally.
ZERO = 0
ONE = 1
UNKNOWN = 2
D = 3
D_BAR = 4

#: Three-valued "unknown" used for the individual components.
X3 = 2

#: Component projections indexed by composite value: ``GOOD[D] == 1``,
#: ``FAULTY[D] == 0`` and so on; ``UNKNOWN`` projects to :data:`X3`.
GOOD = (0, 1, X3, 1, 0)
FAULTY = (0, 1, X3, 0, 1)


def from_components(good: int, faulty: int) -> int:
    """Composite value from a (good, faulty) pair of three-valued bits.

    Any unknown component collapses to :data:`UNKNOWN`: the five-valued
    domain cannot represent "good known, faulty unknown", and rounding up
    to X is the sound direction (the search only acts on fully-known
    values).
    """
    if good == X3 or faulty == X3:
        return UNKNOWN
    if good == faulty:
        return good
    return D if good == 1 else D_BAR


def _not3(value: int) -> int:
    return value if value == X3 else 1 - value


def eval3(kind: GateType, values: Sequence[int]) -> int:
    """Three-valued gate evaluation (0 / 1 / X3 in, same out).

    A controlling input decides the output even when siblings are
    unknown; this partial-evaluation behaviour is what makes forward
    implication useful on incomplete assignments.
    """
    if kind is GateType.CONST0:
        return 0
    if kind is GateType.NOT:
        return _not3(values[0])
    control = CONTROLLING_VALUE.get(kind)
    if control is None:  # pragma: no cover - INPUT is handled by the callers
        raise AtpgError(f"cannot evaluate gate of kind {kind}")
    if control in values:
        return control
    if X3 in values:
        return X3
    return 1 - control
