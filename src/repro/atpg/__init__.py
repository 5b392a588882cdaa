"""Structural gate-level ATPG: PODEM with proofs.

The functional generator (:mod:`repro.core`) derives tests from the state
table; this package closes the loop at the gate level.  It implements the
five-valued composite calculus (:mod:`repro.atpg.values`), PODEM with
SCOAP-guided backtrace (:mod:`repro.atpg.podem`), and an engine
(:mod:`repro.atpg.engine`) whose verdicts are machine-checked: test cubes
are replayed through the production fault simulator, untestability
claims carry bounded-search certificates and are cross-validated against
the static proofs of :mod:`repro.sca`.  One search answers "is this fault
testable?"; the D-algorithm, a second search for the same question that
returned the same verdicts on every circuit tried, was removed.
"""

from repro.atpg.engine import (
    ATPG_SCHEMA,
    AtpgRun,
    FaultVerdict,
    TopOffReport,
    generate_structural_tests,
    top_off,
)
from repro.atpg.model import FaultedCircuit, StateCodeConstraint
from repro.atpg.search import (
    ABORT_BACKTRACKS,
    ABORT_TIME,
    DEFAULT_BACKTRACK_LIMIT,
    STATUS_ABORTED,
    STATUS_TEST,
    STATUS_UNTESTABLE,
    SearchBudget,
    SearchOutcome,
)
from repro.atpg.podem import podem_search

__all__ = [
    "ABORT_BACKTRACKS",
    "ABORT_TIME",
    "ATPG_SCHEMA",
    "AtpgRun",
    "DEFAULT_BACKTRACK_LIMIT",
    "FaultVerdict",
    "FaultedCircuit",
    "STATUS_ABORTED",
    "STATUS_TEST",
    "STATUS_UNTESTABLE",
    "SearchBudget",
    "SearchOutcome",
    "StateCodeConstraint",
    "TopOffReport",
    "generate_structural_tests",
    "podem_search",
    "top_off",
]
