"""Cheap preflight hooks the library wires in front of expensive phases.

These helpers run only the cheap, ERROR-capable subset of the rule registry
and raise the caller's established :class:`~repro.errors.ReproError`
subclass on findings — so ``generate_tests`` keeps raising
``GenerationError`` and the fault simulator keeps raising
``FaultSimulationError``, but both now reject malformed inputs *before*
spending time on UIO search or fault batches.

The netlist preflight keeps its verdict with the netlist's other memos, so
simulation loops pay the structural sweep once, not per test.  The
netlist's mutators reset it, and a passing ``Netlist.check()``, whose
rules include the preflight's, records it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import LintError, ReproError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.fsm.kiss import KissMachine
    from repro.fsm.state_table import StateTable
    from repro.gatelevel.netlist import Netlist

__all__ = ["preflight_machine", "preflight_netlist", "forget_netlist"]


def preflight_machine(
    subject: "KissMachine | StateTable",
    exc_type: type[ReproError] = LintError,
) -> None:
    """Raise ``exc_type`` if cheap ERROR-level FSM rules fire on ``subject``."""
    from repro.lint.fsm_rules import analyze_machine

    report = analyze_machine(subject, errors_only=True, include_expensive=False)
    report.raise_on_errors(exc_type)


def preflight_netlist(
    netlist: "Netlist",
    exc_type: type[ReproError] = LintError,
) -> None:
    """Raise ``exc_type`` if cheap ERROR-level netlist rules fire.

    A netlist that passed them, or ``Netlist.check()``, since it last
    changed is not swept again, which keeps the hook free inside
    fault-simulation loops.
    """
    if netlist._checked:
        return
    from repro.lint.netlist_rules import analyze_netlist

    report = analyze_netlist(netlist, errors_only=True, include_expensive=False)
    report.raise_on_errors(exc_type)
    netlist._checked = True


def forget_netlist(netlist: "Netlist") -> None:
    """Drop a netlist's recorded verdict, after mutating it other than
    through its own methods."""
    netlist._checked = False
