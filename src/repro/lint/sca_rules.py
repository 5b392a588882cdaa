"""Netlist lint rules powered by the :mod:`repro.sca` static analyses.

These rules run the constant-propagation, observability, collapsing, and
SCOAP passes over the netlist and report *semantic* dead weight that the
cheap structural rules (NET001-NET006) cannot see: nets that are provably
stuck, logic that can never influence an output, and nets so deep that no
reasonable test will exercise them.

All five rules are ``expensive`` WARNING/INFO rules, so the generation
preflight — which runs only cheap ERROR rules — is unaffected; they fire in
full ``repro-fsatpg lint`` runs and CI.

The analysis requires a structurally valid netlist; when
:meth:`~repro.gatelevel.netlist.Netlist.check` rejects the subject the
rules stay silent and leave the reporting to NET001-NET005.

Rule ids
--------
======  ==================  ========  =========
id      name                severity  cost
======  ==================  ========  =========
NET007  net-constant        WARNING   expensive
NET008  net-unobservable    WARNING   expensive
NET009  net-dead-cone       WARNING   expensive
NET010  net-redundant       INFO      expensive
NET011  net-hard-to-test    INFO      expensive
======  ==================  ========  =========
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import ReproError
from repro.gatelevel.netlist import GateType
from repro.lint.diagnostics import Diagnostic, Severity, cap_diagnostics
from repro.lint.netlist_rules import NetlistArtifact
from repro.lint.registry import Rule, register
from repro.sca import INFINITY, ScaAnalysis, analyze

__all__: list[str] = []

_SCA_SLOT = "_sca_analysis"


def _sca_for(context: NetlistArtifact) -> ScaAnalysis | None:
    """The (memoized) static analysis of the artifact's netlist.

    Returns ``None`` for structurally invalid netlists — those are the
    ERROR rules' job, and the analysis passes assume the
    :class:`~repro.gatelevel.netlist.Netlist` topological invariants.
    """
    cached = context.__dict__.get(_SCA_SLOT, False)
    if cached is not False:
        return cached
    try:
        context.netlist.check()
        sca = analyze(context.netlist)
        sca.verify()
    except ReproError:
        sca = None
    context.__dict__[_SCA_SLOT] = sca
    return sca


def _alive_lines(context: NetlistArtifact) -> list[bool]:
    """Structural liveness: can the line reach an output through any path?"""
    netlist = context.netlist
    n = netlist.n_gates
    alive = [False] * n
    stack = [line for line in netlist.outputs if 0 <= line < n]
    for line in stack:
        alive[line] = True
    while stack:
        line = stack.pop()
        for fanin in netlist.gates[line].fanins:
            if not alive[fanin]:
                alive[fanin] = True
                stack.append(fanin)
    return alive


@register
class ConstantNetRule(Rule):
    rule_id = "NET007"
    name = "net-constant"
    severity = Severity.WARNING
    domain = "netlist"
    cost = "expensive"
    description = "a logic gate's output is provably constant"

    def check(self, context: NetlistArtifact) -> Iterator[Diagnostic]:
        sca = _sca_for(context)
        if sca is None:
            return
        gates = context.netlist.gates

        def findings() -> Iterator[Diagnostic]:
            for line, value in sorted(sca.constants.as_dict().items()):
                kind = gates[line].kind
                if kind is GateType.CONST0:
                    continue  # the constant generator is constant on purpose
                yield self.diagnostic(
                    f"gate {context.gate_label(line)} is provably stuck at "
                    f"{value} on every input pattern",
                    location=f"gate {line}",
                    hint="replace the gate with a constant "
                    "or fix the logic that pins it",
                    artifact=context.name,
                )

        yield from cap_diagnostics(findings())


@register
class UnobservableNetRule(Rule):
    rule_id = "NET008"
    name = "net-unobservable"
    severity = Severity.WARNING
    domain = "netlist"
    cost = "expensive"
    description = "a live gate's value can never reach a primary output"

    def check(self, context: NetlistArtifact) -> Iterator[Diagnostic]:
        sca = _sca_for(context)
        if sca is None:
            return
        alive = _alive_lines(context)
        gates = context.netlist.gates

        def findings() -> Iterator[Diagnostic]:
            for line, blocks in sorted(sca.unobservable.items()):
                # Structurally dead logic is NET003's finding; primary
                # inputs with a fully blocked cone are NET009's.
                if not alive[line] or gates[line].kind is GateType.INPUT:
                    continue
                gate_index, pin = blocks[0] if blocks else (None, None)
                where = (
                    f"every path is blocked, first at pin {pin} of gate "
                    f"{context.gate_label(gate_index)}"
                    if gate_index is not None
                    else "no deviation can propagate"
                )
                yield self.diagnostic(
                    f"gate {context.gate_label(line)} is provably "
                    f"unobservable: {where}",
                    location=f"gate {line}",
                    hint="a constant side input masks this logic; both "
                    "faults on the net are untestable",
                    artifact=context.name,
                )

        yield from cap_diagnostics(findings())


@register
class DeadConeRule(Rule):
    rule_id = "NET009"
    name = "net-dead-cone"
    severity = Severity.WARNING
    domain = "netlist"
    cost = "expensive"
    description = "a primary input's entire fanout cone is blocked"

    def check(self, context: NetlistArtifact) -> Iterator[Diagnostic]:
        sca = _sca_for(context)
        if sca is None:
            return
        alive = _alive_lines(context)
        gates = context.netlist.gates

        def findings() -> Iterator[Diagnostic]:
            for line, blocks in sorted(sca.unobservable.items()):
                if gates[line].kind is not GateType.INPUT or not alive[line]:
                    continue
                yield self.diagnostic(
                    f"primary input {context.gate_label(line)} can never "
                    f"influence any output: its whole fanout cone is dead "
                    f"({len(blocks)} blocked gate(s))",
                    location=f"gate {line}",
                    hint="the input is connected but functionally unused; "
                    "drop it or fix the constant that blocks it",
                    artifact=context.name,
                )

        yield from cap_diagnostics(findings())


@register
class RedundantFaultsRule(Rule):
    rule_id = "NET010"
    name = "net-redundant"
    severity = Severity.INFO
    domain = "netlist"
    cost = "expensive"
    description = "summary of certificate-proved untestable stuck-at faults"

    def check(self, context: NetlistArtifact) -> Iterator[Diagnostic]:
        sca = _sca_for(context)
        if sca is None or not sca.certificates:
            return
        universe = sca.universe
        reasons: dict[str, int] = {}
        for certificate in sca.certificates:
            reasons[certificate.reason] = reasons.get(certificate.reason, 0) + 1
        breakdown = ", ".join(
            f"{count} {reason}" for reason, count in sorted(reasons.items())
        )
        yield self.diagnostic(
            f"{len(sca.untestable_faults)} of {universe.n_faults} stuck-at "
            f"faults ({len(sca.untestable_representatives)} of "
            f"{universe.n_representatives} collapsed classes) are provably "
            f"untestable: {breakdown}",
            hint="these faults are redundancy, not a coverage gap; "
            "`repro-fsatpg analyze` prints the machine-checked certificates",
            artifact=context.name,
        )


@register
class HardToTestRule(Rule):
    rule_id = "NET011"
    name = "net-hard-to-test"
    severity = Severity.INFO
    domain = "netlist"
    cost = "expensive"
    description = "nets with pathological SCOAP testability"

    #: Worst finite testability over the whole benchmark corpus is ~850;
    #: anything past this is structurally pathological, not just big.
    threshold = 1000

    def check(self, context: NetlistArtifact) -> Iterator[Diagnostic]:
        sca = _sca_for(context)
        if sca is None:
            return
        scoap = sca.scoap
        constants = sca.constants.as_dict()

        def findings() -> Iterator[Diagnostic]:
            for line in range(context.netlist.n_gates):
                if line in constants or line in sca.unobservable:
                    continue  # already reported with a proof, not a score
                measure = scoap.testability(line)
                if measure < self.threshold:
                    continue
                shown = "inf" if measure >= INFINITY else str(measure)
                yield self.diagnostic(
                    f"net {context.gate_label(line)} has SCOAP testability "
                    f"{shown} (cc0={scoap.cc0[line]}, cc1={scoap.cc1[line]}, "
                    f"co={scoap.co[line]})",
                    location=f"gate {line}",
                    hint="deterministic ATPG will struggle here; consider "
                    "a test point or restructuring the cone",
                    artifact=context.name,
                )

        yield from cap_diagnostics(findings())
