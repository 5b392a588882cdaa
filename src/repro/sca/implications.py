"""Static implications: constant nets, blocked observability, and proofs.

Two sound analyses over a combinational netlist, each emitting a
*machine-checkable certificate* that an independent verifier replays
against the netlist:

* :func:`propagate_constants` proves lines constant over **all** input
  patterns.  Each proof is a topologically ordered list of
  :class:`DerivationStep` records naming the rule applied and the premise
  lines; :func:`verify_constant_steps` re-derives every step from the gate
  functions alone.

* :func:`site_observability` proves that a discrepancy originating at a
  given line can never reach a primary output: a forward frontier sweep in
  which propagation through a gate is *blocked* when some side input is a
  proven constant at the gate's controlling value — and that side input is
  itself outside the frontier, so the fault cannot disturb it.  The
  certificate records the blocking (gate, pin) pairs;
  :func:`verify_observability_blocks` replays the sweep trusting nothing.

Soundness notes
---------------
Constants are proven over the full ``2**n`` pattern space, so they hold on
any restricted pattern set (e.g. the assigned-code masks of
:func:`repro.gatelevel.detectability.assigned_pattern_mask`).  The
blocking argument is inductive: a line outside the frontier computes its
fault-free value on every pattern, hence a constant side input really is
stuck at its controlling value even in the faulty circuit.  Both analyses
are conservative — they may fail to prove a redundant fault, but a
completed certificate is a theorem, independently checkable and cross-checked
against the exhaustive oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CertificateError
from repro.gatelevel.netlist import CONTROLLING_VALUE, Gate, GateType, Netlist

__all__ = [
    "ConstantAnalysis",
    "DerivationStep",
    "controlling_value",
    "propagate_constants",
    "site_observability",
    "verify_constant_steps",
    "verify_observability_blocks",
]

def controlling_value(kind: GateType) -> int | None:
    """The controlling input value of ``kind``, or ``None`` if it has none.

    A controlling fanin forces the output to that same value (see
    :data:`~repro.gatelevel.netlist.CONTROLLING_VALUE`).
    """
    return CONTROLLING_VALUE.get(kind)


@dataclass(frozen=True)
class DerivationStep:
    """One application of a constant-propagation rule.

    ``premises`` lists the fanin lines whose (already derived) values
    justify the conclusion ``line = value`` under ``rule``:

    ``const-gate``
        ``line`` is the CONST0 generator; no premises.
    ``controlling-fanin``
        the single premise holds the gate's controlling value, forcing the
        output to that value.
    ``all-fanins-known``
        every fanin value is derived; the gate function evaluates to
        ``value``.
    """

    line: int
    value: int
    rule: str
    premises: tuple[int, ...] = ()

    def to_dict(self) -> dict[str, object]:
        return {
            "line": self.line,
            "value": self.value,
            "rule": self.rule,
            "premises": list(self.premises),
        }


@dataclass(frozen=True)
class ConstantAnalysis:
    """Proven-constant lines and the derivations that prove them."""

    #: ``values[line]`` is 0/1 when proven, ``None`` otherwise.
    values: tuple[int | None, ...]
    steps: tuple[DerivationStep, ...] = field(default=())

    @property
    def constant_lines(self) -> tuple[int, ...]:
        return tuple(
            line for line, value in enumerate(self.values) if value is not None
        )

    def as_dict(self) -> dict[int, int]:
        return {
            line: value
            for line, value in enumerate(self.values)
            if value is not None
        }


def _evaluate_known(kind: GateType, bits: list[int]) -> int:
    """Gate function on fully known 0/1 fanin values."""
    if kind is GateType.NOT:
        return bits[0] ^ 1
    if kind is GateType.AND:
        return int(all(bits))
    return int(any(bits))


def _derive_gate(
    gate: Gate, values: list[int | None]
) -> DerivationStep | None:
    """The strongest constant derivable for one gate, or ``None``."""
    kind = gate.kind
    if kind is GateType.CONST0:
        return DerivationStep(gate.index, 0, "const-gate")
    if kind is GateType.INPUT or not gate.fanins:
        return None
    control = CONTROLLING_VALUE.get(kind)
    if control is not None:
        for fanin in gate.fanins:
            if values[fanin] == control:
                return DerivationStep(
                    gate.index, control, "controlling-fanin", (fanin,)
                )
    known = [values[fanin] for fanin in gate.fanins]
    if all(bit is not None for bit in known):
        return DerivationStep(
            gate.index,
            _evaluate_known(kind, [bit for bit in known if bit is not None]),
            "all-fanins-known",
            tuple(gate.fanins),
        )
    return None


def propagate_constants(netlist: Netlist) -> ConstantAnalysis:
    """Prove lines constant over all input patterns (single forward sweep).

    Every rule reads only fanin values, and gate order is topological, so
    one pass reaches the fixpoint.
    """
    values: list[int | None] = [None] * netlist.n_gates
    steps: list[DerivationStep] = []
    for gate in netlist.gates:
        step = _derive_gate(gate, values)
        if step is not None:
            values[gate.index] = step.value
            steps.append(step)
    return ConstantAnalysis(tuple(values), tuple(steps))


def verify_constant_steps(
    netlist: Netlist, steps: tuple[DerivationStep, ...]
) -> dict[int, int]:
    """Replay ``steps`` against ``netlist``; raises on any invalid step.

    Returns the verified ``line -> value`` mapping.  Nothing from the
    original analysis is trusted: each step's rule is re-checked against
    the gate it names, using only previously verified values.
    """
    verified: dict[int, int] = {}
    gates = netlist.gates
    for step in steps:
        if not 0 <= step.line < len(gates):
            raise CertificateError(f"step names nonexistent line {step.line}")
        if step.value not in (0, 1):
            raise CertificateError(f"step value {step.value!r} is not a bit")
        gate = gates[step.line]
        replayed = _replay_step(gate, step, verified)
        if replayed != step.value:
            raise CertificateError(
                f"step for line {step.line} claims {step.value}, "
                f"rule {step.rule!r} derives {replayed}"
            )
        verified[step.line] = step.value
    return verified


def _replay_step(
    gate: Gate, step: DerivationStep, verified: dict[int, int]
) -> int:
    kind = gate.kind
    if step.rule == "const-gate":
        if kind is GateType.CONST0:
            return 0
        raise CertificateError(
            f"line {step.line} is {kind.value}, not a constant generator"
        )
    if step.rule == "controlling-fanin":
        if len(step.premises) != 1 or step.premises[0] not in gate.fanins:
            raise CertificateError(
                f"line {step.line}: premise is not a fanin of the gate"
            )
        control = CONTROLLING_VALUE.get(kind)
        if control is None:
            raise CertificateError(
                f"line {step.line}: {kind.value} has no controlling value"
            )
        if verified.get(step.premises[0]) != control:
            raise CertificateError(
                f"line {step.line}: premise {step.premises[0]} is not a "
                f"verified constant {control}"
            )
        return control
    if step.rule == "all-fanins-known":
        if kind in (GateType.INPUT, GateType.CONST0):
            raise CertificateError(
                f"line {step.line}: {kind.value} has no fanins to evaluate"
            )
        bits: list[int] = []
        for fanin in gate.fanins:
            if fanin not in verified:
                raise CertificateError(
                    f"line {step.line}: fanin {fanin} has no verified value"
                )
            bits.append(verified[fanin])
        return _evaluate_known(kind, bits)
    raise CertificateError(f"unknown derivation rule {step.rule!r}")


# ----------------------------------------------------------- observability


def site_observability(
    netlist: Netlist,
    constants: ConstantAnalysis,
    site: int,
) -> tuple[bool, tuple[tuple[int, int], ...]]:
    """Can a discrepancy originating at line ``site`` reach an output?

    Returns ``(observable, blocks)``.  ``observable`` is a conservative
    "possibly yes"; ``False`` is a proof of unobservability whose evidence
    is ``blocks`` — the (gate, pin) pairs where propagation was cut by a
    constant controlling side input outside the deviation frontier.
    """
    values = constants.values
    outputs = set(netlist.outputs)
    deviated = {site}
    blocks: list[tuple[int, int]] = []
    for gate in netlist.gates[site + 1 :]:
        if not any(fanin in deviated for fanin in gate.fanins):
            continue
        control = CONTROLLING_VALUE.get(gate.kind)
        blocking_pin = None
        if control is not None:
            for pin, fanin in enumerate(gate.fanins):
                if fanin in deviated:
                    continue
                if values[fanin] == control:
                    blocking_pin = pin
                    break
        if blocking_pin is None:
            deviated.add(gate.index)
        else:
            blocks.append((gate.index, blocking_pin))
    observable = bool(deviated & outputs)
    if observable:
        return True, ()
    return False, tuple(blocks)


def verify_observability_blocks(
    netlist: Netlist,
    site: int,
    blocks: tuple[tuple[int, int], ...],
    verified_constants: dict[int, int],
) -> None:
    """Check that ``blocks`` proves line ``site`` unobservable.

    Replays the frontier sweep of :func:`site_observability`, but every
    claimed block is verified on the spot: the named pin must carry a
    verified constant at the gate's controlling value, and that pin's line
    must be outside the frontier (so the fault cannot disturb it).  Raises
    :class:`~repro.errors.CertificateError` if any claim fails or a primary
    output still ends up in the frontier.
    """
    gates = netlist.gates
    if not 0 <= site < len(gates):
        raise CertificateError(f"unobservability site {site} does not exist")
    block_at: dict[int, int] = {}
    for gate_index, pin in blocks:
        if gate_index in block_at:
            raise CertificateError(f"duplicate block for gate {gate_index}")
        block_at[gate_index] = pin
    outputs = set(netlist.outputs)
    if site in outputs:
        raise CertificateError(
            f"site {site} is a primary output; trivially observable"
        )
    deviated = {site}
    for gate in gates[site + 1 :]:
        if not any(fanin in deviated for fanin in gate.fanins):
            continue
        pin = block_at.get(gate.index)
        if pin is None:
            deviated.add(gate.index)
            if gate.index in outputs:
                raise CertificateError(
                    f"deviation from site {site} reaches output line "
                    f"{gate.index}"
                )
            continue
        if not 0 <= pin < gate.n_fanins:
            raise CertificateError(
                f"block names nonexistent pin {pin} of gate {gate.index}"
            )
        control = CONTROLLING_VALUE.get(gate.kind)
        if control is None:
            raise CertificateError(
                f"gate {gate.index} ({gate.kind.value}) has no controlling "
                "value; cannot block"
            )
        blocking_line = gate.fanins[pin]
        if blocking_line in deviated:
            raise CertificateError(
                f"blocking line {blocking_line} of gate {gate.index} is "
                "inside the deviation frontier"
            )
        if verified_constants.get(blocking_line) != control:
            raise CertificateError(
                f"blocking line {blocking_line} of gate {gate.index} is not "
                f"a verified constant {control}"
            )
    remaining = deviated & outputs
    if remaining:
        raise CertificateError(
            f"deviation from site {site} reaches outputs {sorted(remaining)}"
        )
