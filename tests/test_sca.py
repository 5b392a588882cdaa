"""Tests for the static netlist analysis subsystem (``repro.sca``).

The load-bearing guarantees checked here:

* collapsing is *equivalence*: every member of a class has exactly the
  same detecting-pattern set as its representative, so expanding
  representative verdicts reproduces full-universe verdicts bit for bit;
* proven constants really are constant on every input pattern (checked
  against exhaustive evaluation);
* every certificate is machine-verifiable AND agrees with the exhaustive
  detectability oracle (certified untestable ⊆ truly undetectable);
* tampering with any proof object raises ``CertificateError``.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import pickle
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import CertificateError
from repro.fuzz.strategies import netlists
from repro.gatelevel.detectability import detectable_faults, fault_free_values
from repro.gatelevel.netlist import CONTROLLING_VALUE, GateType, Netlist, unpack_bits
from repro.gatelevel.stuck_at import StuckAtFault, enumerate_stuck_at
from repro.harness.experiments import CircuitStudy
from repro.sca import (
    INFINITY,
    SCA_SCHEMA,
    CollapsedUniverse,
    ScaAnalysis,
    analyze,
    collapse_universe,
    compute_scoap,
    controlling_value,
    fanout_free_regions,
    immediate_dominators,
    levelize,
    propagate_constants,
    site_observability,
    verify_certificate,
    verify_constant_steps,
    verify_observability_blocks,
)
from repro.sca.implications import DerivationStep


# ---------------------------------------------------------------- fixtures


def diamond_netlist() -> Netlist:
    """a fans out to two NOTs that reconverge in an AND."""
    net = Netlist("diamond")
    a = net.add_input("a")                      # 0
    b = net.add_gate(GateType.NOT, (a,))        # 1
    c = net.add_gate(GateType.NOT, (a,))        # 2
    d = net.add_gate(GateType.AND, (b, c))      # 3
    net.set_outputs([d])
    return net


def blocked_netlist() -> Netlist:
    """NOT(c) is cut off by a CONST0 side input; c's whole cone is dead."""
    net = Netlist("blocked")
    net.add_input("a")                          # 0
    c = net.add_input("c")                      # 1
    d = net.add_gate(GateType.NOT, (c,))        # 2
    z = net.add_gate(GateType.CONST0, ())       # 3
    g = net.add_gate(GateType.AND, (d, z))      # 4: constant 0
    out = net.add_gate(GateType.OR, (g, 0))     # 5
    net.set_outputs([out])
    return net


def masked_netlist() -> Netlist:
    """OR with a constant-1 fanin: the gate is pinned, the other pin masked."""
    net = Netlist("masked")
    a = net.add_input("a")                      # 0
    zero = net.add_gate(GateType.CONST0, ())    # 1
    one = net.add_gate(GateType.NOT, (zero,))   # 2: constant 1
    g = net.add_gate(GateType.OR, (a, one))     # 3: constant 1
    out = net.add_gate(GateType.AND, (g, a))    # 4
    net.set_outputs([out])
    return net


REDUNDANT_NETLISTS = [blocked_netlist, masked_netlist]


# ---------------------------------------------------- reference evaluation


def _eval_with_fault(
    netlist: Netlist, bits: list[int], fault: StuckAtFault | None
) -> tuple[int, ...]:
    """Independent single-pattern evaluator with optional fault injection."""
    values: dict[int, int] = {}
    position = 0
    for gate in netlist.gates:
        if gate.kind is GateType.INPUT:
            value = bits[position]
            position += 1
        elif gate.kind is GateType.CONST0:
            value = 0
        else:
            fanin_bits = []
            for pin, line in enumerate(gate.fanins):
                bit = values[line]
                if (
                    fault is not None
                    and fault.pin == pin
                    and fault.gate == gate.index
                ):
                    bit = fault.value
                fanin_bits.append(bit)
            if gate.kind is GateType.NOT:
                value = fanin_bits[0] ^ 1
            elif gate.kind is GateType.AND:
                value = int(all(fanin_bits))
            else:
                value = int(any(fanin_bits))
        if fault is not None and fault.pin is None and fault.gate == gate.index:
            value = fault.value
        values[gate.index] = value
    return tuple(values[line] for line in netlist.outputs)


def _detection_signature(
    netlist: Netlist, fault: StuckAtFault
) -> frozenset[int]:
    """All input patterns whose outputs differ under ``fault``."""
    n = netlist.n_inputs
    detected = set()
    for pattern in range(1 << n):
        bits = [(pattern >> (n - 1 - k)) & 1 for k in range(n)]
        if _eval_with_fault(netlist, bits, None) != _eval_with_fault(
            netlist, bits, fault
        ):
            detected.add(pattern)
    return frozenset(detected)


# ------------------------------------------------------------ graph passes


def test_levelize_chain_and_diamond():
    net = diamond_netlist()
    assert levelize(net) == [0, 1, 1, 2]
    chain = Netlist("chain")
    a = chain.add_input()
    b = chain.add_gate(GateType.NOT, (a,))
    c = chain.add_gate(GateType.NOT, (b,))
    chain.set_outputs([c])
    assert levelize(chain) == [0, 1, 2]


def test_fanout_free_regions_partition_and_checkpoints():
    net = diamond_netlist()
    regions = fanout_free_regions(net)
    # a fans out twice -> its own stem; b and c fold into d's region.
    assert regions.stems == (0, 3)
    assert regions.region_of == (0, 3, 3, 3)
    assert regions.members(3) == (1, 2, 3)
    # Checkpoints = primary inputs + pins reading a multi-fanout line.
    assert set(regions.branches) == {(1, 0), (2, 0)}
    assert regions.n_regions == 2


def test_fanout_free_regions_cover_every_line():
    net = CircuitStudy("lion").scan_circuit.netlist
    regions = fanout_free_regions(net)
    stems = set(regions.stems)
    assert all(head in stems for head in regions.region_of)
    # A stem is its own region head; members() partitions the lines.
    seen: set[int] = set()
    for stem in regions.stems:
        members = regions.members(stem)
        assert stem in members
        assert not (seen & set(members))
        seen.update(members)
    assert seen == set(range(net.n_gates))


def test_immediate_dominators_diamond_and_dead_line():
    net = diamond_netlist()
    sink = net.n_gates
    # Both reconverging paths from a meet at d; d is dominated by the sink.
    assert immediate_dominators(net) == [3, 3, 3, sink]
    dead = Netlist("dead")
    a = dead.add_input()
    g = dead.add_gate(GateType.NOT, (a,))
    dead.add_gate(GateType.NOT, (a,))  # never read, not an output
    dead.set_outputs([g])
    assert immediate_dominators(dead)[2] is None


# ------------------------------------------------------------------- SCOAP


def test_scoap_hand_computed_and_gate():
    net = Netlist("and2")
    a = net.add_input()
    b = net.add_input()
    g = net.add_gate(GateType.AND, (a, b))
    net.set_outputs([g])
    scoap = compute_scoap(net)
    assert scoap.cc0[a] == scoap.cc1[a] == 1
    assert scoap.cc1[g] == 3          # both inputs at 1, plus the gate
    assert scoap.cc0[g] == 2          # cheapest single 0, plus the gate
    assert scoap.co[g] == 0           # primary output
    assert scoap.co[a] == 2           # out_co 0 + side cc1 1 + gate 1
    assert scoap.testability(a) == 3  # co 2 + max(cc0, cc1) 1


def test_scoap_xor_parity_and_not():
    """XOR as OR(AND(a, b'), AND(a', b)), then NOT: both parities cost the
    same, and the NOT swaps CC0/CC1."""
    net = Netlist("xnot")
    a = net.add_input()
    b = net.add_input()
    na = net.add_gate(GateType.NOT, (a,))
    nb = net.add_gate(GateType.NOT, (b,))
    t1 = net.add_gate(GateType.AND, (a, nb))
    t2 = net.add_gate(GateType.AND, (na, b))
    x = net.add_gate(GateType.OR, (t1, t2))
    n = net.add_gate(GateType.NOT, (x,))
    net.set_outputs([n])
    scoap = compute_scoap(net)
    assert scoap.cc1[t1] == 4 and scoap.cc0[t1] == 2
    assert scoap.cc0[x] == 5 and scoap.cc1[x] == 5  # all-zero sum; min one
    assert scoap.cc0[n] == scoap.cc1[x] + 1
    assert scoap.cc1[n] == scoap.cc0[x] + 1
    assert scoap.controllability(n, 0) == scoap.cc0[n]
    # Observing t1 through the OR needs t2 at 0, then the NOT.
    assert scoap.co[t1] == scoap.co[x] + scoap.cc0[t2] + 1


def test_scoap_dead_line_observability_saturates():
    net = Netlist("deadline")
    a = net.add_input()
    g = net.add_gate(GateType.NOT, (a,))
    net.add_gate(GateType.NOT, (a,))  # dead
    net.set_outputs([g])
    scoap = compute_scoap(net)
    assert scoap.co[2] == INFINITY
    assert scoap.testability(2) == INFINITY


def test_scoap_const_gates_cannot_take_other_value():
    net = Netlist("consts")
    zero = net.add_gate(GateType.CONST0, ())
    one = net.add_gate(GateType.NOT, (zero,))
    g = net.add_gate(GateType.OR, (zero, one))
    net.set_outputs([g])
    scoap = compute_scoap(net)
    assert scoap.cc0[zero] == 1 and scoap.cc1[zero] == INFINITY
    assert scoap.cc1[one] == 2 and scoap.cc0[one] == INFINITY
    assert scoap.cc0[g] == INFINITY  # the constant-1 fanin can never be 0


# -------------------------------------------------------------- collapsing


def test_collapse_mapping_is_idempotent_and_total():
    for build in (diamond_netlist, *REDUNDANT_NETLISTS):
        net = build()
        universe = collapse_universe(net)
        faults = enumerate_stuck_at(net)
        assert set(universe.mapping) == set(faults)
        for rep in universe.mapping.values():
            assert universe.mapping[rep] == rep
        assert universe.representatives == tuple(
            sorted(set(universe.mapping.values()))
        )
        assert universe.n_faults >= universe.n_representatives


def test_collapse_classes_are_true_equivalence_classes():
    """Every class member has the identical detecting-pattern set."""
    for build in (diamond_netlist, *REDUNDANT_NETLISTS):
        net = build()
        universe = collapse_universe(net)
        for rep, members in universe.classes.items():
            signature = _detection_signature(net, rep)
            for member in members:
                assert _detection_signature(net, member) == signature, (
                    f"{net.name}: {member.site()} not equivalent to "
                    f"{rep.site()}"
                )


def test_collapse_equivalence_on_real_scan_netlist():
    net = CircuitStudy("lion").scan_circuit.netlist
    universe = collapse_universe(net)
    assert universe.ratio > 1.0
    for rep, members in universe.classes.items():
        signature = _detection_signature(net, rep)
        for member in members:
            assert _detection_signature(net, member) == signature


def test_collapse_expand_roundtrip():
    net = masked_netlist()
    universe = collapse_universe(net)
    everything = universe.expand(set(universe.representatives))
    assert everything == set(universe.mapping)
    assert universe.expand(set()) == set()


def test_collapse_ratio_pinned_on_bbara():
    """The acceptance floor: >= 1.3x on an MCNC benchmark (bbara: 2.27x)."""
    net = CircuitStudy("bbara").scan_circuit.netlist
    universe = collapse_universe(net)
    assert universe.n_faults == 1760
    assert universe.n_representatives == 775
    assert universe.ratio >= 1.3


def test_collapse_empty_universe_ratio():
    assert CollapsedUniverse({}).ratio == 1.0


# --------------------------------------------------------------- constants


def test_constants_cross_checked_against_exhaustive_evaluation():
    for build in REDUNDANT_NETLISTS:
        net = build()
        constants = propagate_constants(net)
        assert constants.as_dict(), f"{net.name} should have constants"
        ff = fault_free_values(net)
        n_patterns = 1 << net.n_inputs
        for line, value in constants.as_dict().items():
            bits = unpack_bits(ff[line], n_patterns)
            assert bool(bits.all()) == bool(value)
            assert bool(bits.any()) == bool(value)


def test_constant_steps_verify_and_reject_tampering():
    net = blocked_netlist()
    constants = propagate_constants(net)
    verified = verify_constant_steps(net, constants.steps)
    assert verified == constants.as_dict()
    # Flip a conclusion: the replay must reject it.
    step = constants.steps[0]
    forged = dataclasses.replace(step, value=step.value ^ 1)
    with pytest.raises(CertificateError, match="claims"):
        verify_constant_steps(net, (forged, *constants.steps[1:]))
    # Name a rule the gate does not satisfy.
    bogus = DerivationStep(net.n_gates - 1, 0, "const-gate")
    with pytest.raises(CertificateError, match="not a constant generator"):
        verify_constant_steps(net, (bogus,))
    with pytest.raises(CertificateError, match="unknown derivation rule"):
        verify_constant_steps(
            net, (DerivationStep(0, 0, "wishful-thinking"),)
        )


def test_controlling_value_table():
    assert controlling_value(GateType.AND) == 0
    assert controlling_value(GateType.OR) == 1
    assert controlling_value(GateType.NOT) is None


# ----------------------------------------------------------- observability


def test_site_observability_blocked_and_open():
    net = blocked_netlist()
    constants = propagate_constants(net)
    observable, blocks = site_observability(net, constants, 2)
    assert not observable
    assert blocks == ((4, 1),)  # AND gate 4, CONST0 on pin 1
    observable, blocks = site_observability(net, constants, 0)
    assert observable and blocks == ()


def sweep_observability(net, constants, site):
    """Full-sweep reference: every gate after ``site``, in index order."""
    deviated, blocks = {site}, []
    for gate in net.gates[site + 1 :]:
        if not any(fanin in deviated for fanin in gate.fanins):
            continue
        control = CONTROLLING_VALUE.get(gate.kind)
        pin = next(
            (
                pin
                for pin, fanin in enumerate(gate.fanins)
                if fanin not in deviated
                and control is not None
                and constants.values[fanin] == control
            ),
            None,
        )
        if pin is None:
            deviated.add(gate.index)
        else:
            blocks.append((gate.index, pin))
    if deviated & set(net.outputs):
        return True, ()
    return False, tuple(blocks)


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(netlists(max_gates=30))
def test_site_observability_matches_full_sweep(net):
    constants = propagate_constants(net)
    for site in range(net.n_gates):
        assert site_observability(net, constants, site) == sweep_observability(
            net, constants, site
        )


def _has_constants(net: Netlist) -> bool:
    return bool(propagate_constants(net).constant_lines)


@pytest.mark.parametrize("with_constants", [True, False])
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data())
def test_unobservable_matches_per_line_definition(with_constants, data):
    # Without constants the dict comes from one mask AND over the
    # reachability rows, with them from the per-line frontier walk; either
    # way it must be exactly the lines site_observability rejects.
    net = data.draw(
        netlists(max_gates=30).filter(
            lambda candidate: _has_constants(candidate) == with_constants
        )
    )
    constants = propagate_constants(net)
    expected = {}
    for line in range(net.n_gates):
        observable, blocks = site_observability(net, constants, line)
        if not observable:
            expected[line] = blocks
    assert analyze(net).unobservable == expected


def test_verify_observability_blocks_rejects_bad_evidence():
    net = blocked_netlist()
    constants = propagate_constants(net)
    verified = verify_constant_steps(net, constants.steps)
    verify_observability_blocks(net, 2, ((4, 1),), verified)
    # Dropping the block lets the deviation reach the output.
    with pytest.raises(CertificateError, match="reaches output"):
        verify_observability_blocks(net, 2, (), verified)
    # The blocking pin must carry the verified controlling constant.
    with pytest.raises(CertificateError, match="not a verified constant"):
        verify_observability_blocks(net, 2, ((5, 1),), verified)
    # A block whose line sits inside the frontier proves nothing.
    with pytest.raises(CertificateError, match="inside the deviation"):
        verify_observability_blocks(net, 2, ((4, 0),), verified)
    # A primary output is trivially observable.
    with pytest.raises(CertificateError, match="primary output"):
        verify_observability_blocks(net, 5, (), verified)


# ------------------------------------------------------------ certificates


def test_certificates_cover_all_three_reasons():
    reasons = set()
    for build in REDUNDANT_NETLISTS:
        sca = analyze(build())
        reasons.update(cert.reason for cert in sca.certificates)
    assert reasons == {"unactivatable", "masked-pin", "unobservable"}


def test_certificates_cross_checked_against_exhaustive_oracle():
    """Every certified-untestable fault is truly undetectable."""
    for build in REDUNDANT_NETLISTS:
        net = build()
        sca = analyze(net)
        sca.verify()
        assert sca.certificates, f"{net.name} should prove redundancy"
        _, undetectable = detectable_faults(net, enumerate_stuck_at(net))
        assert sca.untestable_faults <= undetectable
        # And via the independent reference evaluator as well.
        for fault in sca.untestable_faults:
            assert _detection_signature(net, fault) == frozenset()


def test_certificate_verification_rejects_tampering():
    net = masked_netlist()
    sca = analyze(net)
    verified = verify_constant_steps(net, sca.constants.steps)
    masked = next(
        cert for cert in sca.certificates if cert.reason == "masked-pin"
    )
    verify_certificate(net, masked, verified)
    # Claim the masking pin is the faulty pin itself.
    fault = masked.fault
    assert fault.pin is not None
    forged = dataclasses.replace(masked, blocks=((fault.gate, fault.pin),))
    with pytest.raises(CertificateError, match="faulty pin itself"):
        verify_certificate(net, forged, verified)
    # Move an unactivatable proof to a non-constant line.
    unact = next(
        cert for cert in sca.certificates if cert.reason == "unactivatable"
    )
    verify_certificate(net, unact, verified)
    with pytest.raises(CertificateError, match="sits on line"):
        verify_certificate(
            net, dataclasses.replace(unact, line=0), verified
        )
    # Unknown reason.
    with pytest.raises(CertificateError, match="unknown certificate reason"):
        verify_certificate(
            net, dataclasses.replace(masked, reason="vibes"), verified
        )
    # Certificates must not survive without their constant premises.
    with pytest.raises(CertificateError):
        verify_certificate(net, masked, {})


def test_certificates_lift_to_whole_classes():
    net = blocked_netlist()
    sca = analyze(net)
    reps = sca.untestable_representatives
    assert reps
    for fault, rep in sca.universe.mapping.items():
        assert (fault in sca.untestable_faults) == (rep in reps)


# ----------------------------------------------------- analysis object/API


def test_analysis_to_dict_schema_and_consistency():
    sca = analyze(blocked_netlist())
    payload = sca.to_dict()
    assert payload["schema"] == SCA_SCHEMA
    collapse = payload["collapse"]
    assert collapse["faults"] >= collapse["representatives"]
    untestable = payload["untestable"]
    assert untestable["representatives"] == len(payload["certificates"])
    lean = sca.to_dict(include_scoap=False)
    assert "scoap" not in lean and "scoap" in payload


def test_analysis_pickle_roundtrip_preserves_everything():
    sca = analyze(masked_netlist()).materialize()
    clone = pickle.loads(pickle.dumps(sca))
    assert isinstance(clone, ScaAnalysis)
    assert clone.to_dict() == sca.to_dict()
    clone.verify()


def test_analysis_verify_passes_on_benchmark():
    sca = analyze(CircuitStudy("lion").scan_circuit.netlist)
    sca.verify()  # no certificates on a clean synthesized netlist is fine
    assert sca.universe.ratio > 1.0


# ------------------------------------------- pipeline result bit-identity


def test_collapsed_simulation_bit_identical_to_full_universe():
    """Per-test detection over representatives, expanded, equals the
    per-test detection over the raw uncollapsed universe."""
    from repro.gatelevel.fault_sim import InterpretedSimulator

    study = CircuitStudy("lion")
    netlist = study.scan_circuit.netlist
    universe = collapse_universe(netlist)
    full = enumerate_stuck_at(netlist)
    sim_full = InterpretedSimulator(study.scan_circuit, study.table, full)
    sim_reps = InterpretedSimulator(
        study.scan_circuit, study.table, list(universe.representatives)
    )
    for test in study.generation.test_set:
        expanded = universe.expand(set(sim_reps.detects(test)))
        assert expanded == set(sim_full.detects(test))


def test_study_split_is_consistent():
    study = CircuitStudy("lion")
    split = study.stuck_at_split
    assert split.n_faults == len(study.stuck_at_faults)
    assert split.detected + split.redundant + split.missed == split.n_faults
    assert 0.0 <= split.coverage <= 100.0
    assert split.testable_coverage >= split.coverage


def test_split_undetected_rejects_contradictory_certificates():
    from repro.core.coverage import split_undetected
    from repro.errors import GenerationError

    fault = StuckAtFault(0, None, 1)
    with pytest.raises(GenerationError, match="detected"):
        split_undetected([fault], {fault}, frozenset({fault}))


def test_cached_sca_reports_metrics():
    from repro.obs.metrics import MetricsRegistry, set_registry
    from repro.perf.artifacts import cached_sca

    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        cached_sca(blocked_netlist())
        snapshot = registry.snapshot()
        assert snapshot["sca.faults"]["value"] > 0
        assert snapshot["sca.certificates"]["value"] > 0
        assert "sca.collapse_ratio" in snapshot
    finally:
        set_registry(previous)


# ----------------------------------------------------- payload validation


def _load_validator():
    path = Path(__file__).resolve().parents[1] / "scripts" / "validate_sca.py"
    spec = importlib.util.spec_from_file_location("validate_sca", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_validate_sca_accepts_real_payloads():
    validator = _load_validator()
    for build in (diamond_netlist, *REDUNDANT_NETLISTS):
        payload = analyze(build()).to_dict()
        assert validator.check_payload(payload) == []


def test_validate_sca_fails_on_unproved_constant():
    validator = _load_validator()
    payload = analyze(blocked_netlist()).to_dict()
    payload["constant_steps"] = []  # constants now lack their proofs
    problems = validator.check_payload(payload)
    assert any("unproved constant" in problem for problem in problems)


def test_validate_sca_flags_shape_problems():
    validator = _load_validator()
    payload = analyze(masked_netlist()).to_dict()
    payload["collapse"]["representatives"] = payload["collapse"]["faults"] + 1
    payload["certificates"][0]["reason"] = "because"
    payload["constant_steps"][0]["rule"] = "xor-identity"  # no replay exists
    problems = validator.check_payload(payload)
    assert any("more representatives" in problem for problem in problems)
    assert any("unknown reason" in problem for problem in problems)
    assert any("unknown derivation rule" in problem for problem in problems)
    assert validator.check_payload({}) != []
