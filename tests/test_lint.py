"""Tests for the static-analysis subsystem (``repro.lint``).

Every rule gets a passing fixture (the rule stays silent) and a failing
fixture (the rule fires with its documented id).  Some failing fixtures
require tampering with internals — that is the point: the analyzers
re-derive structure instead of trusting construction-time invariants.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import GeneratorConfig
from repro.core.generator import generate_tests
from repro.core.testset import ScanTest, Segment, SegmentKind
from repro.errors import (
    FaultSimulationError,
    GenerationError,
    LintError,
    NetlistError,
)
from repro.fsm.builders import StateTableBuilder
from repro.fsm.kiss import KissMachine, KissRow
from repro.gatelevel.netlist import Gate, GateType, Netlist
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import StuckAtFault
from repro.lint import (
    Diagnostic,
    LintReport,
    Severity,
    all_rules,
    analyze_machine,
    analyze_netlist,
    analyze_test_program,
    forget_netlist,
    get_rule,
    lint_kiss_source,
    preflight_machine,
    preflight_netlist,
    rules_for,
)
from repro.lint.diagnostics import cap_diagnostics
from repro.lint.netlist_rules import strongly_connected_components
from repro.uio.search import UioSequence, UioTable


def machine(rows, n_inputs=1, n_outputs=1, reset=None, name="m"):
    return KissMachine(
        n_inputs, n_outputs, [KissRow(*row) for row in rows], reset, name
    )


TOGGLE_ROWS = [
    ("0", "off", "off", "0"),
    ("1", "off", "on", "0"),
    ("0", "on", "on", "1"),
    ("1", "on", "off", "1"),
]


@pytest.fixture()
def toggle_machine():
    return machine(TOGGLE_ROWS, name="toggle")


def clean_netlist():
    net = Netlist("clean")
    a = net.add_input("a")
    b = net.add_input("b")
    g = net.add_gate(GateType.AND, (a, b))
    net.set_outputs([g])
    return net


def toggle_table():
    builder = StateTableBuilder(n_inputs=1, n_outputs=1, name="toggle")
    for cube, present, nxt, out in TOGGLE_ROWS:
        builder.add(present, int(cube, 2), nxt, int(out, 2))
    return builder.build()


# --------------------------------------------------------------------- FSM


def test_fsm_clean_machine_has_no_findings(toggle_machine):
    report = analyze_machine(toggle_machine)
    assert report.clean
    assert report.ok


def test_fsm000_fires_on_unparsable_kiss():
    report = lint_kiss_source("this is not KISS2 at all\n.x nonsense", name="junk")
    assert "FSM000" in report.fired_rules()
    assert not report.ok


def test_fsm000_silent_on_valid_kiss():
    text = ".i 1\n.o 1\n.s 2\n.p 4\n" + "\n".join(
        f"{c} {p} {n} {o}" for c, p, n, o in TOGGLE_ROWS
    )
    report = lint_kiss_source(text, name="toggle")
    assert "FSM000" not in report.fired_rules()
    assert report.ok


def test_fsm001_fires_on_incomplete_machine():
    incomplete = machine(TOGGLE_ROWS[:-1])
    report = analyze_machine(incomplete)
    assert "FSM001" in report.fired_rules()
    assert any("unspecified" in d.message for d in report.errors)


def test_fsm002_fires_on_conflicting_rows(toggle_machine):
    toggle_machine.rows.append(KissRow("0", "off", "on", "1"))
    report = analyze_machine(toggle_machine)
    assert "FSM002" in report.fired_rules()
    assert any("conflicting" in d.message for d in report.errors)


def test_fsm003_fires_on_unreachable_state():
    stranded = machine(
        [
            ("0", "a", "a", "0"),
            ("1", "a", "a", "1"),
            ("0", "b", "a", "0"),
            ("1", "b", "a", "0"),
        ],
        reset="a",
    )
    report = analyze_machine(stranded)
    fired = report.fired_rules()
    assert "FSM003" in fired
    diag = [d for d in report.warnings if d.rule_id == "FSM003"]
    assert any("'b'" in d.message for d in diag)


def test_fsm004_fires_on_trap_state():
    trapped = machine(
        [
            ("0", "a", "b", "0"),
            ("1", "a", "b", "0"),
            ("0", "b", "b", "1"),
            ("1", "b", "b", "1"),
        ],
        reset="a",
    )
    report = analyze_machine(trapped)
    assert "FSM004" in report.fired_rules()


def test_fsm004_silent_on_toggle(toggle_machine):
    assert "FSM004" not in analyze_machine(toggle_machine).fired_rules()


def test_fsm005_fires_on_equivalent_states():
    redundant = machine(
        [
            ("0", "a", "b", "0"),
            ("1", "a", "c", "0"),
            ("0", "b", "a", "1"),
            ("1", "b", "a", "1"),
            ("0", "c", "a", "1"),
            ("1", "c", "a", "1"),
        ],
        reset="a",
    )
    report = analyze_machine(redundant)
    assert "FSM005" in report.fired_rules()
    assert any("equivalent" in d.message for d in report.warnings)


def test_fsm005_skipped_without_expensive_rules():
    redundant = machine(
        [
            ("0", "a", "b", "0"),
            ("1", "a", "b", "0"),
            ("0", "b", "b", "0"),
            ("1", "b", "b", "0"),
        ],
        reset="a",
    )
    report = analyze_machine(redundant, include_expensive=False)
    assert "FSM005" not in report.fired_rules()


def test_fsm006_fires_on_bad_cube_width():
    bad = machine([("00", "a", "a", "0"), ("1", "a", "a", "0")])
    report = analyze_machine(bad)
    assert "FSM006" in report.fired_rules()
    assert any("width" in d.message for d in report.errors)


def test_fsm007_fires_on_overwide_output_declaration():
    wide = machine(
        [
            ("0", "a", "a", "00"),
            ("1", "a", "b", "01"),
            ("0", "b", "b", "01"),
            ("1", "b", "a", "00"),
        ],
        n_outputs=2,
    )
    report = analyze_machine(wide)
    assert "FSM007" in report.fired_rules()
    assert report.ok  # INFO only


def test_fsm008_fires_on_unserializable_state_name():
    hashy = machine([("0", "s#x", "s#x", "0"), ("1", "s#x", "s#x", "0")])
    report = analyze_machine(hashy)
    assert "FSM008" in report.fired_rules()
    assert not report.ok


def test_fsm008_silent_on_toggle(toggle_machine):
    assert "FSM008" not in analyze_machine(toggle_machine).fired_rules()


def test_fsm009_fires_on_tampered_state_names():
    table = toggle_table()
    object.__setattr__(table, "state_names", ("off", "off"))
    report = analyze_machine(table)
    assert "FSM009" in report.fired_rules()
    assert any("not unique" in d.message for d in report.errors)


def test_fsm009_silent_on_dense_table():
    report = analyze_machine(toggle_table())
    assert "FSM009" not in report.fired_rules()
    assert report.ok


def test_kiss_machine_lint_convenience():
    incomplete = machine(TOGGLE_ROWS[:-1])
    report = incomplete.lint()
    assert "FSM001" in report.fired_rules()


# ----------------------------------------------------------------- netlist


def test_netlist_clean_has_no_findings():
    report = analyze_netlist(clean_netlist())
    assert report.clean


def test_net001_fires_on_combinational_cycle():
    net = Netlist("cyclic")
    net.add_input("a")
    net.add_gate(GateType.AND, (0, 0))
    net.add_gate(GateType.OR, (0, 1))
    net.set_outputs([2])
    # Rewire gate 1 to read gate 2: a 2-gate combinational loop.
    net._gates[1] = Gate(1, GateType.AND, (0, 2))
    report = analyze_netlist(net)
    assert "NET001" in report.fired_rules()
    assert any("cycle" in d.message for d in report.errors)


def test_net001_detects_self_loop():
    net = Netlist("selfloop")
    net.add_input("a")
    net.add_gate(GateType.AND, (0, 0))
    net.set_outputs([1])
    net._gates[1] = Gate(1, GateType.AND, (0, 1))
    report = analyze_netlist(net)
    assert "NET001" in report.fired_rules()


def test_net002_fires_on_nonexistent_fanin():
    net = clean_netlist()
    net._gates[2] = Gate(2, GateType.AND, (0, 99))
    report = analyze_netlist(net)
    assert "NET002" in report.fired_rules()
    assert any("nonexistent" in d.message for d in report.errors)


def test_net002_fires_on_dangling_output():
    net = clean_netlist()
    net._outputs = [99]
    report = analyze_netlist(net)
    assert "NET002" in report.fired_rules()


def test_net003_fires_on_dead_logic_and_unused_input():
    net = Netlist("dangling")
    a = net.add_input("a")
    b = net.add_input("b")
    net.add_input("unused")
    g = net.add_gate(GateType.AND, (a, b))
    net.add_gate(GateType.OR, (a, b), name="dead")
    net.set_outputs([g])
    report = analyze_netlist(net)
    assert "NET003" in report.fired_rules()
    assert any(d.severity is Severity.WARNING for d in report.diagnostics)
    assert any(d.severity is Severity.INFO for d in report.diagnostics)
    assert report.ok  # never ERROR


def test_net004_fires_on_arity_violation():
    net = clean_netlist()
    net._gates[2] = Gate(2, GateType.NOT, (0, 1))
    report = analyze_netlist(net)
    assert "NET004" in report.fired_rules()


def test_net005_fires_without_outputs():
    net = Netlist("blind")
    a = net.add_input("a")
    net.add_gate(GateType.NOT, (a,))
    report = analyze_netlist(net)
    assert "NET005" in report.fired_rules()
    assert any("no outputs" in d.message for d in report.errors)


def test_net006_fires_on_inconsistent_scan_interface(toggle_machine):
    scan = ScanCircuit.from_machine(toggle_machine)
    assert analyze_netlist(scan).ok
    scan.n_primary_inputs += 1
    report = analyze_netlist(scan)
    assert "NET006" in report.fired_rules()


def test_net006_skipped_for_bare_netlist():
    # The scan-chain rule needs a scan circuit; bare netlists never fire it.
    assert "NET006" not in analyze_netlist(clean_netlist()).fired_rules()


def sca_blocked_netlist():
    """NOT(c) cut off by a CONST0 side input: constants, dead cone, certs."""
    net = Netlist("blocked")
    a = net.add_input("a")                      # 0
    c = net.add_input("c")                      # 1
    d = net.add_gate(GateType.NOT, (c,))        # 2: unobservable
    z = net.add_gate(GateType.CONST0, ())       # 3
    g = net.add_gate(GateType.AND, (d, z))      # 4: provably constant 0
    out = net.add_gate(GateType.OR, (g, a))     # 5
    net.set_outputs([out])
    return net


def deep_netlist():
    """Exponential CC1 growth: pathological SCOAP without any redundancy."""
    net = Netlist("deep")
    line = net.add_input("a")
    for _ in range(12):
        line = net.add_gate(GateType.AND, (line, line))
    net.set_outputs([line])
    return net


def test_net007_fires_on_proven_constant_gate():
    report = analyze_netlist(sca_blocked_netlist())
    assert "NET007" in report.fired_rules()
    findings = [d for d in report.diagnostics if d.rule_id == "NET007"]
    assert any(d.location == "gate 4" for d in findings)
    # The CONST0 generator itself is constant on purpose: never reported.
    assert not any(d.location == "gate 3" for d in findings)
    assert report.ok  # WARNING, not ERROR


def test_net007_silent_on_clean_netlist():
    assert "NET007" not in analyze_netlist(clean_netlist()).fired_rules()


def test_net008_fires_on_unobservable_gate():
    report = analyze_netlist(sca_blocked_netlist())
    findings = [d for d in report.diagnostics if d.rule_id == "NET008"]
    # The NOT gate (line 2) is live, non-constant, and provably blocked.
    assert any(d.location == "gate 2" for d in findings)
    # The blocked primary input is NET009's finding, not NET008's.
    assert not any(d.location == "gate 1" for d in findings)


def test_net008_silent_on_clean_netlist():
    assert "NET008" not in analyze_netlist(clean_netlist()).fired_rules()


def test_net009_fires_on_dead_input_cone():
    report = analyze_netlist(sca_blocked_netlist())
    findings = [d for d in report.diagnostics if d.rule_id == "NET009"]
    assert any(d.location == "gate 1" for d in findings)


def test_net009_silent_on_clean_netlist():
    assert "NET009" not in analyze_netlist(clean_netlist()).fired_rules()


def test_net010_summarizes_certified_redundancy():
    report = analyze_netlist(sca_blocked_netlist())
    findings = [d for d in report.diagnostics if d.rule_id == "NET010"]
    assert len(findings) == 1  # one summary, not one per fault
    assert findings[0].severity is Severity.INFO
    assert "provably untestable" in findings[0].message


def test_net010_silent_without_certificates():
    assert "NET010" not in analyze_netlist(clean_netlist()).fired_rules()


def test_net011_fires_on_pathological_scoap():
    report = analyze_netlist(deep_netlist())
    assert "NET011" in report.fired_rules()
    assert report.ok  # INFO only


def test_net011_silent_on_clean_netlist():
    assert "NET011" not in analyze_netlist(clean_netlist()).fired_rules()
    # ... and on a real benchmark netlist: the threshold sits above the
    # corpus's worst finite testability on purpose.
    scan = ScanCircuit.from_machine(
        machine(TOGGLE_ROWS, name="toggle")
    )
    assert "NET011" not in analyze_netlist(scan).fired_rules()


def test_sca_rules_stay_silent_on_broken_netlists():
    # Structurally invalid netlists belong to the ERROR rules; the sca
    # analyses must not crash the sweep or double-report.
    net = clean_netlist()
    net._gates[2] = Gate(2, GateType.AND, (0, 99))
    report = analyze_netlist(net)
    assert "NET002" in report.fired_rules()
    assert not report.fired_rules() & {"NET007", "NET008", "NET009",
                                       "NET010", "NET011"}


def test_sca_rules_are_expensive_and_skip_preflight():
    from repro.lint.registry import get_rule

    for rule_id in ("NET007", "NET008", "NET009", "NET010", "NET011"):
        rule = get_rule(rule_id)
        assert rule.cost == "expensive"
        assert rule.severity is not Severity.ERROR
    # A netlist full of sca findings still passes the cheap preflight.
    preflight_netlist(sca_blocked_netlist())


def test_scc_helper_finds_components():
    # 0 -> 1 -> 2 -> 1 (cycle {1, 2}), 3 isolated.
    components = strongly_connected_components(4, [(1,), (2,), (1,), ()])
    assert [1, 2] in components
    assert sum(len(c) for c in components) == 4


# ------------------------------------------------------------ test programs


def test_test_program_clean(lion, lion_result):
    report = analyze_test_program(
        lion, lion_result.test_set, GeneratorConfig(), lion_result.uio_table
    )
    assert report.ok
    assert not report.warnings


def test_tst001_fires_on_overlong_uio_segment():
    table = toggle_table()
    test = ScanTest.from_segments(
        initial_state=0,
        inputs=(1, 0, 0, 0),
        final_state=1,
        segments=(
            Segment(SegmentKind.TRANSITION, 0, (1,)),
            Segment(SegmentKind.UIO, 1, (0, 0, 0)),
        ),
        tested=((0, 1),),
    )
    report = analyze_test_program(table, [test], GeneratorConfig())
    assert "TST001" in report.fired_rules()


def test_tst001_fires_on_overlong_stored_uio():
    table = toggle_table()
    uios = UioTable(
        machine_name="toggle",
        max_length=1,
        sequences={0: UioSequence(0, (0, 0), 0)},
    )
    report = analyze_test_program(table, [], uio_table=uios)
    assert "TST001" in report.fired_rules()


def test_tst002_fires_on_wrong_final_state():
    table = toggle_table()
    test = ScanTest.from_segments(
        initial_state=0,
        inputs=(1,),
        final_state=0,  # input 1 from 'off' lands on 'on' (state 1)
        segments=(Segment(SegmentKind.TRANSITION, 0, (1,)),),
        tested=((0, 1),),
    )
    report = analyze_test_program(table, [test])
    assert "TST002" in report.fired_rules()


def test_tst002_fires_on_broken_segment_chain():
    table = toggle_table()
    test = ScanTest.from_segments(
        initial_state=0,
        inputs=(1,),
        final_state=1,
        segments=(Segment(SegmentKind.TRANSITION, 1, (1,)),),
        tested=(),
    )
    report = analyze_test_program(table, [test])
    assert any(
        d.rule_id == "TST002" and "start state" in d.message for d in report.errors
    )


def test_tst003_fires_on_out_of_range_references():
    table = toggle_table()
    tests = [
        ScanTest(initial_state=5, inputs=(0,), final_state=5),
        ScanTest(initial_state=0, inputs=(7,), final_state=0),
    ]
    report = analyze_test_program(table, tests)
    diag = [d for d in report.errors if d.rule_id == "TST003"]
    assert len(diag) == 2


def test_tst004_fires_on_unearned_coverage_claim():
    table = toggle_table()
    test = ScanTest(
        initial_state=0,
        inputs=(0,),
        final_state=0,
        tested=((0, 1),),  # claims a transition no segment exercises
    )
    report = analyze_test_program(table, [test])
    assert "TST004" in report.fired_rules()


def test_tst005_fires_on_coverage_gap():
    table = toggle_table()
    test = ScanTest.from_segments(
        initial_state=0,
        inputs=(1,),
        final_state=1,
        segments=(Segment(SegmentKind.TRANSITION, 0, (1,)),),
        tested=((0, 1),),
    )
    report = analyze_test_program(table, [test])
    diag = [d for d in report.warnings if d.rule_id == "TST005"]
    assert len(diag) == 1
    assert "never" in diag[0].message


def test_tst006_fires_on_overlong_transfer():
    table = toggle_table()
    test = ScanTest.from_segments(
        initial_state=0,
        inputs=(0, 0),
        final_state=0,
        segments=(Segment(SegmentKind.TRANSFER, 0, (0, 0)),),
        tested=(),
    )
    report = analyze_test_program(
        table, [test], GeneratorConfig(max_transfer_length=1)
    )
    assert "TST006" in report.fired_rules()


def test_tst006_fires_when_transfers_disabled():
    table = toggle_table()
    test = ScanTest.from_segments(
        initial_state=0,
        inputs=(0,),
        final_state=0,
        segments=(Segment(SegmentKind.TRANSFER, 0, (0,)),),
        tested=(),
    )
    report = analyze_test_program(
        table, [test], GeneratorConfig(max_transfer_length=0)
    )
    assert "TST006" in report.fired_rules()


# ----------------------------------------------------- registry & reporting


def test_registry_ids_are_unique_and_sorted():
    rules = all_rules()
    ids = [rule.rule_id for rule in rules]
    assert len(set(ids)) == len(ids)
    assert ids == sorted(ids)
    assert len(rules) >= 22


def test_registry_lookup_by_id_and_name():
    assert get_rule("FSM001").name == "fsm-completeness"
    assert get_rule("fsm-completeness").rule_id == "FSM001"
    with pytest.raises(LintError):
        get_rule("FSM999")


def test_rules_for_filters():
    errors = rules_for("fsm", errors_only=True)
    assert errors and all(r.severity is Severity.ERROR for r in errors)
    cheap = rules_for("fsm", include_expensive=False)
    assert all(r.cost == "cheap" for r in cheap)
    assert {"FSM005", "FSM008"}.isdisjoint({r.rule_id for r in cheap})
    with pytest.raises(LintError):
        rules_for("hardware")


def test_cap_diagnostics_summarizes_overflow():
    flood = [
        Diagnostic("X001", Severity.ERROR, f"finding {i}") for i in range(30)
    ]
    capped = list(cap_diagnostics(flood, limit=25))
    assert len(capped) == 26
    assert "5 more" in capped[-1].message
    assert capped[-1].severity is Severity.ERROR


def test_report_merge_and_raise():
    d1 = Diagnostic("A001", Severity.WARNING, "w")
    d2 = Diagnostic("B001", Severity.ERROR, "boom", location="gate 3")
    merged = LintReport((d1,)).merged(LintReport((d2,)))
    assert len(merged) == 2
    assert not merged.ok and not merged.clean
    with pytest.raises(LintError, match=r"\[B001\] gate 3: boom"):
        merged.raise_on_errors()
    with pytest.raises(NetlistError):
        merged.raise_on_errors(NetlistError)
    LintReport((d1,)).raise_on_errors()  # warnings never raise


def test_sarif_document_shape(toggle_machine):
    toggle_machine.rows.append(KissRow("0", "off", "on", "1"))
    report = analyze_machine(toggle_machine, name="toggle")
    document = json.loads(report.to_json())
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert any(rule["id"] == "FSM002" for rule in run["tool"]["driver"]["rules"])
    result = run["results"][0]
    assert result["ruleId"] == "FSM002"
    assert result["level"] == "error"
    assert "toggle" in result["locations"][0]["logicalLocations"][0][
        "fullyQualifiedName"
    ]


def test_sarif_2_1_0_envelope_and_rule_metadata(toggle_machine):
    from repro import __version__

    toggle_machine.rows.append(KissRow("0", "off", "on", "1"))
    report = analyze_machine(toggle_machine, name="toggle")
    document = report.to_sarif()
    assert document["$schema"].endswith("sarif-2.1.0.json")
    run = document["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["version"] == __version__
    assert driver["informationUri"].startswith("https://")
    assert run["columnKind"] == "utf16CodeUnits"
    rules = driver["rules"]
    # Registered rules carry their default severity level.
    by_id = {rule["id"]: rule for rule in rules}
    assert by_id["FSM002"]["defaultConfiguration"] == {"level": "error"}
    # Every result's ruleIndex points back at its own rule entry.
    for result in run["results"]:
        index = result["ruleIndex"]
        assert rules[index]["id"] == result["ruleId"]


def test_render_groups_by_artifact():
    report = LintReport(
        (
            Diagnostic("A001", Severity.ERROR, "first", artifact="m1"),
            Diagnostic("A001", Severity.WARNING, "second", artifact="m2"),
        )
    )
    text = report.render("check")
    assert "check: 1 error(s), 1 warning(s), 0 note(s)" in text
    assert "m1:" in text and "m2:" in text


# -------------------------------------------------------------- preflights


def test_generator_preflight_rejects_tampered_table():
    table = toggle_table()
    object.__setattr__(table, "state_names", ("off", "off"))
    with pytest.raises(GenerationError, match="FSM009"):
        generate_tests(table, GeneratorConfig())


def test_netlist_check_delegates_to_analyzer():
    net = Netlist("bad")
    net.add_input("a")
    net.add_gate(GateType.AND, (0, 0))
    net.set_outputs([1])
    net.check()
    net._gates[1] = Gate(1, GateType.AND, (0, 1))
    with pytest.raises(NetlistError, match="NET001"):
        net.check()


def test_preflight_netlist_memoizes_until_forgotten():
    net = clean_netlist()
    preflight_netlist(net)
    net._gates[2] = Gate(2, GateType.AND, (0, 99))
    preflight_netlist(net)  # cached verdict: still considered clean
    forget_netlist(net)
    with pytest.raises(LintError):
        preflight_netlist(net)


def test_preflight_verdict_follows_set_outputs():
    net = clean_netlist()
    preflight_netlist(net)
    net.set_outputs([])
    with pytest.raises(LintError, match="NET005"):
        preflight_netlist(net)
    net.set_outputs([2])
    preflight_netlist(net)


def test_a_passing_check_spares_the_preflight(monkeypatch):
    """``Netlist.check()`` runs every ERROR rule, the preflight's among
    them, so the preflight does not run them again until the netlist
    changes."""
    import repro.lint.netlist_rules as netlist_rules

    runs = []
    analyze = netlist_rules.analyze_netlist

    def counted(*args, **kwargs):
        runs.append(kwargs.get("include_expensive", True))
        return analyze(*args, **kwargs)

    monkeypatch.setattr(netlist_rules, "analyze_netlist", counted)
    net = clean_netlist()
    net.check()
    preflight_netlist(net)
    assert runs == [True]
    net.set_outputs([2])
    preflight_netlist(net)
    preflight_netlist(net)
    assert runs == [True, False]


def test_the_verdict_stays_out_of_pickles():
    import pickle

    fresh = pickle.dumps(clean_netlist())
    net = clean_netlist()
    net.check()
    preflight_netlist(net)
    assert pickle.dumps(net) == fresh


def test_preflight_machine_custom_exception():
    table = toggle_table()
    object.__setattr__(table, "state_names", ("off", "off"))
    with pytest.raises(GenerationError):
        preflight_machine(table, GenerationError)


def test_fault_sim_preflight_rejects_cyclic_netlist(toggle_machine):
    from repro.gatelevel.fault_sim import detects

    circuit = ScanCircuit.from_machine(toggle_machine)
    table = toggle_table()
    test = ScanTest(initial_state=0, inputs=(0,), final_state=0)
    index = circuit.netlist.n_gates - 1
    broken = Gate(index, GateType.AND, (0, index))
    forget_netlist(circuit.netlist)
    circuit.netlist._gates[index] = broken
    with pytest.raises(FaultSimulationError, match="NET001"):
        detects(circuit, table, test, [StuckAtFault(0, None, 1)])


# --------------------------------------------------------------------- CLI


def test_cli_lint_clean_circuit(capsys):
    from repro.cli import main

    assert main(["lint", "--circuits", "lion"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_cli_lint_json_output(capsys):
    from repro.cli import main

    code = main(
        ["lint", "--circuits", "lion", "--format", "json",
         "--no-gatelevel", "--no-tests"]
    )
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["runs"][0]["tool"]["driver"]["name"] == "repro-lint"


def test_cli_lint_kiss_file_errors(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "incomplete.kiss"
    bad.write_text(".i 1\n.o 1\n.s 2\n.p 1\n0 s0 s1 0\n")
    assert main(["lint", "--kiss", str(bad)]) == 1
    assert "FSM001" in capsys.readouterr().out


def test_cli_lint_strict_promotes_warnings(tmp_path, capsys):
    from repro.cli import main

    stranded = tmp_path / "stranded.kiss"
    stranded.write_text(
        ".i 1\n.o 1\n.s 2\n.r a\n.p 4\n"
        "0 a a 0\n1 a a 1\n0 b a 0\n1 b a 0\n"
    )
    assert main(["lint", "--kiss", str(stranded)]) == 0
    assert main(["lint", "--kiss", str(stranded), "--strict"]) == 1
    assert "FSM003" in capsys.readouterr().out


def test_cli_lint_missing_file_is_usage_error(capsys):
    from repro.cli import main

    assert main(["lint", "--kiss", "/nonexistent/file.kiss"]) == 2
