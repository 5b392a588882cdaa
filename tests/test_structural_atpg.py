"""Structural ATPG (PODEM) vs exhaustive ground truth.

The load-bearing property is *verdict equivalence*: for any fault the
bounded structural search must return a test exactly when exhaustive
detectability (restricted to assigned state codes, the same constraint
the search enforces) says the fault is detectable — and an untestable
verdict exactly when it is not.  The sweep pins that equivalence on every
bundled benchmark circuit with a deterministic fault subset sized so the
widest netlists stay cheap; lion/bbtas/bbara run their full collapsed
universes with pinned counts.

On top of the sweep: hypothesis properties over random machines (the test
and untestable sets equal exhaustive detectability; every returned cube,
expanded and replayed through BOTH the PPSFP and big-int engines, detects
its target fault; untestable verdicts agree with static sca certificates
whenever one exists), certificate cross-validation on a
netlist with genuine structural redundancy, and budget-exhaustion edge
cases on a deep-reconvergence fixture — an exhausted budget must produce
an explicit ``aborted`` verdict, never ``untestable``.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings

from repro.atpg import (
    DEFAULT_BACKTRACK_LIMIT,
    STATUS_ABORTED,
    STATUS_TEST,
    STATUS_UNTESTABLE,
    generate_structural_tests,
)
from repro.atpg import engine as atpg_engine
from repro.atpg.model import FaultedCircuit, StateCodeConstraint
from repro.atpg.podem import podem_search
from repro.atpg.search import ABORT_BACKTRACKS, ABORT_TIME, SearchBudget
from repro.benchmarks import circuit_names, load_circuit
from repro.core.testset import ScanTest
from repro.errors import AtpgError
from repro.fuzz.strategies import state_tables
from repro.gatelevel.detectability import assigned_pattern_mask, detectable_faults
from repro.gatelevel.fault_sim import InterpretedSimulator
from repro.gatelevel.netlist import GateType, Netlist
from repro.gatelevel.ppsfp import PpsfpSimulator
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import StuckAtFault, collapse_stuck_at
from repro.gatelevel.synthesis import SynthesisOptions
from repro.sca.analysis import analyze
from repro.sca.certificates import UntestableCertificate
from repro.sca.scoap import compute_scoap

#: Cap on faults x exhaustive patterns for the all-circuits sweep ground
#: truth; keeps the widest machines to a few representative faults.
_TRUTH_CELL_BUDGET = 1 << 20

#: Cap on faults x gates for the per-circuit ATPG runs in the sweep — the
#: search cost scales with netlist size, not pattern count.
_ATPG_CELL_BUDGET = 1 << 15


@lru_cache(maxsize=None)
def _synthesize(name):
    table = load_circuit(name)
    circuit = ScanCircuit.from_machine(table, SynthesisOptions(max_fanin=4))
    return table, circuit


def _representatives(circuit):
    return sorted(set(collapse_stuck_at(circuit.netlist).values()))


def _ground_truth(circuit, faults):
    """Exhaustive detectability under the assigned-state-code constraint."""
    mask = assigned_pattern_mask(circuit.encoding, circuit.n_primary_inputs)
    return detectable_faults(circuit.netlist, faults, pattern_mask=mask)


def _pinned_subset(circuit, universe):
    """Deterministic stride subset sized for sweep-friendly runtimes."""
    patterns = 1 << (circuit.n_state_variables + circuit.n_primary_inputs)
    keep = max(
        1,
        min(
            len(universe),
            _TRUTH_CELL_BUDGET // patterns,
            _ATPG_CELL_BUDGET // max(1, circuit.netlist.n_gates),
        ),
    )
    stride = max(1, len(universe) // keep)
    return universe[::stride][:keep]


def _expanded_test(table, verdict):
    assert verdict.state is not None and verdict.combo is not None
    return ScanTest(
        verdict.state,
        (verdict.combo,),
        table.final_state(verdict.state, (verdict.combo,)),
    )


# ------------------------------------------------- all-circuits equivalence


class TestVerdictEquivalenceAllCircuits:
    """PODEM agrees with exhaustive detectability on every circuit."""

    @pytest.mark.parametrize("name", sorted(circuit_names()))
    def test_verdicts_match_exhaustive_detectability(self, name):
        table, circuit = _synthesize(name)
        faults = _pinned_subset(circuit, _representatives(circuit))
        detectable, undetectable = _ground_truth(circuit, faults)
        run = generate_structural_tests(circuit, table, faults, replay=True)
        assert not run.aborted, f"{name} aborted"
        assert {v.fault for v in run.tests} == detectable
        assert {v.fault for v in run.untestable} == undetectable
        assert all(v.witness for v in run.tests)


# ------------------------------------------------------------ pinned counts


class TestPinnedCounts:
    """Full collapsed universes with frozen verdict counts."""

    @pytest.mark.parametrize(
        "name, targets, tests, untestable",
        [("lion", 90, 81, 9), ("bbtas", 193, 177, 16), ("bbara", 775, 737, 38)],
    )
    def test_full_universe_counts(self, name, targets, tests, untestable):
        table, circuit = _synthesize(name)
        faults = _representatives(circuit)
        assert len(faults) == targets
        run = generate_structural_tests(circuit, table, faults, replay=True)
        assert run.n_targets == targets
        assert len(run.tests) == tests
        assert len(run.untestable) == untestable
        assert not run.aborted
        assert all(v.witness for v in run.tests)

    def test_witnesses_replay_on_budget_sized_chunks(self, monkeypatch):
        """A byte budget of four lion tables cuts the replay into chunks;
        the verdicts and witnesses stay those of the one-chunk replay."""
        table, circuit = _synthesize("lion")
        faults = _representatives(circuit)
        whole = generate_structural_tests(circuit, table, faults, replay=True)
        built = []
        real = atpg_engine.make_fault_simulator

        def recording(circuit, table, chunk, config=None):
            built.append(len(chunk))
            return real(circuit, table, chunk, config)

        monkeypatch.setattr(atpg_engine, "make_fault_simulator", recording)
        monkeypatch.setattr("repro.core.config.DEFAULT_PPSFP_BYTE_BUDGET", 4 * 16)
        chunked = generate_structural_tests(circuit, table, faults, replay=True)
        assert len(built) > 1 and max(built) <= 4
        assert chunked == whole

    def test_test_set_export(self):
        table, circuit = _synthesize("lion")
        run = generate_structural_tests(circuit, table, _representatives(circuit))
        test_set = run.test_set(table)
        assert len(list(test_set)) == len(run.tests)
        patterns = [v.pattern for v in sorted(run.tests, key=lambda v: v.pattern)]
        assert patterns == sorted(patterns)

    def test_verdict_payload_schema(self):
        table, circuit = _synthesize("lion")
        run = generate_structural_tests(circuit, table, _representatives(circuit))
        payload = run.to_dict()
        assert payload["targets"] == payload["tests"] + payload["untestable"]
        for verdict in payload["verdicts"]:
            assert verdict["status"] in (STATUS_TEST, STATUS_UNTESTABLE)
            if verdict["status"] == STATUS_TEST:
                assert set(verdict["cube"]) <= set("01X")
                assert verdict["witness"] is True


# -------------------------------------------------------------- properties


SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _machines():
    return state_tables(min_states=2, max_states=5, min_inputs=1, min_outputs=1)


class TestAtpgProperties:
    @SETTINGS
    @given(_machines())
    def test_cubes_detect_through_both_engines(self, table):
        """Every returned cube, expanded to a scan test, detects its target
        fault through the PPSFP engine *and* the interpreted reference, and
        untestable verdicts agree with static certificates when they exist.
        """
        circuit = ScanCircuit.from_machine(table, SynthesisOptions(max_fanin=4))
        faults = _representatives(circuit)
        if not faults:
            return
        certificates = analyze(circuit.netlist).certificates
        run = generate_structural_tests(
            circuit, table, faults, certificates=certificates, replay=False
        )
        assert not run.aborted
        if run.tests:
            ppsfp = PpsfpSimulator(circuit, table, faults)
            reference = InterpretedSimulator(circuit, table, faults)
            for verdict in run.tests:
                test = _expanded_test(table, verdict)
                assert verdict.fault in ppsfp.detects(test)
                assert verdict.fault in reference.detects(test)
        certified = {c.fault for c in certificates} & set(faults)
        untestable = {v.fault for v in run.untestable}
        assert certified <= untestable
        for verdict in run.untestable:
            assert verdict.certified == (verdict.fault in certified)

    @SETTINGS
    @given(_machines())
    def test_podem_matches_exhaustive_detectability(self, table):
        """PODEM's test and untestable sets are exactly the faults that
        exhaustive simulation over the assigned state codes detects and
        does not detect: an answer computed without any search."""
        circuit = ScanCircuit.from_machine(table, SynthesisOptions(max_fanin=4))
        faults = _representatives(circuit)
        if not faults:
            return
        detectable, undetectable = _ground_truth(circuit, faults)
        run = generate_structural_tests(circuit, table, faults, replay=False)
        assert not run.aborted
        assert {v.fault for v in run.tests} == detectable
        assert {v.fault for v in run.untestable} == undetectable


# --------------------------------------------- certificate cross-validation


def _const_path_netlist():
    """A netlist with genuine structural redundancy: an input whose only
    fanout is masked by a constant, so sca issues unobservability
    certificates for it."""
    netlist = Netlist("const-path")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    zero = netlist.add_gate(GateType.CONST0, ())
    masked = netlist.add_gate(GateType.AND, (a, zero))
    out = netlist.add_gate(GateType.OR, (masked, b))
    netlist.set_outputs([out])
    return netlist


def _free_constraint(width):
    """Every state code assigned — the constraint is vacuous."""
    return StateCodeConstraint(tuple(range(1 << width)), width)


class TestCertificateCrossValidation:
    def test_search_proves_certified_faults_untestable(self):
        netlist = _const_path_netlist()
        certificates = analyze(netlist).certificates
        assert certificates, "fixture must carry static certificates"
        scoap = compute_scoap(netlist)
        constraint = _free_constraint(2)
        for certificate in certificates:
            outcome = podem_search(
                FaultedCircuit(netlist, certificate.fault),
                scoap,
                constraint,
                SearchBudget(DEFAULT_BACKTRACK_LIMIT),
            )
            assert outcome.status == STATUS_UNTESTABLE, (
                "podem disagrees with certificate for "
                f"{certificate.fault.site()}"
            )

    def test_engine_marks_certified_untestable_verdicts(self):
        table, circuit = _synthesize("lion")
        faults = _representatives(circuit)
        baseline = generate_structural_tests(circuit, table, faults, replay=False)
        target = baseline.untestable[0].fault
        certificate = UntestableCertificate(target, "unobservable")
        run = generate_structural_tests(
            circuit, table, faults, certificates=(certificate,), replay=False
        )
        by_fault = {v.fault: v for v in run.untestable}
        assert by_fault[target].certified
        others = [v for v in run.untestable if v.fault != target]
        assert not any(v.certified for v in others)

    def test_engine_raises_on_contradicted_certificate(self):
        table, circuit = _synthesize("lion")
        faults = _representatives(circuit)
        baseline = generate_structural_tests(circuit, table, faults, replay=False)
        testable = baseline.tests[0].fault
        bogus = UntestableCertificate(testable, "unobservable")
        with pytest.raises(AtpgError, match="certificate"):
            generate_structural_tests(
                circuit, table, faults, certificates=(bogus,), replay=False
            )


# ------------------------------------------------------ budget exhaustion


def _deep_reconvergence_netlist(depth=6):
    """Stacked reconvergent XOR/XNOR diamonds, written in AND/OR/NOT;
    justifying a value at the sink forces the search to flip decisions
    deep in the stack, so even a small backtrack budget is exhausted."""
    netlist = Netlist("deep-reconv")

    def gate(kind, *fanins):
        return netlist.add_gate(kind, fanins)

    a = netlist.add_input("a")
    b = netlist.add_input("b")
    c = netlist.add_input("c")
    x, y = a, b
    for _ in range(depth):
        nx, ny = gate(GateType.NOT, x), gate(GateType.NOT, y)
        p = gate(  # x XOR y
            GateType.OR, gate(GateType.AND, x, ny), gate(GateType.AND, nx, y)
        )
        q = gate(  # x XNOR y
            GateType.OR, gate(GateType.AND, x, y), gate(GateType.AND, nx, ny)
        )
        x = gate(GateType.NOT, gate(GateType.AND, p, q))  # p NAND q
        y = gate(GateType.OR, p, c)
    out = gate(GateType.AND, x, y)
    netlist.set_outputs([out])
    return netlist, out


#: The search under test, passed in so its name stays in the test ids
#: (``[podem]``) that test records already know these cases by.
_SEARCH = pytest.mark.parametrize("search", [podem_search], ids=["podem"])


class TestBudgetExhaustion:
    """An exhausted budget must abort explicitly — never claim untestable."""

    @_SEARCH
    def test_backtrack_limit_zero_aborts_detectable_fault(self, search):
        netlist, out = _deep_reconvergence_netlist()
        fault = StuckAtFault(out, None, 1)
        scoap = compute_scoap(netlist)
        constraint = _free_constraint(2)
        full = search(
            FaultedCircuit(netlist, fault),
            scoap,
            constraint,
            SearchBudget(DEFAULT_BACKTRACK_LIMIT),
        )
        assert full.status == STATUS_TEST  # the fault IS detectable...
        assert full.backtracks > 0  # ...but only after backtracking
        starved = search(
            FaultedCircuit(netlist, fault), scoap, constraint, SearchBudget(0)
        )
        assert starved.status == STATUS_ABORTED
        assert starved.aborted_reason == ABORT_BACKTRACKS
        assert starved.cube is None

    @_SEARCH
    def test_time_budget_zero_aborts(self, search):
        netlist, out = _deep_reconvergence_netlist()
        fault = StuckAtFault(out, None, 1)
        scoap = compute_scoap(netlist)
        outcome = search(
            FaultedCircuit(netlist, fault),
            scoap,
            _free_constraint(2),
            SearchBudget(DEFAULT_BACKTRACK_LIMIT, time_budget_s=0.0),
        )
        assert outcome.status == STATUS_ABORTED
        assert outcome.aborted_reason == ABORT_TIME

    def test_engine_starved_run_never_misreports_untestable(self):
        """Under backtrack_limit=0 on a real circuit the engine may abort
        freely, but every verdict it still commits to must be correct."""
        table, circuit = _synthesize("lion")
        faults = _representatives(circuit)
        detectable, undetectable = _ground_truth(circuit, faults)
        run = generate_structural_tests(
            circuit, table, faults, backtrack_limit=0, replay=True
        )
        assert run.aborted, "limit 0 must starve at least one fault"
        assert {v.fault for v in run.tests} <= detectable
        assert {v.fault for v in run.untestable} <= undetectable
        for verdict in run.aborted:
            assert verdict.aborted_reason == ABORT_BACKTRACKS
        counted = len(run.tests) + len(run.untestable) + len(run.aborted)
        assert counted == run.n_targets

    def test_engine_rejects_bad_arguments(self):
        table, circuit = _synthesize("lion")
        with pytest.raises(AtpgError, match="backtrack"):
            generate_structural_tests(circuit, table, backtrack_limit=-1)
        with pytest.raises(AtpgError, match="trace capacity"):
            generate_structural_tests(circuit, table, trace_capacity=-1)
