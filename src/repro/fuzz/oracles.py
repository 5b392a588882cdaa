"""Cross-implementation oracle registry for the differential fuzzer.

An *oracle* checks one equivalence between two independently implemented
procedures — the shape of the paper's own central claim (chained functional
tests detect everything the per-transition baseline detects).  Each oracle
receives a :class:`FuzzCase` and returns normally when the implementations
agree, raises :class:`OracleFailure` with a human-readable detail when they
diverge, and raises :class:`OracleSkip` when the case is outside its domain
(for example gate-level oracles cap the machine size they synthesize).

Any *other* exception escaping an oracle is treated as a failure by the
runner — a crash in ``generate_tests`` on a random machine is exactly the
kind of bug the fuzzer exists to find.

Registered oracles
------------------
``uio-verify``          UIO search results re-proved against the state table
``coverage-chaining``   chained tests cover ⊇ the per-transition baseline
``kiss-roundtrip``      table → KISS2 text → table is the identity
``sim-ppsfp-vs-interpreted``
                        PPSFP per-test and batched detect masks vs the
                        interpreted reference
``detectability-ppsfp-vs-cone``
                        detectability read off PPSFP tables vs the cone oracle
``scan-vs-nonscan``     scan-test detection re-derived via the non-scan path
``synthesis-replay``    gate-level scan circuit replays equal table replays
``cache-replay``        a warm ATPG-cache replay equals the cold run
``atpg-vs-faultsim``    structural ATPG verdicts match exhaustive detectability
``bridging-conditions`` bridging universe equals the pairwise three-condition
                        reference, in full and sampled
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.core.baseline import per_transition_tests
from repro.core.coverage import verify_test_set
from repro.core.faultmodel import (
    StateTransitionFault,
    apply_fault,
    sample_faults,
    simulate_functional_faults,
)
from repro.core.generator import GenerationResult, generate_tests
from repro.errors import FuzzError, StateTableError
from repro.fsm.kiss import parse_kiss, table_to_kiss, write_kiss
from repro.fsm.state_table import StateTable
from repro.fuzz.generators import (
    BRIDGING_LIMIT,
    Fault,
    MachineSpec,
    random_gate_faults,
)
from repro.gatelevel.bridging import (
    BridgeKind,
    BridgingFault,
    enumerate_bridging_faults,
)
from repro.gatelevel.detectability import assigned_pattern_mask, detectable_faults
from repro.gatelevel.dispatch import detectable_mask, partition_by_mask
from repro.gatelevel.fault_sim import detects as interpreted_detects
from repro.gatelevel.netlist import CONTROLLING_VALUE, Netlist
from repro.gatelevel.ppsfp import PpsfpSimulator
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.synthesis import SynthesisOptions
from repro.nonscan.simulate import sequence_detects
from repro.perf.artifacts import cached_atpg, state_table_parts
from repro.perf.cache import cache_enabled, stable_hash
from repro.uio.search import compute_uio_table

__all__ = [
    "FuzzCase",
    "Oracle",
    "OracleFailure",
    "OracleSkip",
    "get_oracle",
    "oracle_names",
    "pairwise_bridging_faults",
    "resolve_oracles",
]

#: Size caps for oracles that synthesize a netlist; beyond these the
#: exhaustive ``verify_against`` sweep / PPSFP table builds stop being cheap.
_GATE_MAX_STATES = 8
_GATE_MAX_INPUTS = 2
_GATE_MAX_OUTPUTS = 3
#: At most this many generated tests are fault-simulated per case.
_GATE_MAX_TESTS = 6


class OracleFailure(Exception):
    """Two implementations disagreed; the message says how."""


class OracleSkip(Exception):
    """The case is outside this oracle's domain; the message says why."""


class FuzzCase:
    """One machine under test plus memoized derived artifacts.

    Oracles share expensive intermediates (generated tests, the synthesized
    scan circuit, the gate-level fault universe) through this object so that
    running every registered oracle on a case costs little more than the
    most expensive one.  Derived randomness (fault samples) is seeded from
    the *table contents*, not the case name, so a machine fails identically
    whether it arrives from the generator, the corpus, or the shrinker.
    """

    def __init__(
        self,
        name: str,
        table: StateTable,
        origin: str = "generated",
        spec: MachineSpec | None = None,
    ) -> None:
        self.name = name
        self.table = table
        self.origin = origin
        self.spec = spec
        self._memo: dict[str, Any] = {}

    @property
    def content_seed(self) -> str:
        """Seed string derived from the table contents (name-independent)."""
        if "content_seed" not in self._memo:
            self._memo["content_seed"] = stable_hash(state_table_parts(self.table))[
                :16
            ]
        return str(self._memo["content_seed"])

    def generation(self) -> GenerationResult:
        """``generate_tests`` on the table, memoized.

        Failures (including watchdog timeouts) are memoized too: several
        oracles need the generated tests, and when the generator hangs on
        this machine each of them would otherwise pay the full timeout.
        """
        if "generation" not in self._memo:
            try:
                self._memo["generation"] = generate_tests(self.table)
            except Exception as exc:
                self._memo["generation"] = exc
                raise
        result = self._memo["generation"]
        if isinstance(result, Exception):
            raise result
        assert isinstance(result, GenerationResult)
        return result

    def scan_circuit(self) -> ScanCircuit:
        """Synthesized (not yet verified) scan circuit, memoized."""
        if "circuit" not in self._memo:
            self._memo["circuit"] = ScanCircuit.from_machine(
                self.table, SynthesisOptions(max_fanin=4)
            )
        circuit: ScanCircuit = self._memo["circuit"]
        return circuit

    def gate_faults(self) -> list[Fault]:
        """Deterministic stuck-at + bridging universe, memoized."""
        if "faults" not in self._memo:
            self._memo["faults"] = random_gate_faults(
                self.scan_circuit(), self.content_seed
            )
        faults: list[Fault] = self._memo["faults"]
        return faults

    def __repr__(self) -> str:
        return f"<FuzzCase {self.name!r} ({self.origin})>"


@dataclass(frozen=True)
class Oracle:
    """A named differential check over one :class:`FuzzCase`."""

    name: str
    description: str
    run: Callable[[FuzzCase], None]


_REGISTRY: dict[str, Oracle] = {}


def _oracle(name: str, description: str) -> Callable[
    [Callable[[FuzzCase], None]], Callable[[FuzzCase], None]
]:
    def register(fn: Callable[[FuzzCase], None]) -> Callable[[FuzzCase], None]:
        _REGISTRY[name] = Oracle(name, description, fn)
        return fn

    return register


def oracle_names() -> tuple[str, ...]:
    """Every registered oracle name, sorted."""
    return tuple(sorted(_REGISTRY))


def get_oracle(name: str) -> Oracle:
    """The oracle called ``name``; raises :class:`FuzzError` when unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise FuzzError(
            f"unknown oracle {name!r}; known: {', '.join(oracle_names())}"
        ) from None


def resolve_oracles(names: Sequence[str] | None) -> tuple[Oracle, ...]:
    """Oracles for ``names`` (every registered oracle when empty/None)."""
    if not names:
        return tuple(_REGISTRY[name] for name in oracle_names())
    return tuple(get_oracle(name) for name in names)


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise OracleSkip(reason)


def _gate_level_case(case: FuzzCase) -> None:
    table = case.table
    _require(
        table.n_states <= _GATE_MAX_STATES
        and table.n_inputs >= 1
        and table.n_inputs <= _GATE_MAX_INPUTS
        and table.n_outputs >= 1
        and table.n_outputs <= _GATE_MAX_OUTPUTS,
        "gate-level oracles run on machines with <= "
        f"{_GATE_MAX_STATES} states, 1..{_GATE_MAX_INPUTS} inputs, "
        f"1..{_GATE_MAX_OUTPUTS} outputs",
    )


# ----------------------------------------------------------------- oracles


@_oracle("uio-verify", "UIO search results re-proved against the state table")
def _uio_verify(case: FuzzCase) -> None:
    table = case.table
    uio = compute_uio_table(table, table.n_state_variables + 1)
    try:
        uio.verify(table)  # independent re-proof of every stored sequence
    except StateTableError as exc:
        raise OracleFailure(str(exc)) from None
    shorter = compute_uio_table(table, 1)
    lost = [state for state in shorter.sequences if not uio.has(state)]
    if lost:
        raise OracleFailure(
            f"states {lost} have a length-1 UIO but none under the longer bound"
        )
    # Both searches settle their roots from one classification of the
    # table; re-prove the root verdicts from the responses alone.
    if table.n_states == 1:
        return  # the empty sequence is the UIO
    separating = _separating_inputs(table)
    for state in range(table.n_states):
        seq = uio.get(state)
        separated = state in separating
        if separated != (seq is not None and seq.length == 1):
            verdict = (
                f"input {separating[state]} separates state {state} from "
                "every other state"
                if separated
                else f"no single input separates state {state}"
            )
            stored = "no UIO" if seq is None else f"a UIO of length {seq.length}"
            raise OracleFailure(f"{verdict}, but the search stored {stored}")


def _separating_inputs(table: StateTable) -> dict[int, int]:
    """The first input, over all input combinations, whose one-step
    response separates each state from every other state, read through
    :meth:`StateTable.response`."""
    separating: dict[int, int] = {}
    for combo in range(table.n_input_combinations):
        responses = [table.response(state, (combo,)) for state in range(table.n_states)]
        for state, response in enumerate(responses):
            if state not in separating and responses.count(response) == 1:
                separating[state] = combo
    return separating


@_oracle(
    "coverage-chaining",
    "chained tests cover every transition the baseline covers, credited once",
)
def _coverage_chaining(case: FuzzCase) -> None:
    table = case.table
    result = case.generation()
    seen: set[tuple[int, int]] = set()
    for test in result.test_set:
        for key in test.tested:
            if key in seen:
                raise OracleFailure(f"transition {key} credited more than once")
            seen.add(key)
    report = verify_test_set(table, result.test_set)
    baseline = verify_test_set(table, per_transition_tests(table))
    missing = baseline.verified - report.verified
    if missing:
        raise OracleFailure(
            f"{len(missing)} transitions verified by the baseline but not by "
            f"the chained tests, e.g. {sorted(missing)[:3]}"
        )
    if not report.is_complete:
        raise OracleFailure(
            f"strict checker verified only {len(report.verified)}/"
            f"{report.n_transitions} transitions"
        )


@_oracle("kiss-roundtrip", "table -> KISS2 text -> table is the identity")
def _kiss_roundtrip(case: FuzzCase) -> None:
    table = case.table
    _require(
        table.n_inputs >= 1 and table.n_outputs >= 1,
        "KISS2 rows cannot express zero-width input/output cubes",
    )
    text = write_kiss(table_to_kiss(table))
    again = parse_kiss(text, name=table.name).to_state_table()
    if again != table:
        raise OracleFailure(
            "round-tripped table differs from the original "
            f"(states {again.n_states} vs {table.n_states})"
        )


@_oracle(
    "sim-ppsfp-vs-interpreted",
    "PPSFP per-test and batched detect masks equal the interpreted reference",
)
def _sim_ppsfp_vs_interpreted(case: FuzzCase) -> None:
    _gate_level_case(case)
    table = case.table
    circuit = case.scan_circuit()
    faults = case.gate_faults()
    _require(bool(faults), "empty gate-level fault universe")
    ppsfp = PpsfpSimulator(circuit, table, faults)
    tests = list(case.generation().test_set)[:_GATE_MAX_TESTS]
    batched = ppsfp.detect_masks(tests)
    for position, test in enumerate(tests):
        mask = ppsfp.detect_mask(test)
        interpreted = interpreted_detects(circuit, table, test, faults)
        reference = sum(
            1 << bit for bit, fault in enumerate(faults) if fault in interpreted
        )
        if mask != reference:
            delta = mask ^ reference
            sites = [
                faults[bit].site()
                for bit in range(len(faults))
                if delta >> bit & 1
            ]
            raise OracleFailure(
                f"test {test} masks diverge on {sites[:4]} "
                f"(ppsfp={mask:#x} interpreted={reference:#x})"
            )
        if batched[position] != mask:
            raise OracleFailure(
                f"test {test}: batched PPSFP mask {batched[position]:#x} "
                f"differs from the per-test mask {mask:#x}"
            )


@_oracle(
    "detectability-ppsfp-vs-cone",
    "detectability read off PPSFP tables equals the masked cone oracle",
)
def _detectability_ppsfp_vs_cone(case: FuzzCase) -> None:
    _gate_level_case(case)
    circuit = case.scan_circuit()
    faults = case.gate_faults()
    _require(bool(faults), "empty gate-level fault universe")
    # The split grading uses: the dispatch helper on a PPSFP simulator.
    simulator = PpsfpSimulator(circuit, case.table, faults)
    derived = partition_by_mask(faults, detectable_mask(simulator))
    # The reference judges only patterns a scan test can establish.
    mask = assigned_pattern_mask(circuit.encoding, circuit.n_primary_inputs)
    reference = detectable_faults(circuit.netlist, faults, pattern_mask=mask)
    if derived != reference:
        ppsfp_only = sorted(fault.site() for fault in derived[0] - reference[0])
        cone_only = sorted(fault.site() for fault in reference[0] - derived[0])
        raise OracleFailure(
            "PPSFP-derived detectability disagrees with the cone oracle: "
            f"ppsfp-only={ppsfp_only[:4]} cone-only={cone_only[:4]}"
        )


@_oracle(
    "scan-vs-nonscan",
    "scan-test fault detection re-derived through the non-scan simulator",
)
def _scan_vs_nonscan(case: FuzzCase) -> None:
    table = case.table
    faults = sample_faults(table, 12, seed=case.content_seed)
    _require(bool(faults), "no non-trivial state-transition faults exist")
    tests = case.generation().test_set
    scan_detected = simulate_functional_faults(table, tests, faults).detected
    independent: set[StateTransitionFault] = set()
    for fault in faults:
        faulty = apply_fault(table, fault)
        for test in tests:
            outputs_differ = sequence_detects(
                table, faulty, test.inputs, (test.initial_state,)
            )
            finals_differ = table.final_state(
                test.initial_state, test.inputs
            ) != faulty.final_state(test.initial_state, test.inputs)
            if outputs_differ or finals_differ:
                independent.add(fault)
                break
    if scan_detected != frozenset(independent):
        difference = scan_detected.symmetric_difference(independent)
        raise OracleFailure(
            f"{len(difference)} faults classified differently, "
            f"e.g. {sorted(difference, key=repr)[:2]}"
        )


@_oracle(
    "synthesis-replay",
    "gate-level scan circuit agrees with the state table on every test trace",
)
def _synthesis_replay(case: FuzzCase) -> None:
    _gate_level_case(case)
    table = case.table
    circuit = case.scan_circuit()
    circuit.verify_against(table)  # raises SynthesisError on any mismatch
    for test in list(case.generation().test_set)[:_GATE_MAX_TESTS]:
        gate = circuit.run_test(test)
        functional = test.replay(table)
        if gate != functional:
            raise OracleFailure(
                f"test {test}: netlist replay {gate} != table replay {functional}"
            )


@_oracle(
    "atpg-vs-faultsim",
    "structural ATPG finds a test iff exhaustive detectability agrees",
)
def _atpg_vs_faultsim(case: FuzzCase) -> None:
    from repro.atpg import STATUS_ABORTED, generate_structural_tests
    from repro.gatelevel.stuck_at import stuck_at_representatives

    _gate_level_case(case)
    table = case.table
    circuit = case.scan_circuit()
    netlist = circuit.netlist
    representatives = stuck_at_representatives(netlist)
    _require(bool(representatives), "empty collapsed stuck-at universe")
    # The ground truth must judge only patterns a scan test can establish
    # (assigned state codes), exactly the constraint the search honours.
    mask = assigned_pattern_mask(circuit.encoding, circuit.n_primary_inputs)
    detectable, undetectable = detectable_faults(
        netlist, representatives, pattern_mask=mask
    )
    run = generate_structural_tests(circuit, table, representatives, replay=True)
    for verdict in run.verdicts:
        if verdict.status == STATUS_ABORTED:
            raise OracleFailure(
                f"podem aborted on {verdict.fault.site()} under "
                "the default budget; complete searches must terminate"
            )
    found = {verdict.fault for verdict in run.tests}
    untestable = {verdict.fault for verdict in run.untestable}
    if found != detectable or untestable != undetectable:
        false_negative = sorted(fault.site() for fault in detectable - found)
        false_positive = sorted(fault.site() for fault in found - detectable)
        raise OracleFailure(
            "podem disagrees with exhaustive detectability: "
            f"missed={false_negative[:4]} phantom={false_positive[:4]}"
        )


def pairwise_bridging_faults(
    netlist: Netlist, limit: int | None = None, seed: int | str = 0
) -> list[BridgingFault]:
    """The paper's bridging universe, decided one line pair at a time.

    The reference for
    :func:`~repro.gatelevel.bridging.enumerate_bridging_faults`: condition
    1 from the gate kinds, condition 2 from the two consumer sets,
    condition 3 from a depth-first search along fanouts, and a ``limit``
    sample drawn from the list of qualifying pairs itself.
    """
    fanouts = netlist.fanouts()
    candidates = [
        gate.index
        for gate in netlist.gates
        if gate.kind in CONTROLLING_VALUE
        and gate.n_fanins >= 2
        and fanouts[gate.index]
    ]

    def descendants(line: int) -> set[int]:
        seen, stack = {line}, [line]
        while stack:
            for reader in fanouts[stack.pop()]:
                if reader not in seen:
                    seen.add(reader)
                    stack.append(reader)
        return seen

    below = {line: descendants(line) for line in candidates}
    pairs = [
        (line1, line2)
        for i, line1 in enumerate(candidates)
        for line2 in candidates[i + 1 :]
        if not set(fanouts[line1]) & set(fanouts[line2])
        and line2 not in below[line1]
        and line1 not in below[line2]
    ]
    if limit is not None and 0 <= limit < len(pairs):
        rng = random.Random(f"repro-bridging:{seed}")
        pairs = sorted(rng.sample(pairs, limit))
    return [
        BridgingFault(line1, line2, kind)
        for line1, line2 in pairs
        for kind in (BridgeKind.AND, BridgeKind.OR)
    ]


@_oracle(
    "bridging-conditions",
    "bridging universe equals the pairwise three-condition reference",
)
def _bridging_conditions(case: FuzzCase) -> None:
    _gate_level_case(case)
    netlist = case.scan_circuit().netlist
    for limit in (None, BRIDGING_LIMIT):
        enumerated = enumerate_bridging_faults(
            netlist, limit=limit, seed=case.content_seed
        )
        reference = pairwise_bridging_faults(
            netlist, limit=limit, seed=case.content_seed
        )
        if enumerated != reference:
            extra = sorted(f.site() for f in set(enumerated) - set(reference))
            missing = sorted(f.site() for f in set(reference) - set(enumerated))
            raise OracleFailure(
                f"bridging universe (limit={limit}) differs from the pairwise "
                f"reference: extra={extra[:4]} missing={missing[:4]}"
            )


@_oracle(
    "cache-replay",
    "a warm ATPG-cache replay is identical to the cold computation",
)
def _cache_replay(case: FuzzCase) -> None:
    _gate_level_case(case)
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") as root:
        with cache_enabled(root) as cache:
            cold = cached_atpg(case.scan_circuit(), case.table)
            warm = cached_atpg(case.scan_circuit(), case.table)
    if cache.hits != 1:
        raise OracleFailure(
            f"expected the warm run as the one cache hit, got {cache.hits} "
            f"hit(s) and {cache.misses} miss(es)"
        )
    if cold != warm:
        raise OracleFailure("warm ATPG run differs from the cold computation")
