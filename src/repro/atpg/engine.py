"""Structural ATPG engine: targets, verdicts, witnesses, and top-off.

:func:`generate_structural_tests` drives PODEM over a collapsed fault list
of a synthesized scan circuit.  Every verdict is defended, not just
asserted:

* a ``test`` verdict carries a cube that is expanded to a concrete scan
  pattern (state bits restricted to *assigned* codes) and immediately
  replayed through the production fault simulator, on the dispatcher's
  chunk holding the fault — a machine-checked witness; a replay miss
  raises :class:`~repro.errors.AtpgError`;
* an ``untestable`` verdict carries the bounded-search certificate
  (decisions / backtracks under the limit, search exhausted) and is
  cross-validated against any static :mod:`repro.sca.certificates` proof
  for the same fault — a contradiction raises;
* an ``aborted`` verdict (budget exhausted) claims nothing and is never
  folded into the untestable count.

:func:`top_off` targets exactly the representatives a functional test set
missed and reports the combined functional + structural coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.progress import ProgressMeter

from repro.atpg.model import FaultedCircuit, StateCodeConstraint
from repro.atpg.podem import podem_search
from repro.atpg.search import (
    DEFAULT_BACKTRACK_LIMIT,
    DEFAULT_TRACE_CAPACITY,
    STATUS_ABORTED,
    STATUS_TEST,
    STATUS_UNTESTABLE,
    SearchBudget,
    SearchEvent,
    SearchOutcome,
    SearchTrace,
)
from repro.core.config import FaultSimConfig
from repro.core.testset import ScanTest, Segment, SegmentKind, TestSet
from repro.errors import AtpgError
from repro.fsm.state_table import StateTable
from repro.gatelevel.dispatch import (
    FaultSimulator,
    circuit_chunks,
    make_fault_simulator,
)
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import StuckAtFault, stuck_at_representatives
from repro.obs.metrics import counter_add, histogram_observe
from repro.sca.certificates import UntestableCertificate
from repro.sca.scoap import ScoapMeasures, compute_scoap

__all__ = [
    "ATPG_SCHEMA",
    "AtpgRun",
    "FaultVerdict",
    "TopOffReport",
    "generate_structural_tests",
    "top_off",
]

#: JSON schema identifier of :meth:`AtpgRun.to_dict` payloads.
ATPG_SCHEMA = "repro-fsatpg-atpg/1"


def cube_string(cube: tuple[int, ...]) -> str:
    """Render a cube as MSB-first input literals, ``X`` for don't-care."""
    return "".join("X" if bit < 0 else str(bit) for bit in cube)


@dataclass(frozen=True)
class FaultVerdict:
    """One fault's defended verdict."""

    fault: StuckAtFault
    status: str
    cube: tuple[int, ...] | None
    #: Concrete expansion of the cube (``test`` verdicts only).
    state: int | None
    combo: int | None
    pattern: int | None
    decisions: int
    backtracks: int
    aborted_reason: str | None
    #: ``True`` once the fault simulator replayed the test and saw the
    #: detection; ``None`` when replay was disabled or not applicable.
    witness: bool | None
    #: ``True`` when a static sca certificate exists and agrees.
    certified: bool
    #: Search forensics: the retained ring-buffer events (aborted targets
    #: always keep theirs; the hardest-N by backtracks keep theirs too).
    search_trace: tuple[SearchEvent, ...] | None = None
    #: Total events the search recorded (``> len(search_trace)`` when the
    #: ring wrapped); 0 when tracing was off.
    trace_total: int = 0

    def to_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "fault": {
                "gate": self.fault.gate,
                "pin": self.fault.pin,
                "value": self.fault.value,
                "site": self.fault.site(),
            },
            "status": self.status,
            "decisions": self.decisions,
            "backtracks": self.backtracks,
        }
        if self.status == STATUS_TEST:
            assert self.cube is not None
            payload["cube"] = cube_string(self.cube)
            payload["state"] = self.state
            payload["combo"] = self.combo
            payload["pattern"] = self.pattern
            payload["witness"] = self.witness
        if self.status == STATUS_ABORTED:
            payload["aborted_reason"] = self.aborted_reason
        if self.status == STATUS_UNTESTABLE:
            payload["certified"] = self.certified
        if self.search_trace is not None:
            payload["search_trace"] = {
                "total": self.trace_total,
                "dropped": self.trace_total - len(self.search_trace),
                "events": [event.to_dict() for event in self.search_trace],
            }
        return payload


@dataclass(frozen=True)
class AtpgRun:
    """Per-circuit result of one structural ATPG sweep."""

    circuit: str
    backtrack_limit: int
    verdicts: tuple[FaultVerdict, ...]

    @property
    def n_targets(self) -> int:
        return len(self.verdicts)

    @property
    def tests(self) -> tuple[FaultVerdict, ...]:
        return tuple(v for v in self.verdicts if v.status == STATUS_TEST)

    @property
    def untestable(self) -> tuple[FaultVerdict, ...]:
        return tuple(v for v in self.verdicts if v.status == STATUS_UNTESTABLE)

    @property
    def aborted(self) -> tuple[FaultVerdict, ...]:
        return tuple(v for v in self.verdicts if v.status == STATUS_ABORTED)

    @property
    def coverage_pct(self) -> float:
        """Tests found over targets, counting aborted faults as misses."""
        if not self.verdicts:
            return 100.0
        return 100.0 * len(self.tests) / self.n_targets

    @property
    def total_backtracks(self) -> int:
        return sum(v.backtracks for v in self.verdicts)

    def test_set(self, table: StateTable) -> TestSet:
        """The found tests as length-1 scan tests, smallest pattern first."""
        tests = []
        for verdict in sorted(
            self.tests, key=lambda v: (v.pattern, v.fault.sort_key)
        ):
            assert verdict.state is not None and verdict.combo is not None
            tests.append(_scan_test(table, verdict.state, verdict.combo))
        return TestSet(
            table.name, table.n_state_variables, table.n_transitions, tests
        )

    def to_dict(self, *, include_verdicts: bool = True) -> dict[str, object]:
        payload: dict[str, object] = {
            "circuit": self.circuit,
            # The schema names the search; PODEM is the only one.
            "algorithm": "podem",
            "backtrack_limit": self.backtrack_limit,
            "targets": self.n_targets,
            "tests": len(self.tests),
            "untestable": len(self.untestable),
            "aborted": len(self.aborted),
            "coverage_pct": round(self.coverage_pct, 2),
            "backtracks": self.total_backtracks,
        }
        if include_verdicts:
            payload["verdicts"] = [v.to_dict() for v in self.verdicts]
        return payload


@dataclass(frozen=True)
class TopOffReport:
    """Structural top-off of a functional test set's fault coverage."""

    n_representatives: int
    n_functional_detected: int
    run: AtpgRun

    @property
    def functional_coverage_pct(self) -> float:
        if self.n_representatives == 0:
            return 100.0
        return 100.0 * self.n_functional_detected / self.n_representatives

    @property
    def combined_coverage_pct(self) -> float:
        if self.n_representatives == 0:
            return 100.0
        covered = self.n_functional_detected + len(self.run.tests)
        return 100.0 * covered / self.n_representatives

    def to_dict(self) -> dict[str, object]:
        return {
            "representatives": self.n_representatives,
            "functional_detected": self.n_functional_detected,
            "functional_coverage_pct": round(self.functional_coverage_pct, 2),
            "topped_off": len(self.run.tests),
            "proven_untestable": len(self.run.untestable),
            "aborted": len(self.run.aborted),
            "combined_coverage_pct": round(self.combined_coverage_pct, 2),
        }


def _scan_test(table: StateTable, state: int, combo: int) -> ScanTest:
    next_state = int(table.next_state[state, combo])
    return ScanTest.from_segments(
        state,
        next_state,
        (Segment(SegmentKind.TRANSITION, state, (combo,)),),
        ((state, combo),),
    )


def _expand_cube(
    cube: tuple[int, ...],
    circuit: ScanCircuit,
    constraint: StateCodeConstraint,
) -> tuple[int, int, int]:
    """Pick the smallest assigned state code / input combo matching ``cube``."""
    sv = circuit.n_state_variables
    pi = circuit.n_primary_inputs
    bits = [None if b < 0 else b for b in cube[:sv]]
    codes = constraint.compatible_codes(bits)
    if not codes:  # pragma: no cover - the search enforces feasibility
        raise AtpgError("test cube is incompatible with every assigned code")
    code = codes[0]
    combo = 0
    for bit in cube[sv:]:
        combo = (combo << 1) | (bit if bit > 0 else 0)
    state = circuit.encoding.decode(code)
    return state, combo, (code << pi) | combo


def _fault_progress(label: str, total: int) -> "ProgressMeter | None":
    """A live per-fault heartbeat when ``--progress`` is on, else ``None``.

    The ETA before the first verdict comes from ledger history of past
    ``atpg`` runs on this circuit (see :mod:`repro.obs.progress`).
    """
    from repro.obs.progress import meter

    return meter(
        f"atpg {label}", total, command="atpg", circuits=(label,)
    )


def generate_structural_tests(
    circuit: ScanCircuit,
    table: StateTable,
    faults: Sequence[StuckAtFault] | None = None,
    *,
    backtrack_limit: int = DEFAULT_BACKTRACK_LIMIT,
    time_budget_s: float | None = None,
    scoap: ScoapMeasures | None = None,
    certificates: Iterable[UntestableCertificate] | Mapping[StuckAtFault, UntestableCertificate] | None = None,
    replay: bool = True,
    config: FaultSimConfig | None = None,
    trace_capacity: int = DEFAULT_TRACE_CAPACITY,
    trace_hardest: int = 5,
) -> AtpgRun:
    """Run structural ATPG over ``faults`` (collapsed representatives).

    ``faults`` defaults to the collapsed stuck-at representatives of the
    circuit's netlist.  ``certificates`` (when given) are the static
    untestability proofs to cross-validate against.  ``replay`` controls
    the machine-checked witness pass through the fault simulator.

    Every fault's search runs with a bounded ring-buffer
    :class:`~repro.atpg.search.SearchTrace` of ``trace_capacity`` events.
    The trace is *kept* on the verdict for every aborted target and for
    the ``trace_hardest`` targets with the most backtracks (ties broken by
    decisions, then fault order) — the forensic record
    ``repro-fsatpg explain --fault`` replays.  ``trace_capacity=0``
    disables tracing entirely.
    """
    if backtrack_limit < 0:
        raise AtpgError("backtrack limit must be >= 0")
    if trace_capacity < 0:
        raise AtpgError("trace capacity must be >= 0")
    netlist = circuit.netlist
    if faults is None:
        faults = stuck_at_representatives(netlist)
    if scoap is None:
        scoap = compute_scoap(netlist)
    certified: dict[StuckAtFault, UntestableCertificate] = {}
    if certificates is not None:
        if isinstance(certificates, Mapping):
            certified = dict(certificates)
        else:
            certified = {c.fault: c for c in certificates}
    constraint = StateCodeConstraint(
        circuit.encoding.codes, circuit.encoding.width
    )
    replayed = _witness_replay(circuit, table, faults, config) if replay else None
    verdicts: list[FaultVerdict] = []
    traces: list[SearchTrace | None] = []
    progress = _fault_progress(netlist.name or table.name, len(faults))
    for fault in faults:
        trace = SearchTrace(trace_capacity) if trace_capacity > 0 else None
        budget = SearchBudget(backtrack_limit, time_budget_s, trace)
        outcome: SearchOutcome = podem_search(
            FaultedCircuit(netlist, fault), scoap, constraint, budget
        )
        traces.append(trace)
        state = combo = pattern = None
        witness: bool | None = None
        if outcome.status == STATUS_TEST:
            assert outcome.cube is not None
            state, combo, pattern = _expand_cube(
                outcome.cube, circuit, constraint
            )
            if fault in certified:
                raise AtpgError(
                    f"podem found a test for {fault.site()} but a "
                    "static certificate proves it untestable"
                )
            if replayed is not None:
                witness = replayed(fault, _scan_test(table, state, combo))
                if not witness:
                    raise AtpgError(
                        f"witness replay failed: test {pattern:#x} does not "
                        f"detect {fault.site()}"
                    )
        verdicts.append(
            FaultVerdict(
                fault=fault,
                status=outcome.status,
                cube=outcome.cube,
                state=state,
                combo=combo,
                pattern=pattern,
                decisions=outcome.decisions,
                backtracks=outcome.backtracks,
                aborted_reason=outcome.aborted_reason,
                witness=witness,
                certified=(
                    outcome.status == STATUS_UNTESTABLE and fault in certified
                ),
            )
        )
        histogram_observe("atpg.decisions", outcome.decisions)
        if progress is not None:
            progress.update()
    if progress is not None:
        progress.finish()
    # Persist forensics for the aborted targets (always) plus the
    # hardest-N by search effort; everything else drops its trace so the
    # run stays light to pickle, cache, and serialize.
    keep = {
        index
        for index, verdict in enumerate(verdicts)
        if verdict.status == STATUS_ABORTED
    }
    if trace_hardest > 0:
        hardest = sorted(
            range(len(verdicts)),
            key=lambda i: (
                -verdicts[i].backtracks,
                -verdicts[i].decisions,
                i,
            ),
        )[:trace_hardest]
        keep.update(hardest)
    for index in keep:
        trace = traces[index]
        if trace is not None and trace.total:
            verdicts[index] = replace(
                verdicts[index],
                search_trace=trace.events(),
                trace_total=trace.total,
            )
    run = AtpgRun(
        circuit=netlist.name or table.name,
        backtrack_limit=backtrack_limit,
        verdicts=tuple(verdicts),
    )
    counter_add("atpg.targets", run.n_targets)
    counter_add("atpg.tests", len(run.tests))
    counter_add("atpg.untestable", len(run.untestable))
    counter_add("atpg.aborted", len(run.aborted))
    counter_add("atpg.backtracks", run.total_backtracks)
    return run


def _witness_replay(
    circuit: ScanCircuit,
    table: StateTable,
    faults: Sequence[StuckAtFault],
    config: FaultSimConfig | None,
) -> Callable[[StuckAtFault, ScanTest], bool]:
    """``replayed(fault, test)``: does ``test`` detect ``fault`` on the
    dispatcher's chunk holding it?

    Targets are searched in universe order, so the chunks' simulators are
    needed in order too: one is held at a time, built on the first witness
    of one of its faults.
    """
    engine, chunks = circuit_chunks(circuit, faults, config)
    chunk_of = {fault: index for index, chunk in enumerate(chunks) for fault in chunk}
    built: dict[int, FaultSimulator] = {}

    def replayed(fault: StuckAtFault, test: ScanTest) -> bool:
        index = chunk_of[fault]
        if index not in built:
            built.clear()
            built[index] = make_fault_simulator(
                circuit, table, chunks[index], FaultSimConfig(engine)
            )
        return fault in built[index].detects(test)

    return replayed


def top_off(
    circuit: ScanCircuit,
    table: StateTable,
    representatives: Sequence[StuckAtFault],
    functional_detected: Iterable[StuckAtFault],
    *,
    proven_untestable: Iterable[StuckAtFault] = (),
    **kwargs: object,
) -> TopOffReport:
    """Target exactly the representatives the functional set missed.

    ``representatives`` is the full collapsed universe, ``functional
    detected`` the representatives the functional tests caught, and
    ``proven_untestable`` any statically-proven-redundant faults to skip.
    Remaining keyword arguments go to :func:`generate_structural_tests`.
    """
    detected = set(functional_detected)
    skip = set(proven_untestable)
    targets = [
        fault
        for fault in representatives
        if fault not in detected and fault not in skip
    ]
    run = generate_structural_tests(circuit, table, targets, **kwargs)  # type: ignore[arg-type]
    return TopOffReport(
        n_representatives=len(representatives),
        n_functional_detected=len(detected),
        run=run,
    )
