"""Regeneration of the paper's Tables 2-9.

Every ``tableN`` function returns a list of row dataclasses and can render
itself through :func:`repro.harness.tables.format_table`.  The heavy lifting
is cached per circuit in :class:`CircuitStudy`, so e.g. Table 7 reuses the
test sets and fault-simulation results of Tables 5 and 6.

Substitution note (DESIGN.md §3): gate-level rows are measured on our own
synthesized implementations (multi-level, fanin-bounded) and, for two-level
circuits with huge bridging universes, on a deterministic sample of bridging
pairs.  Absolute fault counts therefore differ from the paper; the claims
under test — complete coverage of detectable faults, few effective tests,
large cycle reductions — are what the rows demonstrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Sequence

from repro.benchmarks import circuit_names, get_spec, load_circuit, load_kiss_machine
from repro.benchmarks.paper_data import PAPER_TABLE8, PAPER_TABLE9
from repro.core.compaction import EffectiveSelection
from repro.core.config import FaultSimConfig, GeneratorConfig
from repro.core.generator import GenerationResult, generate_tests
from repro.core.testset import ScanTest, baseline_clock_cycles
from repro.gatelevel.bridging import BridgingFault, enumerate_bridging_faults
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import StuckAtFault, stuck_at_representatives
from repro.gatelevel.synthesis import SynthesisOptions
from repro.harness.runtime import (
    STAGE_BRIDGING,
    STAGE_COLLAPSE,
    STAGE_GENERATION,
    STAGE_SCA,
    STAGE_SYNTHESIS,
    STAGE_UIO,
    StageTimings,
)
from repro.harness.tables import format_csv, format_table
from repro.obs.log import get_logger
from repro.obs.metrics import counter_add, histogram_observe
from repro.sca import ScaAnalysis, analyze
from repro.uio.search import UioTable, compute_uio_table

# NOTE: the sweep engine is imported inside the functions that use it:
# ``repro.perf.engine`` imports this module for :class:`StudyOptions`.

__all__ = [
    "StudyOptions",
    "CircuitStudy",
    "get_study",
    "warm_studies",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "TABLE9_CIRCUITS",
]

#: The circuits the paper sweeps in Table 9.
TABLE9_CIRCUITS = tuple(PAPER_TABLE9)


@dataclass(frozen=True)
class StudyOptions:
    """Per-study knobs shared by all tables.

    ``max_fanin=4`` gives multi-level implementations comparable to the
    technology-mapped circuits the paper simulated (flat two-level SOP
    exposes almost no bridging sites); ``bridging_pair_limit`` caps the
    bridging universe with a deterministic sample.
    """

    config: GeneratorConfig = field(default_factory=GeneratorConfig)
    max_fanin: int | None = 4
    bridging_pair_limit: int | None = 500
    faultsim: FaultSimConfig = field(default_factory=FaultSimConfig)

    @property
    def synthesis(self) -> SynthesisOptions:
        return SynthesisOptions(max_fanin=self.max_fanin)


#: The two fault models every circuit is graded against, in grading order.
MODELS = ("stuck_at", "bridging")

#: A fault model's (detectable, undetectable) split of its universe.
Split = tuple[set, set]


class CircuitStudy:
    """Cached per-circuit pipeline: machine → UIO → tests → fault grading.

    Every input is computed on first access and kept.  Grading goes through
    the sweep engine (:mod:`repro.perf.engine`): a sweep prepares studies in
    bulk and writes each one's grades into :attr:`grades`; a study whose
    grading is read outside a sweep runs the engine's simulate and select
    phases for itself, for the one fault model that was asked for.
    """

    def __init__(self, name: str, options: StudyOptions | None = None) -> None:
        self.name = name
        self.options = options or StudyOptions()
        self.spec = get_spec(name)
        #: stage records of the work this study did; a sweep merges them
        #: into the caller's timings
        self.timings = StageTimings()
        #: per fault model, the detectability split and the effective-test
        #: selection, written by the engine's select phase
        self.grades: dict[str, tuple[Split, EffectiveSelection]] = {}

    # ----------------------------------------------------------- functional

    @property
    def table(self):
        return load_circuit(self.name)

    @cached_property
    def _uio(self) -> tuple[UioTable, float]:
        table, config = self.table, self.options.config
        length = config.resolved_uio_length(table.n_state_variables)
        with self.timings.stage(self.name, STAGE_UIO) as sp:
            uio = compute_uio_table(table, length, config.uio_node_budget)
        return uio, sp.elapsed_s

    @property
    def uio_table(self) -> UioTable:
        return self._uio[0]

    @property
    def uio_time_s(self) -> float:
        return self._uio[1]

    @cached_property
    def generation(self) -> GenerationResult:
        table, uio = self.table, self.uio_table
        with self.timings.stage(self.name, STAGE_GENERATION):
            return generate_tests(table, self.options.config, uio)

    @cached_property
    def tests(self) -> tuple[ScanTest, ...]:
        """The generated tests in the order grading simulates them."""
        return tuple(self.generation.test_set.by_decreasing_length())

    @cached_property
    def baseline_cycles(self) -> int:
        return baseline_clock_cycles(
            self.table.n_state_variables,
            self.table.n_transitions,
            self.options.config.scan_ratio,
        )

    # ----------------------------------------------------------- gate level

    @cached_property
    def scan_circuit(self) -> ScanCircuit:
        """The synthesized scan circuit, verified against the state table."""
        machine, table = load_kiss_machine(self.name), self.table
        with self.timings.stage(self.name, STAGE_SYNTHESIS):
            scan = ScanCircuit.from_machine(machine, self.options.synthesis)
            scan.verify_against(table)
        return scan

    @cached_property
    def sca(self) -> ScaAnalysis:
        """Static analysis of the synthesized netlist, every derivation and
        certificate replayed by :meth:`~repro.sca.ScaAnalysis.verify`.

        Grading never reads it; ``analyze``, ``atpg`` and ``explain
        --fault`` do.
        """
        netlist = self.scan_circuit.netlist  # synthesis is its own stage
        with self.timings.stage(self.name, STAGE_SCA) as sp:
            sca = analyze(netlist).materialize()
            sca.verify()
            sp.set(
                representatives=sca.universe.n_representatives,
                certificates=len(sca.certificates),
            )
        universe = sca.universe
        counter_add("sca.faults", universe.n_faults)
        counter_add("sca.representatives", universe.n_representatives)
        counter_add("sca.certificates", len(sca.certificates))
        counter_add("sca.constant_lines", len(sca.constants.constant_lines))
        histogram_observe("sca.collapse_ratio", universe.ratio)
        return sca

    @cached_property
    def stuck_at_faults(self) -> list[StuckAtFault]:
        """The collapsed stuck-at universe, one representative per class."""
        netlist = self.scan_circuit.netlist  # synthesis is its own stage
        with self.timings.stage(self.name, STAGE_COLLAPSE):
            return stuck_at_representatives(netlist)

    @cached_property
    def bridging_faults(self) -> list[BridgingFault]:
        netlist = self.scan_circuit.netlist  # synthesis is its own stage
        with self.timings.stage(self.name, STAGE_BRIDGING):
            return enumerate_bridging_faults(
                netlist,
                limit=self.options.bridging_pair_limit,
                seed=self.name,
            )

    def faults(self, model: str) -> list:
        """``model``'s fault universe: every fault grading simulates."""
        return self.stuck_at_faults if model == "stuck_at" else self.bridging_faults

    # -------------------------------------------------------------- grading

    def _graded(self, model: str) -> tuple[Split, EffectiveSelection]:
        if model not in self.grades:
            from repro.perf.engine import grade_studies

            grade_studies([self], (model,))
        return self.grades[model]

    @property
    def stuck_at_detectability(self) -> Split:
        return self._graded("stuck_at")[0]

    @property
    def stuck_at_selection(self) -> EffectiveSelection:
        return self._graded("stuck_at")[1]

    @property
    def stuck_at_split(self):
        """Detected / redundant / missed split of the universe.

        The redundant bin is the graded undetectable set: under full scan
        the exhaustive tables prove a fault undetectable.
        """
        from repro.core.coverage import split_undetected

        return split_undetected(
            self.stuck_at_faults,
            self.stuck_at_selection.detected,
            self.stuck_at_detectability[1],
        )

    @property
    def bridging_detectability(self) -> Split:
        return self._graded("bridging")[0]

    @property
    def bridging_selection(self) -> EffectiveSelection:
        return self._graded("bridging")[1]

    # ------------------------------------------------------------ summaries

    def _headline(self) -> dict[str, Any]:
        uio = self.uio_table
        return {
            "uio_found": uio.n_found,
            "uio_max_len": uio.max_found_length,
            "tests": self.generation.n_tests,
            "test_length": self.generation.total_length,
        }

    def signature(self) -> dict[str, Any]:
        """Timing-free summary used to compare runs for divergence.

        Like :meth:`summary`, it covers only the fault models already
        graded and never grades.
        """
        signature = self._headline()
        for model in MODELS:
            if model in self.grades:
                signature[model] = _selection_signature(self.grades[model][1])
        return signature

    def summary(self) -> dict[str, Any]:
        """Compact scalar summary for ledger records and bench results.

        Unlike :meth:`signature` this never enumerates faults or tests —
        it is the per-circuit block persisted in ``BENCH_perf.json`` and
        the run ledger, so it must stay small and scheduling-invariant.
        """
        summary = self._headline()
        summary["pct_length_one"] = round(self.generation.pct_length_one, 4)
        for model in MODELS:
            if model not in self.grades:
                continue
            n_faults = len(self.faults(model))
            selection = self.grades[model][1]
            detected = len(selection.detected)
            summary[model] = {
                "faults": n_faults,
                "detected": detected,
                "coverage": round(detected / n_faults, 6) if n_faults else 1.0,
                "effective_tests": selection.n_effective,
            }
        return summary


def _selection_signature(selection: EffectiveSelection) -> dict[str, Any]:
    return {
        "n_faults": selection.n_faults,
        "n_effective": selection.n_effective,
        "effective_length": selection.effective_length,
        "detected": sorted(repr(fault) for fault in selection.detected),
        "rows": [
            (str(test), count, effective)
            for test, count, effective in selection.rows
        ],
    }


_STUDIES: dict[tuple[str, StudyOptions], CircuitStudy] = {}


def get_study(name: str, options: StudyOptions | None = None) -> CircuitStudy:
    """Module-level study cache so tables share computations."""
    options = options or StudyOptions()
    key = (name, options)
    if key not in _STUDIES:
        _STUDIES[key] = CircuitStudy(name, options)
    return _STUDIES[key]


def warm_studies(
    circuits: Sequence[str],
    options: StudyOptions | None = None,
    *,
    jobs: int = 1,
    timings: StageTimings | None = None,
    scope: str = "full",
) -> dict[str, CircuitStudy]:
    """Build studies with the sweep engine and register them.

    Runs :func:`repro.perf.engine.compute_studies` across ``jobs`` worker
    processes and registers the studies it returns in the module-level
    study cache, so subsequent ``tableN`` calls are pure lookups.
    ``scope="functional"`` stops after test generation — enough for tables
    4/5.  Returns the studies by circuit name.
    """
    from repro.perf.engine import compute_studies

    log = get_logger("harness")
    log.info(
        "warming studies", circuits=len(tuple(circuits)), jobs=jobs, scope=scope
    )
    studies = compute_studies(
        circuits, options, jobs=jobs, timings=timings, scope=scope
    )
    for study in studies.values():
        _STUDIES[study.name, study.options] = study
    return studies


def _resolve(circuits: Sequence[str] | None) -> tuple[str, ...]:
    return tuple(circuits) if circuits is not None else circuit_names()


# --------------------------------------------------------------------- rows


@dataclass(frozen=True)
class Table2Row:
    state: str
    sequence: str
    final_state: str


@dataclass(frozen=True)
class Table3Row:
    test: str
    length: int
    detected: int
    effective: bool


@dataclass(frozen=True)
class Table4Row:
    circuit: str
    pi: int
    states: int
    unique: int
    sv: int
    max_len: int
    time_s: float


@dataclass(frozen=True)
class Table5Row:
    circuit: str
    trans: int
    tests: int
    length: int
    pct_len1: float
    time_s: float


@dataclass(frozen=True)
class Table6Row:
    circuit: str
    sa_tests: int
    sa_len: int
    sa_total: int
    sa_detected: int
    sa_coverage: float
    bridge_tests: int
    bridge_len: int
    bridge_total: int
    bridge_detected: int
    bridge_coverage: float


@dataclass(frozen=True)
class Table7Row:
    circuit: str
    trans_cycles: int
    funct_cycles: int
    funct_pct: float
    sa_cycles: int
    sa_pct: float
    bridge_cycles: int
    bridge_pct: float


@dataclass(frozen=True)
class Table8Row:
    circuit: str
    trans: int
    tests: int
    length: int
    pct_len1: float
    cycles: int
    pct: float


@dataclass(frozen=True)
class Table9Row:
    circuit: str
    unique: int
    max_len: int
    tests: int
    length: int
    pct_len1: float
    cycles: int
    pct: float


# ------------------------------------------------------------------- tables


def table2(circuit: str = "lion", options: StudyOptions | None = None) -> list[Table2Row]:
    """Unique input-output sequences of one circuit (the paper's Table 2)."""
    study = get_study(circuit, options)
    table = study.table
    pi = table.n_inputs
    rows = []
    for state in range(table.n_states):
        sequence = study.uio_table.get(state)
        if sequence is None:
            rows.append(Table2Row(table.state_names[state], "-", "-"))
        else:
            text = " ".join(format(c, f"0{pi}b") for c in sequence.inputs)
            rows.append(
                Table2Row(
                    table.state_names[state],
                    text,
                    table.state_names[sequence.final_state],
                )
            )
    return rows


def table3(circuit: str = "lion", options: StudyOptions | None = None) -> list[Table3Row]:
    """Stuck-at simulation of the functional tests, longest first (Table 3)."""
    study = get_study(circuit, options)
    return [
        Table3Row(str(test), test.length, detected, effective)
        for test, detected, effective in study.stuck_at_selection.rows
    ]


def table4(
    circuits: Sequence[str] | None = None, options: StudyOptions | None = None
) -> list[Table4Row]:
    """Circuit parameters and UIO statistics (Table 4)."""
    rows = []
    for name in _resolve(circuits):
        study = get_study(name, options)
        uio = study.uio_table
        rows.append(
            Table4Row(
                name,
                study.table.n_inputs,
                study.table.n_states,
                uio.n_found,
                study.table.n_state_variables,
                uio.max_found_length,
                study.uio_time_s,
            )
        )
    return rows


def table5(
    circuits: Sequence[str] | None = None, options: StudyOptions | None = None
) -> list[Table5Row]:
    """Functional test generation statistics (Table 5)."""
    rows = []
    for name in _resolve(circuits):
        study = get_study(name, options)
        result = study.generation
        rows.append(
            Table5Row(
                name,
                study.table.n_transitions,
                result.n_tests,
                result.total_length,
                result.pct_length_one,
                result.generation_time_s,
            )
        )
    return rows


def table6(
    circuits: Sequence[str] | None = None, options: StudyOptions | None = None
) -> list[Table6Row]:
    """Gate-level stuck-at and bridging fault grading (Table 6)."""
    rows = []
    for name in _resolve(circuits):
        study = get_study(name, options)
        sa = study.stuck_at_selection
        bridge = study.bridging_selection
        rows.append(
            Table6Row(
                name,
                sa.n_effective,
                sa.effective_length,
                sa.n_faults,
                len(sa.detected),
                sa.coverage_pct,
                bridge.n_effective,
                bridge.effective_length,
                bridge.n_faults,
                len(bridge.detected),
                bridge.coverage_pct,
            )
        )
    return rows


def _cycles(study: CircuitStudy, selection: EffectiveSelection) -> int:
    return selection.effective.clock_cycles(study.options.config.scan_ratio)


def table7(
    circuits: Sequence[str] | None = None, options: StudyOptions | None = None
) -> list[Table7Row]:
    """Clock cycles for test application (Table 7)."""
    rows = []
    for name in _resolve(circuits):
        study = get_study(name, options)
        base = study.baseline_cycles
        funct = study.generation.clock_cycles()
        sa_cycles = _cycles(study, study.stuck_at_selection)
        bridge_cycles = _cycles(study, study.bridging_selection)
        rows.append(
            Table7Row(
                name,
                base,
                funct,
                100.0 * funct / base,
                sa_cycles,
                100.0 * sa_cycles / base,
                bridge_cycles,
                100.0 * bridge_cycles / base,
            )
        )
    return rows


def table8(
    circuits: Sequence[str] | None = None, options: StudyOptions | None = None
) -> list[Table8Row]:
    """Test generation without transfer sequences (Table 8).

    Defaults to the circuits the paper reports (those whose Table 7
    functional-test percentage reaches 100%).
    """
    if circuits is None:
        circuits = tuple(PAPER_TABLE8)
    base_options = options or StudyOptions()
    no_transfer = StudyOptions(
        config=GeneratorConfig(
            max_uio_length=base_options.config.max_uio_length,
            max_transfer_length=0,
            postpone_no_uio_starts=base_options.config.postpone_no_uio_starts,
            uio_node_budget=base_options.config.uio_node_budget,
            scan_ratio=base_options.config.scan_ratio,
        ),
        max_fanin=base_options.max_fanin,
        bridging_pair_limit=base_options.bridging_pair_limit,
    )
    rows = []
    for name in circuits:
        study = get_study(name, no_transfer)
        result = study.generation
        rows.append(
            Table8Row(
                name,
                study.table.n_transitions,
                result.n_tests,
                result.total_length,
                result.pct_length_one,
                result.clock_cycles(),
                result.cycles_pct_of_baseline(),
            )
        )
    return rows


def table9(
    circuits: Sequence[str] | None = None,
    options: StudyOptions | None = None,
    max_bound: int | None = None,
) -> list[Table9Row]:
    """Sweep of the UIO length bound ``L`` (Table 9).

    Following the paper, ``L`` grows from 1 until a further increase does
    not add any state with a UIO (``max_bound`` is a hard safety cap,
    defaulting to ``N_SV + 4``).
    """
    if circuits is None:
        circuits = TABLE9_CIRCUITS
    base_options = options or StudyOptions()
    rows: list[Table9Row] = []
    for name in circuits:
        table = load_circuit(name)
        cap = max_bound if max_bound is not None else table.n_state_variables + 4
        previous_found = -1
        for bound in range(1, cap + 1):
            config = GeneratorConfig(
                max_uio_length=bound,
                max_transfer_length=base_options.config.max_transfer_length,
                postpone_no_uio_starts=base_options.config.postpone_no_uio_starts,
                uio_node_budget=base_options.config.uio_node_budget,
                scan_ratio=base_options.config.scan_ratio,
            )
            uio = compute_uio_table(table, bound, config.uio_node_budget)
            if uio.n_found == previous_found:
                break
            previous_found = uio.n_found
            result = generate_tests(table, config, uio)
            rows.append(
                Table9Row(
                    name,
                    uio.n_found,
                    uio.max_found_length,
                    result.n_tests,
                    result.total_length,
                    result.pct_length_one,
                    result.clock_cycles(),
                    result.cycles_pct_of_baseline(),
                )
            )
    return rows


# ---------------------------------------------------------------- rendering

_HEADERS = {
    2: ("state", "unique", "f.stat"),
    3: ("test", "length", "detected", "effective"),
    4: ("circuit", "pi", "states", "unique", "sv", "m.len", "time"),
    5: ("circuit", "trans", "tests", "len", "1len", "time"),
    6: (
        "circuit",
        "sa.tsts",
        "sa.len",
        "sa.tot",
        "sa.det",
        "sa.f.c.",
        "br.tsts",
        "br.len",
        "br.tot",
        "br.det",
        "br.f.c.",
    ),
    7: ("circuit", "trans", "funct", "%", "s.a.", "%", "bridg.", "%"),
    8: ("circuit", "trans", "tests", "len", "1len", "cycles", "%"),
    9: ("circuit", "unique", "m.len", "tests", "len", "1len", "cycles", "%"),
}


def render(
    table_number: int,
    rows: Sequence[object],
    title: str = "",
    csv: bool = False,
) -> str:
    """Render ``tableN`` rows as fixed-width text (or CSV)."""
    headers = _HEADERS[table_number]
    data = [
        [getattr(row, field_name) for field_name in row.__dataclass_fields__]
        for row in rows
    ]
    if csv:
        return format_csv(headers, data)
    return format_table(headers, data, title or f"Table {table_number}")
