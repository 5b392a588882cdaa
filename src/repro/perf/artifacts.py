"""Cache-aware wrappers around the expensive pipeline stages.

Each ``cached_*`` function computes one artifact of the per-circuit pipeline
— UIO table, synthesized scan circuit, static analysis, ATPG run — going
through the process-wide :class:`~repro.perf.cache.ArtifactCache` when one is
active and computing directly otherwise.  The detectability split is the
exception: it is derived from the fault simulator that grades the universe,
so its cache lookup (:func:`lookup_detectability`) and store
(:func:`store_detectability`) are separate steps around that derivation.
Every wrapper optionally records a
:class:`~repro.harness.runtime.StageRecord` into a
:class:`~repro.harness.runtime.StageTimings`, which is how a
:class:`~repro.harness.experiments.CircuitStudy` accounts its time; the
sweep engine merges each study's records into its caller's.

Keying discipline: a key covers the *full* semantic input of the stage — the
dense table / netlist contents, every option that changes the result, and
the per-kind algorithm version (see
:data:`~repro.perf.cache.ARTIFACT_VERSIONS`).  Machine or circuit *names*
are deliberately excluded so renamed-but-identical machines share entries.
"""

from __future__ import annotations

from typing import Sequence

from contextlib import AbstractContextManager

from repro.fsm.kiss import KissMachine
from repro.fsm.state_table import StateTable
from repro.gatelevel.bridging import BridgingFault
from repro.gatelevel.dispatch import FaultSimulator, detectable_mask
from repro.gatelevel.netlist import Netlist
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import StuckAtFault
from repro.gatelevel.synthesis import SynthesisOptions
from repro.harness.runtime import StageTimings
from repro.obs.metrics import counter_add, histogram_observe
from repro.obs.trace import _SpanContext, complete_event
from repro.obs.trace import span as trace_span
from repro.perf.cache import active_cache, artifact_key
from repro.sca import ScaAnalysis, analyze
from repro.uio.search import UioTable, compute_uio_table

__all__ = [
    "STAGE_ATPG",
    "STAGE_DETECTABILITY",
    "STAGE_FAULT_SIM",
    "STAGE_GENERATION",
    "STAGE_SCA",
    "STAGE_SYNTHESIS",
    "STAGE_UIO",
    "cached_atpg",
    "cached_scan_circuit",
    "cached_sca",
    "cached_uio_table",
    "derive_detectability",
    "detectability_key",
    "fault_universe_parts",
    "lookup_detectability",
    "machine_parts",
    "netlist_parts",
    "state_table_parts",
    "store_detectability",
]

Fault = StuckAtFault | BridgingFault

#: Canonical stage names used in timing records and ``BENCH_perf.json``.
STAGE_UIO = "uio"
STAGE_SYNTHESIS = "synthesis"
STAGE_GENERATION = "generation"
STAGE_DETECTABILITY = "detectability"
STAGE_FAULT_SIM = "fault-sim"
STAGE_SCA = "sca"
STAGE_ATPG = "atpg"


# ------------------------------------------------------------- key material


def state_table_parts(table: StateTable) -> tuple:
    """Hashable identity of a dense state table (name excluded)."""
    return (
        table.n_inputs,
        table.n_outputs,
        table.n_states,
        table.next_state,
        table.output,
    )


def machine_parts(machine: KissMachine | StateTable) -> tuple:
    """Hashable identity of a cube-level machine (or dense table)."""
    if isinstance(machine, StateTable):
        return ("dense",) + state_table_parts(machine)
    return (
        "kiss",
        machine.n_inputs,
        machine.n_outputs,
        machine.reset_state,
        tuple(machine.rows),
    )


def netlist_parts(netlist: Netlist) -> tuple:
    """Hashable identity of a combinational netlist (gate names excluded)."""
    return (
        tuple((gate.kind, gate.fanins) for gate in netlist.gates),
        netlist.inputs,
        netlist.outputs,
    )


def fault_universe_parts(faults: Sequence[Fault]) -> tuple:
    """Hashable identity of an *ordered* fault universe."""
    return tuple(faults)


def _record(
    timings: StageTimings | None,
    circuit: str,
    stage: str,
    seconds: float,
    cache_state: str,
) -> None:
    """Record an externally-measured stage (cache hits report 0.0s).

    ``StageTimings.add`` emits the matching completed span itself; without
    a timings object the span is emitted directly so the traces of untimed
    callers (``analyze``, ``atpg``) still show cache-served stages.
    """
    if timings is not None:
        timings.add(circuit, stage, seconds, cache_state)
    else:
        attrs: dict[str, str] = {"circuit": circuit}
        if cache_state:
            attrs["cache"] = cache_state
        complete_event(stage, seconds, **attrs)


def _staged(
    timings: StageTimings | None, circuit: str, stage: str
) -> AbstractContextManager[_SpanContext]:
    """A span-backed stage context: records into ``timings`` when given.

    Both branches yield a handle with ``elapsed_s`` and ``set()``; the
    recorded seconds come from the span's own clock either way, so the
    bench records and the trace agree by construction.
    """
    if timings is not None:
        return timings.stage(circuit, stage)
    return trace_span(stage, circuit=circuit)


# ------------------------------------------------------------------ stages


def cached_uio_table(
    table: StateTable,
    max_length: int,
    node_budget: int,
    *,
    circuit: str = "",
    timings: StageTimings | None = None,
) -> tuple[UioTable, float]:
    """``(uio_table, compute_seconds)`` for one machine and length bound.

    ``compute_seconds`` is the time the *original* computation took — on a
    cache hit the stored figure is returned, so Table 4's time column stays
    meaningful across warm runs.
    """
    cache = active_cache()
    key = ""
    if cache is not None:
        key = artifact_key("uio", state_table_parts(table), max_length, node_budget)
        stored = cache.get("uio", key)
        if stored is not None:
            uio, compute_seconds = stored
            # The stored table carries the name of whichever machine filled
            # the entry; re-label it for this caller.
            if uio.machine_name != table.name:
                uio = UioTable(
                    table.name, uio.max_length, uio.sequences, uio.budget_exhausted
                )
            _record(timings, circuit or table.name, STAGE_UIO, 0.0, "hit")
            return uio, compute_seconds
    with _staged(timings, circuit or table.name, STAGE_UIO) as sp:
        if cache is not None:
            sp.set(cache="miss")
        uio = compute_uio_table(table, max_length, node_budget)
    if cache is not None:
        cache.put("uio", key, (uio, sp.elapsed_s))
    return uio, sp.elapsed_s


def cached_scan_circuit(
    machine: KissMachine | StateTable,
    options: SynthesisOptions,
    verify_table: StateTable | None = None,
    *,
    circuit: str = "",
    timings: StageTimings | None = None,
) -> ScanCircuit:
    """Synthesized and verified :class:`ScanCircuit` for ``machine``.

    A cache hit skips both synthesis and the exhaustive
    :meth:`~repro.gatelevel.scan.ScanCircuit.verify_against` check — entries
    are only ever stored *after* verification succeeded.
    """
    cache = active_cache()
    name = getattr(machine, "name", "") or circuit
    key = ""
    if cache is not None:
        key = artifact_key("synthesis", machine_parts(machine), options)
        stored = cache.get("synthesis", key)
        if stored is not None:
            _record(timings, circuit or name, STAGE_SYNTHESIS, 0.0, "hit")
            return ScanCircuit(stored, name)
    with _staged(timings, circuit or name, STAGE_SYNTHESIS) as sp:
        if cache is not None:
            sp.set(cache="miss")
        scan = ScanCircuit.from_machine(machine, options)
        if verify_table is not None:
            scan.verify_against(verify_table)
    if cache is not None and verify_table is not None:
        cache.put("synthesis", key, scan.circuit)
    return scan


def detectability_key(scan: ScanCircuit, faults: Sequence[Fault]) -> str:
    """Cache key of the detectability split of ``faults`` on ``scan``
    (``""`` when no cache is active).

    Verdicts are judged over the assigned state codes, so the state-code
    assignment is part of the key next to the netlist and the universe.
    """
    if active_cache() is None:
        return ""
    return artifact_key(
        "detectability",
        netlist_parts(scan.netlist),
        scan.encoding.codes,
        scan.encoding.width,
        fault_universe_parts(faults),
    )


def lookup_detectability(
    key: str,
    *,
    circuit: str = "",
    timings: StageTimings | None = None,
) -> tuple[set[Fault], set[Fault]] | None:
    """The cached ``(detectable, undetectable)`` split under ``key``, or
    ``None`` on a miss (or with no active cache).

    Hits and misses are recorded as zero-second detectability stages; the
    caller that derives a missing split times that work itself (see
    :func:`derive_detectability`) and hands the result to
    :func:`store_detectability`.
    """
    cache = active_cache()
    if cache is None or not key:
        return None
    stored = cache.get("detectability", key)
    if stored is None:
        _record(timings, circuit, STAGE_DETECTABILITY, 0.0, "miss")
        return None
    _record(timings, circuit, STAGE_DETECTABILITY, 0.0, "hit")
    return set(stored[0]), set(stored[1])


def store_detectability(
    key: str, split: tuple[set[Fault], set[Fault]]
) -> None:
    """Store a derived split under ``key`` (no-op without an active cache)."""
    cache = active_cache()
    if cache is None or not key:
        return
    detectable, undetectable = split
    cache.put("detectability", key, (frozenset(detectable), frozenset(undetectable)))


def derive_detectability(
    simulator: FaultSimulator,
    *,
    circuit: str = "",
    timings: StageTimings | None = None,
) -> int:
    """:func:`~repro.gatelevel.dispatch.detectable_mask` of ``simulator``,
    timed as the detectability stage."""
    with _staged(timings, circuit, STAGE_DETECTABILITY) as sp:
        sp.set(n_faults=len(simulator.faults))
        mask = detectable_mask(simulator)
    return mask


def cached_sca(
    netlist: Netlist,
    *,
    circuit: str = "",
    timings: StageTimings | None = None,
) -> ScaAnalysis:
    """Fully materialized static analysis of ``netlist``.

    Entries are stored only after :meth:`~repro.sca.ScaAnalysis.verify`
    replayed every constant derivation and untestability certificate, so a
    cache hit returns machine-checked proofs (the same trust discipline as
    ``cached_scan_circuit``, which only stores verified syntheses).
    """
    cache = active_cache()
    key = ""
    if cache is not None:
        key = artifact_key("sca", netlist_parts(netlist))
        stored = cache.get("sca", key)
        if stored is not None:
            _record(timings, circuit, STAGE_SCA, 0.0, "hit")
            _report_sca(stored)
            return stored
    with _staged(timings, circuit, STAGE_SCA) as sp:
        if cache is not None:
            sp.set(cache="miss")
        sca = analyze(netlist).materialize()
        sca.verify()
        sp.set(
            representatives=sca.universe.n_representatives,
            certificates=len(sca.certificates),
        )
    if cache is not None:
        cache.put("sca", key, sca)
    _report_sca(sca)
    return sca


def cached_atpg(
    scan: ScanCircuit,
    table: StateTable,
    faults: Sequence[StuckAtFault] | None = None,
    *,
    algorithm: str = "podem",
    backtrack_limit: int | None = None,
    certificates: Sequence = (),
    circuit: str = "",
    timings: StageTimings | None = None,
):
    """Structural ATPG run (:class:`~repro.atpg.AtpgRun`) for ``scan``.

    Entries are stored only after every ``test`` verdict's cube replayed
    through the fault simulator and every ``untestable`` verdict survived
    the static-certificate cross-check — the engine raises otherwise, so a
    cache hit returns machine-checked verdicts.  Time-budgeted runs are
    never cached (their aborts are wall-clock-dependent); callers wanting a
    time budget go to :func:`repro.atpg.generate_structural_tests`
    directly.
    """
    import dataclasses

    from repro.atpg import DEFAULT_BACKTRACK_LIMIT, generate_structural_tests
    from repro.gatelevel.stuck_at import collapse_stuck_at

    if backtrack_limit is None:
        backtrack_limit = DEFAULT_BACKTRACK_LIMIT
    netlist = scan.netlist
    if faults is None:
        faults = sorted(set(collapse_stuck_at(netlist).values()))
    label = circuit or table.name
    cache = active_cache()
    key = ""
    if cache is not None:
        key = artifact_key(
            "atpg",
            netlist_parts(netlist),
            state_table_parts(table),
            scan.encoding.codes,
            scan.encoding.width,
            fault_universe_parts(faults),
            algorithm,
            backtrack_limit,
            fault_universe_parts(sorted(c.fault for c in certificates)),
        )
        stored = cache.get("atpg", key)
        if stored is not None:
            if stored.circuit != label:
                stored = dataclasses.replace(stored, circuit=label)
            _record(timings, label, STAGE_ATPG, 0.0, "hit")
            return stored
    with _staged(timings, label, STAGE_ATPG) as sp:
        if cache is not None:
            sp.set(cache="miss")
        run = generate_structural_tests(
            scan,
            table,
            faults,
            algorithm=algorithm,
            backtrack_limit=backtrack_limit,
            certificates=certificates,
            replay=True,
        )
        if run.circuit != label:
            # The engine labels runs by netlist name; normalize to the
            # caller's label so cold and warm results compare equal.
            run = dataclasses.replace(run, circuit=label)
        sp.set(targets=run.n_targets, tests=len(run.tests))
    if cache is not None:
        cache.put("atpg", key, run)
    return run


def _report_sca(sca: ScaAnalysis) -> None:
    """Fold collapse/proof statistics into the metrics registry."""
    universe = sca.universe
    counter_add("sca.faults", universe.n_faults)
    counter_add("sca.representatives", universe.n_representatives)
    counter_add("sca.certificates", len(sca.certificates))
    counter_add("sca.constant_lines", len(sca.constants.constant_lines))
    histogram_observe("sca.collapse_ratio", universe.ratio)
