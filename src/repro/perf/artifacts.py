"""The cache-aware structural ATPG run and its key material.

:func:`cached_atpg` computes one ATPG run through the process-wide
:class:`~repro.perf.cache.ArtifactCache` when one is active and directly
otherwise; every other pipeline stage is recomputed on each run.

Keying discipline: a key covers the *full* semantic input of the run — the
netlist and state-table contents, the fault list, every option that changes
the result, and the kind's algorithm version (see
:data:`~repro.perf.cache.ARTIFACT_VERSIONS`).  Machine or circuit *names*
are deliberately excluded so renamed-but-identical machines share entries.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.fsm.state_table import StateTable
from repro.gatelevel.bridging import BridgingFault
from repro.gatelevel.netlist import Netlist
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import StuckAtFault
from repro.harness.runtime import STAGE_ATPG
from repro.obs.trace import complete_event
from repro.obs.trace import span as trace_span
from repro.perf.cache import active_cache, artifact_key

__all__ = [
    "cached_atpg",
    "fault_universe_parts",
    "netlist_parts",
    "state_table_parts",
]

Fault = StuckAtFault | BridgingFault


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


# -------------------------------------------------------------------- stage


def cached_atpg(
    scan: ScanCircuit,
    table: StateTable,
    faults: Sequence[StuckAtFault] | None = None,
    *,
    backtrack_limit: int | None = None,
    certificates: Sequence = (),
    circuit: str = "",
):
    """Structural ATPG run (:class:`~repro.atpg.AtpgRun`) for ``scan``.

    Entries are stored only after every ``test`` verdict's cube replayed
    through the fault simulator and every ``untestable`` verdict survived
    the static-certificate cross-check — the engine raises otherwise, so a
    cache hit returns machine-checked verdicts.  Time-budgeted runs are
    never cached (their aborts are wall-clock-dependent); callers wanting a
    time budget go to :func:`repro.atpg.generate_structural_tests`
    directly.  The run is traced as an ``atpg`` span tagged
    ``cache=hit``/``cache=miss`` when a cache is active.
    """
    from repro.atpg import DEFAULT_BACKTRACK_LIMIT, generate_structural_tests
    from repro.gatelevel.stuck_at import stuck_at_representatives

    if backtrack_limit is None:
        backtrack_limit = DEFAULT_BACKTRACK_LIMIT
    netlist = scan.netlist
    if faults is None:
        faults = stuck_at_representatives(netlist)
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
            backtrack_limit,
            fault_universe_parts(sorted(c.fault for c in certificates)),
        )
        stored = cache.get("atpg", key)
        if stored is not None:
            if stored.circuit != label:
                stored = dataclasses.replace(stored, circuit=label)
            complete_event(STAGE_ATPG, 0.0, circuit=label, cache="hit")
            return stored
    with trace_span(STAGE_ATPG, circuit=label) as sp:
        if cache is not None:
            sp.set(cache="miss")
        run = generate_structural_tests(
            scan,
            table,
            faults,
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
