#!/usr/bin/env python
"""Validate ``repro-fsatpg atpg --format json`` payloads.

Usage:  python scripts/validate_atpg.py FILE [FILE ...]

Each file must be a ``repro-fsatpg-atpg/1`` document.  Beyond schema
shape, the script re-earns every verdict the engine claims (the CI
atpg-smoke job fails otherwise):

* every ``test`` verdict is replayed: the circuit is re-synthesized, the
  (state, combo) expansion is simulated through the interpreted fault
  simulator (independent of the PPSFP replay ``atpg`` ran), and the target
  fault must actually be detected;
* every ``untestable`` verdict is re-verified against exhaustive
  detectability restricted to assigned state codes — the same constraint
  the structural search enforces;
* every ``aborted`` verdict must name a known abort reason and is never
  counted as untestable;
* per-run counts (targets, coverage, backtracks) must be arithmetically
  coherent with the verdict list.

Problems are reported one per line; any problem makes the exit code 1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.benchmarks import (  # noqa: E402
    circuit_names,
    load_circuit,
    load_kiss_machine,
)
from repro.core.testset import ScanTest  # noqa: E402
from repro.gatelevel.detectability import (  # noqa: E402
    assigned_pattern_mask,
    detectable_faults,
)
from repro.gatelevel.fault_sim import detects  # noqa: E402
from repro.gatelevel.scan import ScanCircuit  # noqa: E402
from repro.gatelevel.stuck_at import StuckAtFault  # noqa: E402
from repro.gatelevel.synthesis import SynthesisOptions  # noqa: E402

SCHEMA = "repro-fsatpg-atpg/1"
STATUSES = {"test", "untestable", "aborted"}
ABORT_REASONS = {"backtrack-limit", "time-budget"}


def _fault(entry: dict) -> StuckAtFault:
    return StuckAtFault(entry["gate"], entry["pin"], entry["value"])


def _check_run(run: dict, max_fanin: int | None) -> list[str]:
    problems: list[str] = []
    name = run.get("circuit", "")
    if name not in set(circuit_names()):
        return [f"unknown circuit {name!r}"]
    # Mirror the CLI study pipeline exactly: the netlist is synthesized
    # from the KISS machine, while tests replay against the state table.
    table = load_circuit(name)
    circuit = ScanCircuit.from_machine(
        load_kiss_machine(name), SynthesisOptions(max_fanin=max_fanin)
    )

    verdicts = run.get("verdicts", [])
    by_status: dict[str, list[dict]] = {status: [] for status in STATUSES}
    for index, verdict in enumerate(verdicts):
        status = verdict.get("status")
        if status not in STATUSES:
            problems.append(f"{name}: verdict {index}: bad status {status!r}")
            continue
        by_status[status].append(verdict)

    for key, expected in (
        ("targets", len(verdicts)),
        ("tests", len(by_status["test"])),
        ("untestable", len(by_status["untestable"])),
        ("aborted", len(by_status["aborted"])),
        ("backtracks", sum(v.get("backtracks", 0) for v in verdicts)),
    ):
        if run.get(key) != expected:
            problems.append(
                f"{name}: {key} = {run.get(key)!r} but verdicts say {expected}"
            )
    if verdicts:
        coverage = 100.0 * len(by_status["test"]) / len(verdicts)
        if abs(run.get("coverage_pct", 0.0) - coverage) > 0.01:
            problems.append(
                f"{name}: coverage_pct = {run.get('coverage_pct')} does not "
                f"match tests/targets = {coverage:.2f}"
            )

    # Claimed tests must replay to a detection through the interpreted
    # fault simulator, independently of the production replay that
    # `atpg` ran — the payload's `witness: true` is not taken on faith.
    tests = by_status["test"]
    if tests:
        faults = [_fault(v["fault"]) for v in tests]
        pi = circuit.n_primary_inputs
        for verdict, fault in zip(tests, faults):
            state, combo = verdict.get("state"), verdict.get("combo")
            if state is None or combo is None:
                problems.append(
                    f"{name}: test verdict for {fault.site()} carries no "
                    "(state, combo) expansion"
                )
                continue
            code = circuit.encoding.encode(state)
            if verdict.get("pattern") != (code << pi) | combo:
                problems.append(
                    f"{name}: {fault.site()}: pattern "
                    f"{verdict.get('pattern')!r} does not match the "
                    "(state, combo) expansion"
                )
            if verdict.get("witness") is not True:
                problems.append(
                    f"{name}: {fault.site()}: test verdict without a "
                    "machine-checked witness"
                )
            test = ScanTest(state, (combo,), table.final_state(state, (combo,)))
            if fault not in detects(circuit, table, test, [fault]):
                problems.append(
                    f"{name}: {fault.site()}: claimed test "
                    f"(state={state}, combo={combo}) does not detect the "
                    "fault on replay"
                )

    # Untestable claims re-verify against exhaustive detectability under
    # the assigned-state-code restriction.
    untestable = by_status["untestable"]
    if untestable:
        faults = [_fault(v["fault"]) for v in untestable]
        mask = assigned_pattern_mask(circuit.encoding, circuit.n_primary_inputs)
        detectable, _ = detectable_faults(
            circuit.netlist, faults, pattern_mask=mask
        )
        for fault in faults:
            if fault in detectable:
                problems.append(
                    f"{name}: {fault.site()}: claimed untestable but "
                    "exhaustive simulation detects it"
                )

    for verdict in by_status["aborted"]:
        reason = verdict.get("aborted_reason")
        if reason not in ABORT_REASONS:
            problems.append(
                f"{name}: aborted verdict with unknown reason {reason!r}"
            )
    return problems


def check_payload(payload: dict) -> list[str]:
    problems: list[str] = []
    if payload.get("schema") != SCHEMA:
        problems.append(
            f"schema is {payload.get('schema')!r}, expected {SCHEMA!r}"
        )
    if payload.get("algorithm") != "podem":
        problems.append(f"unknown algorithm {payload.get('algorithm')!r}")
    runs = payload.get("runs")
    if not isinstance(runs, list) or not runs:
        problems.append("payload carries no runs")
        return problems
    max_fanin = payload.get("max_fanin", 4)
    for run in runs:
        problems.extend(_check_run(run, max_fanin))
    return problems


def main(argv: list[str] | None = None) -> int:
    arguments = argv if argv is not None else sys.argv[1:]
    if not arguments:
        print(__doc__, file=sys.stderr)
        return 2
    status = 0
    for argument in arguments:
        path = Path(argument)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: unreadable: {exc}", file=sys.stderr)
            status = 1
            continue
        problems = check_payload(payload)
        if problems:
            status = 1
            for problem in problems:
                print(f"{path}: {problem}", file=sys.stderr)
        else:
            runs = payload["runs"]
            summary = ", ".join(
                f"{run['circuit']}: {run['tests']}/{run['targets']} tests, "
                f"{run['untestable']} untestable, {run['aborted']} aborted"
                for run in runs
            )
            print(f"{path}: OK ({payload['algorithm']}; {summary})")
    return status


if __name__ == "__main__":
    sys.exit(main())
