"""Command-line interface: ``python -m repro`` / ``repro-fsatpg``.

Subcommands
-----------
``info``       — registry and machine statistics for one circuit
``generate``   — run the test generation procedure and print the tests
``export``     — generate and write the tests as JSON or tester vectors
``nonscan``    — non-scan checking sequence and its coverage gap
``delay``      — transition-delay coverage, chained tests vs baseline
``table2..9``  — regenerate the corresponding paper table
``all``        — regenerate every table over a tier
``lint``       — static analysis of machines, netlists, and test programs
``analyze``    — static netlist analysis: collapsing, SCOAP, redundancy
``atpg``       — structural ATPG (PODEM), every verdict machine-checked;
                 ``--top-off`` closes the functional gap
``fuzz``       — differential fuzzing of the whole stack (exit 1 on failure)
``claims``     — run the reproduction certificate (exit 1 on any failure)
``bench``      — serial vs parallel sweep timing (BENCH_perf.json)
``cache``      — inspect (``info``) or wipe (``clear``) the ATPG-run cache
``trace``      — run a table/circuit pipeline with span tracing on and
                 write a Chrome ``trace_event`` file (chrome://tracing,
                 Perfetto)
``stats``      — same run, but print a profile (top spans by self time,
                 counter/histogram tables) instead of a trace file
``history``    — trend table of run-ledger records for one command
``report``     — self-contained HTML dashboard of the run ledger
``regress``    — rerun a BENCH baseline's workload and fail on stage-time
                 or test-quality regressions
``explain``    — decision provenance: why each transition was chained into
                 a longer test or terminated with a scan-out

Table-regeneration commands, ``all``, ``generate``, ``claims``, ``fuzz``,
and ``bench`` append one record per invocation to the run ledger (JSONL
under ``~/.local/state/repro-fsatpg/ledger`` by default; see
``REPRO_LEDGER_DIR``, ``--ledger-dir``, and ``--no-ledger``).

Table-regeneration commands accept ``--jobs N`` to fan the per-circuit
pipeline across worker processes; results are identical either way.
They also accept ``--trace-out PATH`` / ``--metrics-out PATH`` to capture
a trace or metrics snapshot of any normal run (see docs/observability.md),
and the top-level ``-v``/``-q`` flags gate the structured stderr logger.
``atpg --cache-dir PATH`` reuses verified ATPG runs across invocations.

Examples
--------
::

    repro-fsatpg generate lion
    repro-fsatpg table5 --tier medium
    repro-fsatpg table9 --circuits dk512,mark1
    repro-fsatpg all --tier small
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from repro.benchmarks import circuit_names, get_spec, load_circuit
from repro.core.config import FAULT_SIM_ENGINES, FaultSimConfig, GeneratorConfig
from repro.core.coverage import verify_test_set
from repro.core.generator import generate_tests
from repro.harness import experiments
from repro.harness.experiments import StudyOptions, render

__all__ = ["main", "build_parser"]


def _circuit_list(args: argparse.Namespace) -> tuple[str, ...]:
    if getattr(args, "circuits", None):
        return tuple(name.strip() for name in args.circuits.split(",") if name.strip())
    tier = getattr(args, "tier", None)
    if tier in (None, "all"):
        return circuit_names()
    if tier == "default":
        return circuit_names("small") + circuit_names("medium")
    return circuit_names(tier)


def _config_from(args: argparse.Namespace) -> GeneratorConfig:
    return GeneratorConfig(
        max_uio_length=getattr(args, "uio_length", None),
        max_transfer_length=getattr(args, "transfer_length", 1),
        scan_ratio=getattr(args, "scan_ratio", 1),
    )


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _non_negative_int(text: str) -> int:
    """``type=`` of the search and generator limits: an int >= 0, refused
    at parse time."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    """``type=`` of ``--scan-ratio`` and ``stats --top``: an int >= 1."""
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _fanin_bound(text: str) -> int:
    """``type=`` of ``--max-fanin``: 0 (unbounded) or an int >= 2."""
    value = _int(text)
    if value != 0 and value < 2:
        raise argparse.ArgumentTypeError(
            f"must be 0 (unbounded) or >= 2, got {value}"
        )
    return value


#: The generator and synthesis limits, each defined once: the keywords of
#: its ``add_argument``.  The ``type=`` validators refuse at parse time what
#: :class:`GeneratorConfig` and ``SynthesisOptions`` would refuse later.
_LIMITS: dict[str, dict] = {
    "--uio-length": dict(type=_non_negative_int, default=None,
                         help="bound L on UIO length (default: N_SV)"),
    "--transfer-length": dict(type=_non_negative_int, default=1,
                              help="bound T on transfer length (0 disables)"),
    "--scan-ratio": dict(type=_positive_int, default=1,
                         help="scan clock period in functional clock periods"),
    "--max-fanin": dict(type=_fanin_bound, default=4,
                        help="gate fanin bound for synthesis (0 = unbounded)"),
    "--bridging-limit": dict(type=_non_negative_int, default=500,
                             help="max bridging line pairs (0 = unlimited)"),
}

#: The limits of test generation, which every generating command takes.
_GENERATOR_LIMITS = ("--uio-length", "--transfer-length", "--scan-ratio")


def _add_limits(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_LIMITS[flag])


def _options_from(args: argparse.Namespace) -> StudyOptions:
    return StudyOptions(
        config=_config_from(args),
        max_fanin=getattr(args, "max_fanin", 4),
        bridging_pair_limit=getattr(args, "bridging_limit", 500),
        faultsim=FaultSimConfig(engine=getattr(args, "engine", "auto")),
    )


def _cmd_info(args: argparse.Namespace) -> int:
    spec = get_spec(args.circuit)
    table = load_circuit(args.circuit)
    print(f"circuit           {spec.name}")
    print(f"source            {'exact' if spec.exact else 'synthetic stand-in'}")
    print(f"tier              {spec.tier}")
    print(f"primary inputs    {spec.n_inputs}")
    print(f"primary outputs   {spec.n_outputs}")
    print(f"states            {spec.n_states} ({spec.n_core_states} core + "
          f"{spec.n_fill_states} fill)")
    print(f"state variables   {spec.n_state_variables}")
    print(f"transitions       {table.n_transitions}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    table = load_circuit(args.circuit)
    result = generate_tests(table, _config_from(args))
    args._ledger_circuits = [args.circuit]
    args._ledger_results = {
        args.circuit: {
            "tests": result.n_tests,
            "test_length": result.total_length,
            "pct_length_one": round(result.pct_length_one, 4),
            "clock_cycles": result.clock_cycles(),
        }
    }
    if args.verify:
        report = verify_test_set(table, result.test_set)
        status = "complete" if report.is_complete else "INCOMPLETE"
        print(f"# strict coverage: {status} "
              f"({len(report.verified)}/{report.n_transitions} verified)")
    print(f"# {result.n_tests} tests, total length {result.total_length}, "
          f"{result.pct_length_one:.2f}% of transitions in length-1 tests")
    print(f"# {result.clock_cycles()} clock cycles "
          f"({result.cycles_pct_of_baseline():.2f}% of per-transition baseline)")
    if args.show_tests:
        for test in result.test_set:
            print(test)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.core.export import test_set_to_json, test_set_to_vectors

    table = load_circuit(args.circuit)
    result = generate_tests(table, _config_from(args))
    if args.format == "json":
        text = test_set_to_json(result.test_set)
    else:
        text = test_set_to_vectors(result.test_set, table)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {result.n_tests} tests to {args.output}")
    return 0


def _cmd_nonscan(args: argparse.Namespace) -> int:
    from repro.core.coverage import verify_test_set as _verify
    from repro.nonscan import generate_nonscan_sequence

    table = load_circuit(args.circuit)
    nonscan = generate_nonscan_sequence(table, _config_from(args))
    scan = generate_tests(table, _config_from(args))
    report = _verify(table, scan.test_set)
    sync = "synchronizing prefix" if nonscan.used_synchronizing else "assumed reset"
    print(f"non-scan checking sequence for {args.circuit} ({sync}):")
    print(f"  length            {nonscan.length}")
    print(f"  exercised         {nonscan.exercised_pct:.2f}% of transitions")
    print(f"  verified          {nonscan.verified_pct:.2f}%")
    print(f"  unreachable       {len(nonscan.unreachable)} transitions")
    print(f"  unverifiable      {len(nonscan.exercised_only)} transitions")
    print(f"scan-based tests:   {scan.n_tests} tests, "
          f"{100.0 * report.verified_fraction:.2f}% verified")
    return 0


def _cmd_delay(args: argparse.Namespace) -> int:
    from repro.benchmarks import load_kiss_machine
    from repro.core.baseline import per_transition_tests
    from repro.gatelevel.delay import simulate_delay_faults
    from repro.gatelevel.scan import ScanCircuit
    from repro.gatelevel.synthesis import SynthesisOptions

    table = load_circuit(args.circuit)
    circuit = ScanCircuit.from_machine(
        load_kiss_machine(args.circuit),
        SynthesisOptions(max_fanin=args.max_fanin),
    )
    chained = simulate_delay_faults(
        circuit, table, generate_tests(table, _config_from(args)).test_set
    )
    baseline = simulate_delay_faults(circuit, table, per_transition_tests(table))
    print(f"transition-delay faults on {args.circuit} "
          f"({chained.n_faults} faults, fanin-{args.max_fanin} netlist):")
    print(f"  per-transition baseline : {baseline.n_at_speed_pairs:5d} at-speed "
          f"pairs, {baseline.coverage_pct:6.2f}% coverage")
    print(f"  chained functional tests: {chained.n_at_speed_pairs:5d} at-speed "
          f"pairs, {chained.coverage_pct:6.2f}% coverage")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.benchmarks import load_kiss_machine
    from repro.lint import (
        LintReport,
        analyze_machine,
        analyze_netlist,
        analyze_test_program,
        lint_kiss_source,
    )

    reports: list[LintReport] = []
    for path in args.kiss or ():
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        reports.append(lint_kiss_source(text, name=path))
    if args.kiss and not args.circuits and args.tier == "default":
        circuits: tuple[str, ...] = ()
    else:
        circuits = _circuit_list(args)
    config = _config_from(args)
    for name in circuits:
        machine = load_kiss_machine(name)
        reports.append(analyze_machine(machine, name=name))
        if args.gatelevel or args.run_tests:
            table = load_circuit(name)
        if args.gatelevel:
            from repro.gatelevel.scan import ScanCircuit
            from repro.gatelevel.synthesis import SynthesisOptions

            circuit = ScanCircuit.from_machine(
                machine, SynthesisOptions(max_fanin=args.max_fanin)
            )
            reports.append(analyze_netlist(circuit, name=f"{name}/netlist"))
        if args.run_tests:
            result = generate_tests(table, config)
            reports.append(
                analyze_test_program(
                    table,
                    result.test_set,
                    config,
                    result.uio_table,
                    name=f"{name}/tests",
                )
            )
    merged = reports[0].merged(*reports[1:]) if reports else LintReport()
    if args.format == "json":
        print(merged.to_json())
    else:
        artifacts = len(reports)
        print(merged.render(f"lint ({artifacts} artifact(s) analyzed)"))
    if merged.errors or (args.strict and merged.warnings):
        return 1
    return 0


def _cmd_claims(args: argparse.Namespace) -> int:
    from repro.harness.claims import render_claims, verify_claims

    circuits = _circuit_list(args) if args.circuits or args.tier != "default" \
        else None
    if circuits is not None:
        _warm(args, circuits, _options_from(args))
        args._ledger_circuits = list(circuits)
    results = verify_claims(circuits, _options_from(args))
    print(render_claims(results))
    passed = sum(1 for result in results if result.passed)
    args._ledger_results = {
        "claims": {"passed": passed, "failed": len(results) - passed}
    }
    return 0 if passed == len(results) else 1


def _warm(args: argparse.Namespace, circuits: tuple[str, ...],
          options: StudyOptions, scope: str = "full"):
    """Precompute the per-circuit studies before rendering.

    Always runs — serially or across ``--jobs`` workers — so every table
    command takes the same pipeline path regardless of job count and its
    ledger record is jobs-invariant by construction.  ``scope="functional"``
    stops after test generation for tables that never read gate-level
    artifacts.  Returns the registered studies by circuit name.
    """
    jobs = getattr(args, "jobs", 1) or 1
    if not circuits:
        return {}
    return experiments.warm_studies(circuits, options, jobs=jobs, scope=scope)


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf.bench import main as bench_main

    argv: list[str] = ["--jobs", str(args.jobs), "-o", args.output]
    if args.circuits:
        argv += ["--circuits", args.circuits]
    if args.quick:
        argv.append("--quick")
    if args.engine:
        argv += ["--engine", args.engine]
    # Forward the global verbosity flags: bench re-resolves them itself.
    if args.quiet_global:
        argv.append("-q")
    argv += ["-v"] * args.verbose_global
    return bench_main(argv)


def _cache_root(args: argparse.Namespace) -> str | None:
    return None if args.cache_dir in (None, "", "default") else args.cache_dir


def _cmd_cache_info(args: argparse.Namespace) -> int:
    from repro.perf.cache import ArtifactCache, active_cache

    # Prefer the in-process cache when one is active so the session
    # hit/miss counters reflect real traffic, not a fresh zeroed instance.
    cache = active_cache() or ArtifactCache(_cache_root(args))
    info = cache.info()
    print(f"root      {info['root']}")
    print(f"format    {info['format']}")
    versions = " ".join(f"{k}={v}" for k, v in sorted(info["versions"].items()))
    print(f"versions  {versions}")
    for kind, stats in sorted(info["kinds"].items()):
        print(f"  {kind:<18} {stats['entries']:6d} entries  "
              f"{stats['bytes']:12,d} bytes")
    print(f"total     {info['entries']} entries, {info['bytes']:,} bytes")
    session = info["session"]
    lookups = session["hits"] + session["misses"]
    if lookups:
        print(f"session   {session['hits']} hit(s), {session['misses']} miss(es)"
              f" ({100.0 * session['hit_rate']:.1f}% hit rate)")
    else:
        # A 0.0% rate would misread as "all misses" when nothing was asked.
        print("session   no lookups yet (hit rate n/a)")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json as _json

    from repro.harness.experiments import CircuitStudy
    from repro.sca import INFINITY

    study = CircuitStudy(args.circuit, _options_from(args))
    scan, sca = study.scan_circuit, study.sca  # both verified
    universe = sca.universe
    args._ledger_circuits = [args.circuit]
    args._ledger_results = {
        args.circuit: {
            "faults": universe.n_faults,
            "representatives": universe.n_representatives,
            "collapse_ratio": round(universe.ratio, 4),
            "constant_nets": len(sca.constants.constant_lines),
            "unobservable_nets": len(sca.unobservable),
            "certificates": len(sca.certificates),
            "untestable_faults": len(sca.untestable_faults),
        }
    }
    if args.format == "json":
        payload = sca.to_dict(include_scoap=not args.no_scoap)
        payload["circuit"] = args.circuit
        payload["max_fanin"] = args.max_fanin
        payload["verified"] = True
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0

    netlist = scan.netlist
    fmt = lambda v: "inf" if v >= INFINITY else str(v)  # noqa: E731
    print(f"circuit        {args.circuit}")
    print(f"netlist        {netlist.n_gates} gates, "
          f"{len(netlist.inputs)} inputs, {len(netlist.outputs)} outputs, "
          f"depth {max(sca.levels, default=0)}")
    print(f"regions        {sca.regions.n_regions} fanout-free regions, "
          f"{len(netlist.inputs) + len(sca.regions.branches)} checkpoints")
    print(f"collapse       {universe.n_faults} faults -> "
          f"{universe.n_representatives} representatives "
          f"({universe.ratio:.2f}x)")
    print(f"constants      {len(sca.constants.constant_lines)} proven-constant "
          f"net(s)")
    print(f"unobservable   {len(sca.unobservable)} proven-unobservable net(s)")
    print(f"untestable     {len(sca.certificates)} certificate(s) covering "
          f"{len(sca.untestable_faults)} fault(s), all verified")
    scoap = sca.scoap
    hardest = sorted(
        range(netlist.n_gates),
        key=lambda line: (-scoap.testability(line), line),
    )[: max(args.top, 0)]
    if hardest:
        print()
        print(f"hardest nets by SCOAP (top {len(hardest)}):")
        print(f"  {'net':<14} {'cc0':>6} {'cc1':>6} {'co':>6} {'t':>6}")
        for line in hardest:
            label = netlist.gate(line).name or f"g{line}"
            print(f"  {label:<14} {fmt(scoap.cc0[line]):>6} "
                  f"{fmt(scoap.cc1[line]):>6} {fmt(scoap.co[line]):>6} "
                  f"{fmt(scoap.testability(line)):>6}")
    if sca.certificates:
        print()
        shown = sca.certificates[:20]
        print(f"certificates ({len(sca.certificates)} total, "
              f"{len(shown)} shown):")
        for cert in shown:
            print(f"  {cert.fault.site():<20} {cert.reason}")
    return 0


def _cmd_atpg(args: argparse.Namespace) -> int:
    import json as _json

    from repro.atpg import ATPG_SCHEMA, top_off
    from repro.harness.experiments import CircuitStudy
    from repro.perf.artifacts import cached_atpg

    options = _options_from(args)
    runs = []
    results: dict[str, dict] = {}
    for name in args.circuits:
        study = CircuitStudy(name, options)
        scan, sca, table = study.scan_circuit, study.sca, study.table
        payload: dict[str, object]
        if args.top_off:
            report = top_off(
                scan,
                table,
                study.stuck_at_faults,
                study.stuck_at_selection.detected,
                proven_untestable=sca.untestable_representatives,
                backtrack_limit=args.backtrack_limit,
                scoap=sca.scoap,
                certificates=sca.certificates,
            )
            run = report.run
            payload = run.to_dict()
            payload["top_off"] = report.to_dict()
        else:
            run = cached_atpg(
                scan,
                table,
                study.stuck_at_faults,
                backtrack_limit=args.backtrack_limit,
                certificates=sca.certificates,
                circuit=name,
            )
            report = None
            payload = run.to_dict()
        payload["circuit"] = name
        runs.append((name, run, report, payload))
        results[name] = {
            "targets": run.n_targets,
            "tests": len(run.tests),
            "untestable": len(run.untestable),
            "aborted": len(run.aborted),
            "coverage_pct": round(run.coverage_pct, 2),
            "backtracks": run.total_backtracks,
        }
    args._ledger_circuits = list(args.circuits)
    args._ledger_results = results
    args._ledger_semantics = {
        "backtrack_limit": args.backtrack_limit,
        "top_off": bool(args.top_off),
    }
    if args.format == "json":
        print(_json.dumps(
            {"schema": ATPG_SCHEMA,
             "algorithm": "podem",
             "backtrack_limit": args.backtrack_limit,
             "max_fanin": args.max_fanin,
             "runs": [payload for _, _, _, payload in runs]},
            indent=2, sort_keys=True,
        ))
        return 0
    for name, run, report, _ in runs:
        certified = sum(1 for v in run.untestable if v.certified)
        print(f"circuit      {name}")
        print(f"algorithm    podem (backtrack limit {run.backtrack_limit})")
        print(f"targets      {run.n_targets} collapsed representative(s)")
        print(f"tests        {len(run.tests)} found, every witness "
              f"replayed through the fault simulator")
        print(f"untestable   {len(run.untestable)} proven by exhausted "
              f"search ({certified} matching a static certificate)")
        print(f"aborted      {len(run.aborted)} (budget exhausted, "
              f"no verdict)")
        print(f"coverage     {run.coverage_pct:.2f}% of targets")
        print(f"backtracks   {run.total_backtracks} total")
        if report is not None:
            print(f"top-off      functional "
                  f"{report.functional_coverage_pct:.2f}% -> combined "
                  f"{report.combined_coverage_pct:.2f}% "
                  f"({len(run.tests)} structural test(s) added)")
        if run is not runs[-1][1]:
            print()
    return 0


def _cmd_cache_clear(args: argparse.Namespace) -> int:
    from repro.perf.cache import ArtifactCache

    cache = ArtifactCache(_cache_root(args))
    removed = cache.clear()
    print(f"removed {removed} cached artifact(s) from {cache.root}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json as _json

    from repro.errors import FuzzError
    from repro.fuzz import FuzzConfig, oracle_names, run_fuzz

    if args.list_oracles:
        from repro.fuzz import get_oracle

        for name in oracle_names():
            print(f"{name}: {get_oracle(name).description}")
        return 0
    from repro.obs.log import INFO, get_logger, set_verbosity, verbosity

    if args.verbose and verbosity() > INFO:
        # `fuzz -v` predates the global -v flag; keep it working.
        set_verbosity(INFO)
    logger = get_logger("fuzz")
    progress: Callable[[str], None] | None = None
    if verbosity() <= INFO:

        def progress(message: str) -> None:
            logger.info(message)
    try:
        config = FuzzConfig(
            cases=args.cases,
            seed=args.seed,
            oracles=tuple(args.oracle or ()),
            corpus_dir=args.corpus,
            shrink=not args.no_shrink,
            max_states=args.max_states,
            max_inputs=args.max_inputs,
            max_outputs=args.max_outputs,
            time_budget_s=args.time_budget,
            max_failures=args.max_failures,
        )
        report = run_fuzz(config, progress)
    except FuzzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render(), end="")
    args._ledger_semantics = {
        "cases": args.cases,
        "seed": args.seed,
        "oracles": sorted(args.oracle or ()),
    }
    args._ledger_results = {
        "fuzz": {
            "executed_cases": report.executed_cases,
            "replayed_entries": report.replayed_entries,
            "failures": len(report.failures),
        }
    }
    return 0 if report.ok else 1


def _trace_targets(args: argparse.Namespace) -> tuple[int | None, tuple[str, ...]]:
    """Resolve a ``trace``/``stats``/``explain`` target into
    (table number, circuits)."""
    target = args.target
    if target in circuit_names():
        return None, (target,)
    if target.startswith("table") and target[5:] in tuple("23456789"):
        circuits = tuple(
            name.strip() for name in args.circuit.split(",") if name.strip()
        )
        return int(target[5:]), circuits or ("lion",)
    print(f"error: unknown target {target!r} "
          "(expected table2..table9 or a circuit name)", file=sys.stderr)
    raise SystemExit(2)


def _run_observed(args: argparse.Namespace):
    """Run the target pipeline under a fresh obs session; returns it.

    The full three-phase sweep runs for the selected circuits (so UIO
    search, transfer, chaining, and fault-simulation spans all appear even
    for purely functional tables), then the table itself renders from the
    warmed studies.
    """
    from repro import obs

    number, circuits = _trace_targets(args)
    options = _options_from(args)
    jobs = getattr(args, "jobs", 1) or 1
    table_text = ""
    # Diagnostic commands opt into tracemalloc-backed per-span peak-memory
    # attribution; ledgered/bench runs keep it off (real overhead).
    with obs.observing(deep_memory=True) as session:
        experiments.warm_studies(circuits, options, jobs=jobs)
        if number is not None:
            if number in (2, 3):
                function = getattr(experiments, f"table{number}")
                rows = function(circuits[0], options)
            elif number == 8:
                rows = experiments.table8(circuits, options)
            elif number == 9:
                rows = experiments.table9(circuits, options)
            else:
                function = getattr(experiments, f"table{number}")
                rows = function(circuits, options)
            table_text = render(number, rows)
    return session, table_text


def _write_chrome_trace(path: str, events) -> None:
    import json as _json

    from repro.obs.trace import to_chrome

    with open(path, "w") as handle:
        _json.dump(to_chrome(events), handle)


def _write_metrics(path: str, registry) -> None:
    import json as _json

    with open(path, "w") as handle:
        _json.dump(registry.snapshot(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.trace import render_span_tree, span_tree

    session, table_text = _run_observed(args)
    events = session.tracer.events
    _write_chrome_trace(args.trace_out, events)
    if args.format == "json":
        print(_json.dumps(
            {
                "target": args.target,
                "spans": [event.to_dict() for event in events],
                "tree": span_tree(events),
                "metrics": session.registry.snapshot(),
                "trace_out": args.trace_out,
            },
            indent=2,
        ))
    else:
        if table_text:
            print(table_text)
            print()
        print(render_span_tree(events))
        print(f"wrote {len(events)} span(s) to {args.trace_out} "
              "(load in chrome://tracing or https://ui.perfetto.dev)")
    if args.metrics_out:
        _write_metrics(args.metrics_out, session.registry)
        if args.format != "json":
            print(f"wrote metrics snapshot to {args.metrics_out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.report import aggregate_spans, pool_utilization, render_stats

    session, table_text = _run_observed(args)
    if args.format == "json":
        metrics = session.registry.snapshot()
        print(_json.dumps(
            {
                "target": args.target,
                "spans": [
                    {
                        "name": stat.name,
                        "calls": stat.calls,
                        "total_s": stat.total_s,
                        "self_s": stat.self_s,
                        "mean_ms": stat.mean_ms,
                        "cpu_s": stat.cpu_s,
                        "self_cpu_s": stat.self_cpu_s,
                        "mem_peak_bytes": stat.mem_peak_bytes,
                    }
                    for stat in aggregate_spans(session.tracer.events)
                ],
                "pool": pool_utilization(metrics),
                "metrics": metrics,
            },
            indent=2,
        ))
    else:
        if table_text:
            print(table_text)
            print()
        print(render_stats(session.tracer.events, session.registry,
                           top=args.top))
    if args.trace_out:
        _write_chrome_trace(args.trace_out, session.tracer.events)
    if args.metrics_out:
        _write_metrics(args.metrics_out, session.registry)
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.analytics import detect_anomalies
    from repro.obs.history import command_records, render_history
    from repro.obs.ledger import read_records

    records = read_records()
    anomalies = [] if args.no_anomalies else detect_anomalies(records)
    if args.format == "json":
        selected = command_records(records, args.target)
        shown = selected[-args.limit:] if args.limit > 0 else selected
        print(_json.dumps(
            {"command": args.target, "total": len(selected),
             "records": list(shown),
             "anomalies": [
                 a.to_dict() for a in anomalies if a.command == args.target
             ]},
            indent=2,
        ))
        return 0
    print(render_history(records, args.target, limit=args.limit,
                         anomalies=anomalies))
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.analytics import (
        circuit_frame,
        render_fits_latex,
        render_fits_markdown,
        scaling_fits,
        tables_payload,
    )
    from repro.obs.ledger import read_records

    records = read_records()
    commands = [
        name.strip() for name in args.command.split(",") if name.strip()
    ] or None
    if args.format == "json":
        text = _json.dumps(
            tables_payload(records, commands), indent=2, sort_keys=True
        )
    else:
        frame = circuit_frame(records)
        if commands is None:
            commands = sorted(
                {str(c) for c in frame.column("command")}
                if len(frame) else set()
            )
        render = (
            render_fits_markdown if args.format == "markdown"
            else render_fits_latex
        )
        blocks = [
            render(scaling_fits(frame.where(command=name)), name)
            for name in commands
        ]
        text = "\n\n".join(blocks) if blocks else render([], "")
    if args.out == "-":
        print(text)
    else:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote scaling tables ({args.format}) to {args.out}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.analytics import (
        diff_payload,
        diff_records,
        resolve_record,
    )
    from repro.obs.analytics import render_diff as _render_diff
    from repro.obs.ledger import read_records

    records = read_records()
    if not records:
        print("error: the ledger is empty (nothing to diff)",
              file=sys.stderr)
        return 2
    try:
        base_index, base = resolve_record(records, args.base)
        other_index, other = resolve_record(records, args.other)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diff = diff_records(base, other, base_index, other_index)
    if args.format == "json":
        print(_json.dumps(diff_payload(diff), indent=2, sort_keys=True))
    else:
        print(_render_diff(diff, top_metrics=args.top_metrics))
    return 0


def _cmd_ledger_prune(args: argparse.Namespace) -> int:
    from repro.obs.ledger import ledger_dir, prune_records

    if args.keep < 1:
        print("error: --keep must be >= 1", file=sys.stderr)
        return 2
    summary = prune_records(args.keep)
    if summary is None:
        root = ledger_dir()
        where = "disabled" if root is None else f"empty at {root}"
        print(f"ledger {where}; nothing to prune")
        return 0
    corrupt = (
        f", dropped {summary['corrupt']} corrupt line(s)"
        if summary["corrupt"] else ""
    )
    print(
        f"kept {summary['kept']} record(s), pruned {summary['pruned']}"
        f"{corrupt} (newest {args.keep} per circuit)"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.history import render_html
    from repro.obs.ledger import read_records

    records = read_records()
    text = render_html(records, title=args.title)
    if args.out == "-":
        print(text)
    else:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {len(records)} ledger record(s) to {args.out}")
    return 0


def _cmd_regress(args: argparse.Namespace) -> int:
    from repro.obs.regress import run_regress

    circuits = tuple(
        name.strip() for name in args.circuits.split(",") if name.strip()
    )
    report, code = run_regress(
        args.baseline,
        circuits=circuits or None,
        jobs=max(1, args.jobs),
        threshold_pct=args.threshold,
        min_seconds=args.min_seconds,
        min_rss_kb=args.min_rss_kb,
    )
    if report is not None:
        print(report.render())
    return code


def _state_labels(machine: str) -> tuple[str, ...]:
    """Symbolic state names for ``explain`` output (falls back to ``s<N>``)."""
    try:
        from repro.benchmarks import load_kiss_machine

        return tuple(load_kiss_machine(machine).state_names())
    except Exception:
        return ()


def _explain_fault(args: argparse.Namespace, circuits: tuple[str, ...]) -> int:
    """Replay one fault's ATPG search with a deep forensic trace.

    The per-fault ring buffer kept on sweep verdicts holds the *last*
    ``trace_capacity`` events; this re-runs the single target with a much
    larger buffer so the whole decision/backtrack history is available,
    then renders it as an indented tree (or JSON).
    """
    import json as _json

    from repro.atpg import generate_structural_tests
    from repro.harness.experiments import CircuitStudy

    name = circuits[0]
    options = _options_from(args)
    study = CircuitStudy(name, options)
    scan, sca, table = study.scan_circuit, study.sca, study.table
    faults = list(study.stuck_at_faults)
    wanted = args.fault
    matches = [f for f in faults if f.site() == wanted]
    if not matches:
        close = [f.site() for f in faults if wanted in f.site()][:8]
        hint = f" (close: {', '.join(close)})" if close else ""
        print(f"error: no collapsed fault {wanted!r} in {name}; "
              f"{len(faults)} representative(s){hint}", file=sys.stderr)
        return 2
    run = generate_structural_tests(
        scan,
        table,
        matches[:1],
        backtrack_limit=args.backtrack_limit,
        certificates=sca.certificates,
        trace_capacity=args.trace_capacity,
        trace_hardest=1,
    )
    verdict = run.verdicts[0]
    if args.format == "json":
        payload = verdict.to_dict()
        payload["circuit"] = name
        payload["algorithm"] = "podem"
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"fault        {verdict.fault.site()}  (circuit {name})")
    print(f"algorithm    podem (backtrack limit {args.backtrack_limit})")
    outcome = verdict.status
    if verdict.aborted_reason:
        outcome += f" [{verdict.aborted_reason}]"
    print(f"verdict      {outcome} after {verdict.decisions} decision(s), "
          f"{verdict.backtracks} backtrack(s)")
    if verdict.pattern is not None:
        print(f"test         pattern {verdict.pattern:#x} "
              f"(state {verdict.state}, input {verdict.combo})")
    events = verdict.search_trace or ()
    dropped = verdict.trace_total - len(events)
    suffix = f" ({dropped} earlier event(s) evicted)" if dropped > 0 else ""
    print(f"trace        {len(events)} of {verdict.trace_total} "
          f"search event(s){suffix}")
    for position, event in enumerate(events, 1):
        indent = "  " * max(1, event.depth)
        print(f"  #{position:<4d}{indent}{event.kind:<9s} "
              f"{event.line}={event.value}  depth {event.depth}  "
              f"|D|={event.d_frontier}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    import json as _json

    from repro import obs
    from repro.obs.provenance import decision_summary

    _number, circuits = _trace_targets(args)
    if args.fault:
        return _explain_fault(args, circuits)
    transition: tuple[int, int] | None = None
    if args.transition:
        parts = args.transition.split(",")
        try:
            state_text, combo_text = parts
            transition = (int(state_text), int(combo_text))
        except ValueError:
            print("error: --transition wants 'state,input' "
                  f"(got {args.transition!r})", file=sys.stderr)
            return 2
    options = _options_from(args)
    # Decisions are made during test generation, so the functional scope is
    # always enough — no synthesis or fault simulation runs here.
    with obs.observing() as session:
        experiments.warm_studies(circuits, options, jobs=1, scope="functional")
    selected = [
        event
        for event in session.provenance.decisions()
        if transition is None
        or (event.state, event.combo) == transition
    ]
    if args.format == "json":
        print(_json.dumps([event.to_dict() for event in selected], indent=2))
        return 0 if selected else 1
    if not selected:
        where = f" for transition {args.transition}" if transition else ""
        print(f"no decisions recorded{where} (circuits: {', '.join(circuits)})")
        return 1
    by_machine: dict[str, list] = {}
    for event in selected:
        by_machine.setdefault(event.machine, []).append(event)
    for machine in sorted(by_machine):
        events = by_machine[machine]
        labels = _state_labels(machine)

        def label(state: object) -> str:
            if isinstance(state, int) and 0 <= state < len(labels):
                return labels[state]
            return f"s{state}"

        print(f"{machine}: {len(events)} transition decision(s)")
        for event in events:
            detail = dict(event.detail)
            next_state = detail.pop("next_state", "?")
            test_index = detail.pop("test_index", "?")
            step = detail.pop("step", "?")
            extra = ", ".join(
                f"{key}={value}" for key, value in sorted(detail.items())
            )
            print(f"  {label(event.state)} --in{event.combo}--> "
                  f"{label(next_state)}: {event.outcome} [{event.reason}] "
                  f"(test {test_index}, step {step}"
                  + (f", {extra}" if extra else "") + ")")
    if transition is None:
        summary = decision_summary(selected)
        decisions = ", ".join(
            f"{name}={count}" for name, count in summary["decisions"].items()
        )
        reasons = ", ".join(
            f"{name}={count}" for name, count in summary["reasons"].items()
        )
        print(f"summary: {decisions} ({reasons})")
    return 0


def _table_command(number: int):
    def run(args: argparse.Namespace) -> int:
        options = _options_from(args)
        artifacts: dict = {}
        if number in (2, 3):
            circuits: tuple[str, ...] = (args.circuit,)
            # table2 reads only the UIO table; table3 fault-simulates.
            scope = "functional" if number == 2 else "full"
            artifacts = _warm(args, circuits, options, scope)
            function = getattr(experiments, f"table{number}")
            rows = function(args.circuit, options)
        elif number in (8, 9):
            # Per-row option sweeps: the base-option studies would never be
            # read, so these render from their own lazy (serial) pipelines.
            circuits = _circuit_list(args) if args.circuits else ()
            function = getattr(experiments, f"table{number}")
            rows = function(circuits or None, options)
        else:
            circuits = _circuit_list(args)
            # Tables 4/5 are purely functional; 6/7 need the gate level.
            scope = "functional" if number in (4, 5) else "full"
            artifacts = _warm(args, circuits, options, scope)
            function = getattr(experiments, f"table{number}")
            rows = function(circuits, options)
        print(render(number, rows, csv=getattr(args, "csv", False)))
        args._ledger_circuits = list(circuits)
        args._ledger_results = {
            name: art.summary() for name, art in artifacts.items()
        }
        return 0

    return run


def _cmd_all(args: argparse.Namespace) -> int:
    options = _options_from(args)
    circuits = _circuit_list(args)
    artifacts = _warm(args, circuits, options)
    args._ledger_circuits = list(circuits)
    args._ledger_results = {
        name: art.summary() for name, art in artifacts.items()
    }
    print(render(2, experiments.table2("lion", options)))
    print()
    print(render(3, experiments.table3("lion", options)))
    print()
    for number in (4, 5, 6, 7):
        function = getattr(experiments, f"table{number}")
        print(render(number, function(circuits, options)))
        print()
    print(render(8, experiments.table8(None, options)))
    print()
    table9_circuits = [c for c in experiments.TABLE9_CIRCUITS if c in circuits]
    if table9_circuits:
        print(render(9, experiments.table9(table9_circuits, options)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fsatpg",
        description="Functional test generation for full scan circuits "
        "(Pomeranz & Reddy, DATE 2000).",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        dest="verbose_global",
                        help="structured progress logging on stderr "
                        "(-vv for debug)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        dest="quiet_global",
                        help="errors only on stderr")
    parser.add_argument("--progress", action="store_true",
                        dest="progress_global",
                        help="live heartbeat lines (done/total, rate, ETA "
                        "from the run ledger) for long sweeps")
    parser.add_argument("--no-ledger", action="store_true",
                        help="do not append this run to the run ledger")
    parser.add_argument("--ledger-dir", default=None, metavar="PATH",
                        help="run-ledger directory (default: $REPRO_LEDGER_DIR "
                        "or ~/.local/state/repro-fsatpg/ledger)")
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="show one circuit's parameters")
    info.add_argument("circuit")
    info.set_defaults(func=_cmd_info)

    gen = sub.add_parser("generate", help="generate functional scan tests")
    gen.add_argument("circuit")
    _add_limits(gen, *_GENERATOR_LIMITS)
    gen.add_argument("--no-tests", dest="show_tests", action="store_false",
                     help="print statistics only")
    gen.add_argument("--verify", action="store_true",
                     help="run the strict coverage checker")
    gen.set_defaults(func=_cmd_generate)

    export = sub.add_parser("export", help="write generated tests to a file")
    export.add_argument("circuit")
    export.add_argument("--format", choices=("json", "vectors"), default="json")
    export.add_argument("-o", "--output", default="-",
                        help="output path ('-' prints to stdout)")
    _add_limits(export, *_GENERATOR_LIMITS)
    export.set_defaults(func=_cmd_export)

    nonscan = sub.add_parser(
        "nonscan", help="non-scan checking sequence vs scan coverage"
    )
    nonscan.add_argument("circuit")
    _add_limits(nonscan, *_GENERATOR_LIMITS)
    nonscan.set_defaults(func=_cmd_nonscan)

    delay = sub.add_parser(
        "delay", help="transition-delay coverage, chained vs baseline"
    )
    delay.add_argument("circuit")
    _add_limits(delay, "--max-fanin", *_GENERATOR_LIMITS)
    delay.set_defaults(func=_cmd_delay)

    def add_common(p: argparse.ArgumentParser, with_circuit_list: bool) -> None:
        if with_circuit_list:
            p.add_argument("--circuits", default="",
                           help="comma-separated circuit names")
            p.add_argument("--tier", default="default",
                           choices=("small", "medium", "large", "all", "default"),
                           help="circuit tier (default: small+medium)")
        _add_limits(p, *_GENERATOR_LIMITS, "--max-fanin", "--bridging-limit")
        p.add_argument("--engine", default="auto", choices=FAULT_SIM_ENGINES,
                       help="fault-sim engine: ppsfp (pattern-parallel "
                       "tables), bigint (the interpreted parallel-fault "
                       "reference), or auto: PPSFP on byte-budget fault "
                       "chunks (default)")
        p.add_argument("--csv", action="store_true",
                       help="emit CSV instead of the fixed-width table")
        if with_circuit_list:
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes for the per-circuit "
                           "pipeline (1 = serial)")
        p.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write a Chrome trace_event file of this run "
                       "(chrome://tracing / Perfetto)")
        p.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write a JSON metrics snapshot of this run")

    for number in range(2, 10):
        help_text = {
            2: "UIO sequences of one circuit",
            3: "stuck-at simulation rows for one circuit",
            4: "circuit parameters and UIO statistics",
            5: "functional test generation statistics",
            6: "gate-level stuck-at and bridging coverage",
            7: "clock cycles for test application",
            8: "test generation without transfer sequences",
            9: "sweep of the UIO length bound",
        }[number]
        p = sub.add_parser(f"table{number}", help=help_text)
        if number in (2, 3):
            p.add_argument("circuit", nargs="?", default="lion")
            add_common(p, with_circuit_list=False)
        else:
            add_common(p, with_circuit_list=True)
        p.set_defaults(func=_table_command(number))

    lint = sub.add_parser(
        "lint",
        help="static analysis of machines, netlists, and generated tests",
    )
    lint.add_argument("--circuits", default="",
                      help="comma-separated circuit names")
    lint.add_argument("--tier", default="default",
                      choices=("small", "medium", "large", "all", "default"),
                      help="circuit tier (default: small+medium)")
    lint.add_argument("--kiss", nargs="*", metavar="FILE",
                      help="lint KISS2 files instead of (or besides) circuits")
    lint.add_argument("--format", choices=("human", "json"), default="human",
                      help="output format (json is SARIF-like)")
    lint.add_argument("--strict", action="store_true",
                      help="exit non-zero on warnings, not just errors")
    lint.add_argument("--no-gatelevel", dest="gatelevel", action="store_false",
                      help="skip synthesizing and linting the netlist")
    lint.add_argument("--no-tests", dest="run_tests", action="store_false",
                      help="skip generating and linting the test program")
    _add_limits(lint, "--max-fanin", *_GENERATOR_LIMITS)
    lint.set_defaults(func=_cmd_lint)

    analyze = sub.add_parser(
        "analyze",
        help="static netlist analysis: fault collapsing, SCOAP measures, "
        "and machine-checked redundancy proofs",
    )
    analyze.add_argument("circuit")
    _add_limits(analyze, "--max-fanin")
    analyze.add_argument("--format", choices=("human", "json"),
                         default="human",
                         help="json emits the full repro-fsatpg-sca/1 "
                         "payload (see scripts/validate_sca.py)")
    analyze.add_argument("--top", type=int, default=10,
                         help="hardest nets shown in the SCOAP table "
                         "(human format; default: 10)")
    analyze.add_argument("--no-scoap", action="store_true",
                         help="omit the per-net SCOAP block from JSON output")
    analyze.add_argument("--trace-out", default=None, metavar="PATH",
                         help="write a Chrome trace_event file of this run")
    analyze.add_argument("--metrics-out", default=None, metavar="PATH",
                         help="write a JSON metrics snapshot of this run")
    analyze.set_defaults(func=_cmd_analyze)

    atpg = sub.add_parser(
        "atpg",
        help="structural ATPG: PODEM over the collapsed fault list with "
        "machine-checked verdicts",
    )
    atpg.add_argument("circuits", nargs="+", metavar="circuit",
                      help="benchmark circuit name(s)")
    atpg.add_argument("--backtrack-limit", type=_non_negative_int,
                      default=100_000, metavar="N",
                      help="abort a fault's search after N backtracks "
                      "(aborts claim nothing; default: 100000)")
    atpg.add_argument("--top-off", action="store_true",
                      help="target only the representatives the functional "
                      "test set missed and report combined coverage")
    _add_limits(atpg, "--max-fanin")
    atpg.add_argument("--format", choices=("human", "json"),
                      default="human",
                      help="json emits the full repro-fsatpg-atpg/1 "
                      "payload (see scripts/validate_atpg.py)")
    atpg.add_argument("--cache-dir", default=None, metavar="PATH",
                      help="reuse verified ATPG runs from the cache rooted "
                      "at PATH ('default' = ~/.cache/repro-fsatpg)")
    atpg.add_argument("--trace-out", default=None, metavar="PATH",
                      help="write a Chrome trace_event file of this run")
    atpg.add_argument("--metrics-out", default=None, metavar="PATH",
                      help="write a JSON metrics snapshot of this run")
    atpg.set_defaults(func=_cmd_atpg)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random machines through paired "
        "implementations (exit 1 on any disagreement)",
    )
    fuzz.add_argument("--cases", type=int, default=100, metavar="N",
                      help="number of machines to generate (0 = only replay "
                      "the corpus; default: 100)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed; same seed, same machines "
                      "(default: 0)")
    fuzz.add_argument("--oracle", action="append", metavar="NAME",
                      help="run only this oracle (repeatable; default: all)")
    fuzz.add_argument("--corpus", default=None, metavar="DIR",
                      help="failure corpus directory: stored failures replay "
                      "first, new failures are saved as KISS files")
    fuzz.add_argument("--list-oracles", action="store_true",
                      help="list registered oracles and exit")
    fuzz.add_argument("--max-states", type=int, default=10,
                      help="largest generated machine (default: 10)")
    fuzz.add_argument("--max-inputs", type=int, default=3,
                      help="widest primary input (default: 3 bits)")
    fuzz.add_argument("--max-outputs", type=int, default=3,
                      help="widest primary output (default: 3 bits)")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="report failures unminimized")
    fuzz.add_argument("--time-budget", type=float, default=None,
                      metavar="SECONDS",
                      help="stop generating new cases after this long "
                      "(corpus replay always completes)")
    fuzz.add_argument("--max-failures", type=int, default=8, metavar="N",
                      help="stop after N failures, 0 = never (default: 8)")
    fuzz.add_argument("--format", choices=("human", "json"), default="human",
                      help="report format (both are deterministic)")
    fuzz.add_argument("-v", "--verbose", action="store_true",
                      help="per-case progress on stderr")
    fuzz.set_defaults(func=_cmd_fuzz)

    everything = sub.add_parser("all", help="regenerate every table")
    add_common(everything, with_circuit_list=True)
    everything.set_defaults(func=_cmd_all)

    claims = sub.add_parser(
        "claims", help="verify every headline claim (reproduction certificate)"
    )
    add_common(claims, with_circuit_list=True)
    claims.set_defaults(func=_cmd_claims)

    bench = sub.add_parser(
        "bench",
        help="serial vs parallel sweep timing (BENCH_perf.json)",
    )
    bench.add_argument("--circuits", default="",
                       help="comma-separated circuit names")
    bench.add_argument("--jobs", type=int, default=4,
                       help="worker processes for the parallel run")
    bench.add_argument("--engine", default=None, choices=FAULT_SIM_ENGINES,
                       help="fault-sim engine for every bench run")
    bench.add_argument("--quick", action="store_true",
                       help="tiny circuit set for smoke runs")
    bench.add_argument("-o", "--output", default="BENCH_perf.json",
                       help="report path ('-' prints JSON to stdout)")
    bench.set_defaults(func=_cmd_bench)

    def add_trace_like(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("target",
                       help="what to run: table2..table9 or a circuit name")
        p.add_argument("--circuit", default="", metavar="NAMES",
                       help="comma-separated circuits for a tableN target "
                       "(default: lion)")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes; worker spans merge under "
                       "the parent sweep span")
        _add_limits(p, *_GENERATOR_LIMITS, "--max-fanin", "--bridging-limit")
        p.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="also write a JSON metrics snapshot")
        p.add_argument("--format", choices=("human", "json"), default="human",
                       help="json mirrors the rendered output "
                       "machine-parsably")
        return p

    trace = add_trace_like(
        "trace",
        "run one table/circuit pipeline with span tracing and export a "
        "Chrome trace_event file",
    )
    trace.add_argument("--trace-out", default="trace.json", metavar="PATH",
                       help="Chrome trace output path (default: trace.json)")
    trace.set_defaults(func=_cmd_trace, obs_managed=True)

    stats = add_trace_like(
        "stats",
        "run one table/circuit pipeline and print a profile: top spans by "
        "self time plus counter/histogram tables",
    )
    stats.add_argument("--trace-out", default=None, metavar="PATH",
                       help="also write a Chrome trace_event file")
    stats.add_argument("--top", type=_positive_int, default=15,
                       help="span rows to show (default: 15)")
    stats.set_defaults(func=_cmd_stats, obs_managed=True)

    history = sub.add_parser(
        "history",
        help="trend table of run-ledger records for one command",
    )
    history.add_argument("target",
                         help="ledgered command name (table5, bench, ...)")
    history.add_argument("--format", choices=("human", "json"),
                         default="human",
                         help="human: fixed-width trend table; json: the "
                         "raw ledger records")
    history.add_argument("--limit", type=int, default=20,
                         help="most recent runs to show (default: 20)")
    history.add_argument("--no-anomalies", action="store_true",
                         help="skip the MAD-based outlier warnings")
    history.set_defaults(func=_cmd_history)

    tables = sub.add_parser(
        "tables",
        help="asymptotic scaling fits (tests, cycles, stage seconds, RSS "
        "vs machine size) from the run ledger",
    )
    tables.add_argument("--command", default="", metavar="NAMES",
                        help="comma-separated ledgered commands to fit "
                        "(default: every command in the ledger)")
    tables.add_argument("--format", choices=("markdown", "latex", "json"),
                        default="markdown",
                        help="markdown/latex: fit + residual tables; "
                        "json: the machine-readable payload")
    tables.add_argument("--out", default="-", metavar="PATH",
                        help="output path ('-' prints to stdout)")
    tables.set_defaults(func=_cmd_tables)

    diff = sub.add_parser(
        "diff",
        help="attribute wall-time/metric/result deltas between two "
        "ledger records",
    )
    diff.add_argument("base",
                      help="base record: 'last', 'prev', '@N'/an index, or "
                      "a record-id / git-SHA / args-hash prefix")
    diff.add_argument("other", nargs="?", default="last",
                      help="other record (same selectors; default: last)")
    diff.add_argument("--format", choices=("human", "json"),
                      default="human")
    diff.add_argument("--top-metrics", type=int, default=10, metavar="N",
                      help="changed metrics to show (default: 10)")
    diff.set_defaults(func=_cmd_diff)

    report = sub.add_parser(
        "report",
        help="self-contained HTML dashboard of the run ledger "
        "(inline SVG sparklines, no JavaScript)",
    )
    report.add_argument("--out", default="report.html", metavar="PATH",
                        help="output path ('-' prints to stdout; "
                        "default: report.html)")
    report.add_argument("--title", default="repro-fsatpg run ledger",
                        help="page title")
    report.set_defaults(func=_cmd_report)

    regress = sub.add_parser(
        "regress",
        help="rerun a BENCH baseline's workload and exit non-zero on "
        "stage-time or test-quality regressions",
    )
    regress.add_argument("--baseline", default="BENCH_perf.json",
                         metavar="PATH",
                         help="BENCH_perf.json to compare against")
    regress.add_argument("--circuits", default="",
                         help="override the baseline's circuit list")
    regress.add_argument("--jobs", type=int, default=1,
                         help="worker processes for the rerun")
    regress.add_argument("--threshold", type=float, default=25.0,
                         metavar="PCT",
                         help="allowed stage-time growth in percent "
                         "(default: 25)")
    regress.add_argument("--min-seconds", type=float, default=0.1,
                         metavar="S",
                         help="noise floor: stages under S seconds in both "
                         "runs are never flagged (default: 0.1)")
    regress.add_argument("--min-rss-kb", type=float, default=51200.0,
                         metavar="KB",
                         help="memory-gate floor: peak RSS under KB always "
                         "passes regardless of growth (default: 51200 = "
                         "50 MiB, the interpreter-baseline noise band)")
    regress.set_defaults(func=_cmd_regress)

    explain = sub.add_parser(
        "explain",
        help="decision provenance: why each transition was chained or "
        "scan-terminated (or, with --fault, one ATPG search's forensics)",
    )
    explain.add_argument("target",
                         help="what to explain: table2..table9 or a "
                         "circuit name")
    explain.add_argument("--circuit", default="", metavar="NAMES",
                         help="comma-separated circuits for a tableN target "
                         "(default: lion)")
    explain.add_argument("--transition", default=None, metavar="S,I",
                         help="only the decision for state S under input "
                         "combination I")
    explain.add_argument("--fault", default=None, metavar="ID",
                         help="replay one collapsed fault's structural "
                         "search (an ID like 'g7.pin1/sa1' from "
                         "`atpg --format json`) with a deep trace")
    explain.add_argument("--backtrack-limit", type=_non_negative_int,
                         default=100_000, metavar="N",
                         help="backtrack budget for --fault replays")
    explain.add_argument("--trace-capacity", type=_non_negative_int,
                         default=65536, metavar="N",
                         help="forensic ring-buffer size for --fault "
                         "replays (default: 65536 events)")
    explain.add_argument("--format", choices=("human", "json"),
                         default="human")
    _add_limits(explain, "--max-fanin", *_GENERATOR_LIMITS)
    explain.set_defaults(func=_cmd_explain)

    cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk artifact cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    for name, help_text, function in (
        ("info", "show cache location, entry counts, and sizes", _cmd_cache_info),
        ("clear", "remove every cached artifact", _cmd_cache_clear),
    ):
        p = cache_sub.add_parser(name, help=help_text)
        p.add_argument("--cache-dir", default=None, metavar="PATH",
                       help="cache root (default: ~/.cache/repro-fsatpg)")
        p.set_defaults(func=function)

    ledger = sub.add_parser(
        "ledger", help="maintain the on-disk run ledger"
    )
    ledger_sub = ledger.add_subparsers(dest="ledger_command", required=True)
    prune = ledger_sub.add_parser(
        "prune",
        help="keep only the newest N records per circuit (atomic rewrite)",
    )
    prune.add_argument("--keep", type=int, required=True, metavar="N",
                       help="records to keep per circuit")
    prune.set_defaults(func=_cmd_ledger_prune)
    return parser


def _normalize(args: argparse.Namespace) -> None:
    if getattr(args, "max_fanin", None) == 0:
        args.max_fanin = None
    if getattr(args, "bridging_limit", None) == 0:
        args.bridging_limit = None


#: Commands that append a run-ledger record.  ``bench`` ledgers itself
#: (wrapping it here would skew the overhead figure it measures); ``trace``,
#: ``stats``, and ``explain`` are diagnostic queries, not runs worth
#: trending; the cache and ledger subcommands are bookkeeping.
_LEDGER_COMMANDS = frozenset(
    {f"table{number}" for number in range(2, 10)}
    | {"all", "generate", "claims", "fuzz", "analyze", "atpg"}
)

#: Span names that are pipeline stages (see ``repro.harness.runtime``).
_STAGE_SPAN_NAMES = frozenset(
    {"uio", "synthesis", "generation", "detectability", "fault-sim", "sca",
     "collapse", "bridging", "atpg"}
)


def _stage_seconds_from(events) -> dict[str, float]:
    """Total seconds per pipeline stage, summed over the session's spans."""
    totals: dict[str, float] = {}
    for event in events:
        if event.name in _STAGE_SPAN_NAMES:
            totals[event.name] = (
                totals.get(event.name, 0.0) + event.duration_ns / 1e9
            )
    return totals


def _semantic_args(args: argparse.Namespace) -> dict:
    """The result-determining arguments of a run (never scheduling knobs)."""
    semantics: dict = dict(getattr(args, "_ledger_semantics", {}))
    for key in ("uio_length", "transfer_length", "scan_ratio",
                "max_fanin", "bridging_limit"):
        if hasattr(args, key):
            semantics[key] = getattr(args, key)
    circuits = getattr(args, "_ledger_circuits", None)
    if circuits:
        semantics["circuits"] = list(circuits)
    elif getattr(args, "circuit", None):
        semantics["circuits"] = [args.circuit]
    return semantics


def _append_ledger(args: argparse.Namespace, argv: Sequence[str],
                   session, exit_code: int, wall_s: float,
                   resources: dict | None = None) -> None:
    from repro.obs.ledger import append_record, build_record
    from repro.obs.provenance import decision_summary
    from repro.perf.cache import active_cache

    semantics = _semantic_args(args)
    cache = active_cache()
    record = build_record(
        args.command,
        resources=resources,
        semantic_args=semantics,
        argv=argv,
        circuits=getattr(args, "_ledger_circuits", None)
        or semantics.get("circuits", []),
        jobs=getattr(args, "jobs", 1) or 1,
        exit_code=exit_code,
        wall_s=wall_s,
        stage_seconds=_stage_seconds_from(session.tracer.events),
        metrics=session.registry.snapshot(),
        results=getattr(args, "_ledger_results", {}),
        provenance=(
            decision_summary(session.provenance.events)
            if len(session.provenance)
            else None
        ),
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else 0,
    )
    append_record(record)


def _run_command(args: argparse.Namespace, argv: Sequence[str]) -> int:
    """Dispatch, optionally under an obs session.

    The ``trace``/``stats`` commands manage their own session
    (``obs_managed``).  Every other command runs under a session when
    ``--trace-out``/``--metrics-out`` asks for an export or when the
    command is ledgered — the ledger record embeds the session's stage
    spans, curated metrics, and provenance summary.  With the ledger
    disabled and no export requested, the default path stays
    collector-free.
    """
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if getattr(args, "obs_managed", False):
        return args.func(args)
    from repro.obs.ledger import ledger_enabled

    wants_ledger = args.command in _LEDGER_COMMANDS and ledger_enabled()
    if not (trace_out or metrics_out or wants_ledger):
        return args.func(args)
    import time as _time

    from repro import obs
    from repro.obs.resources import UsageProbe

    started = _time.perf_counter()
    probe = UsageProbe()
    with obs.observing() as session:
        code = args.func(args)
    wall_s = _time.perf_counter() - started
    resources = probe.sample().to_dict()
    if trace_out:
        _write_chrome_trace(trace_out, session.tracer.events)
        print(f"wrote {len(session.tracer.events)} span(s) to {trace_out}",
              file=sys.stderr)
    if metrics_out:
        _write_metrics(metrics_out, session.registry)
        print(f"wrote metrics snapshot to {metrics_out}", file=sys.stderr)
    if wants_ledger:
        _append_ledger(args, argv, session, code, wall_s, resources)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    import os

    from repro.obs.ledger import LEDGER_ENV
    from repro.obs.log import set_verbosity, verbosity_from_flags

    parser = build_parser()
    arglist = list(argv) if argv is not None else sys.argv[1:]
    args = parser.parse_args(arglist)
    _normalize(args)
    set_verbosity(verbosity_from_flags(args.verbose_global, args.quiet_global))
    from repro.obs.progress import enable_progress, set_command_context

    # The command name keys ledger-history ETA lookups for every meter
    # that does not name its own command (the sweep phases).
    set_command_context(args.command)
    if args.progress_global:
        enable_progress(True)
    # The ledger flags work through the environment variable so worker
    # processes and in-process helpers all see the same setting.
    if args.no_ledger:
        os.environ[LEDGER_ENV] = ""
    elif args.ledger_dir:
        os.environ[LEDGER_ENV] = args.ledger_dir
    try:
        # `atpg --cache-dir` reuses verified runs across invocations; the
        # `cache` subcommands open the directory themselves.
        if args.command == "atpg" and args.cache_dir:
            from repro.perf.cache import cache_enabled

            with cache_enabled(_cache_root(args)):
                return _run_command(args, arglist)
        return _run_command(args, arglist)
    except BrokenPipeError:  # output piped into e.g. `head`: not an error
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
