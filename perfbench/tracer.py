"""Spans the benchmark records around the program's layers, from outside.

The program is not edited: :func:`install` rebinds each layer's public
functions to a recording wrapper, in the module that defines them and in
every loaded ``repro`` module that imported them by name (for example
``repro.perf.engine.generate_tests``), and wraps methods on their class.
A target that no longer exists is recorded as absent and its layer reports
zero calls, so a later change that deletes a layer still runs the unchanged
benchmark.

Each span records its name, layer, start, end, parent span and the circuit
its arguments name.  Self time is the span's duration minus the time its
children cover.  Peak memory is per span: entering a span folds the
parent's peak so far into the parent and resets the kernel's high-water
mark; leaving it reads the mark and passes the span's peak up to its
parent.  Spans stay in memory; :meth:`Tracer.records` serialises them once
the pass is over.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

CLEAR_REFS = "/proc/self/clear_refs"
STATUS = "/proc/self/status"


class PeakRss:
    """Peak resident memory of this process since the last :meth:`reset`.

    Writing ``5`` to ``/proc/self/clear_refs`` resets the kernel's
    ``VmHWM`` to the current RSS.  Where that is refused the probe falls
    back to ``ru_maxrss``, the peak over the whole process lifetime, and
    :attr:`method` says so.
    """

    def __init__(self) -> None:
        self.method = "clear_refs"
        try:
            self.reset()
            self.read_kb()
        except OSError:
            self.method = "ru_maxrss"

    def reset(self) -> None:
        if self.method == "clear_refs":
            with open(CLEAR_REFS, "w") as handle:
                handle.write("5")

    def read_kb(self) -> int:
        if self.method == "ru_maxrss":
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(STATUS) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise OSError("VmHWM missing from /proc/self/status")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int | None
    circuit: str | None
    end: float = 0.0
    child_s: float = 0.0
    peak_kb: int = 0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """An in-memory span stack for one single-threaded pass."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        memory: Any = None,
    ) -> None:
        self.clock = clock
        self.memory = memory
        self.spans: list[Span] = []
        self._open: list[int] = []
        #: wrapped calls record spans only while this is set
        self.active = True

    def enter(self, name: str, layer: str, circuit: str | None = None) -> int:
        parent = self._open[-1] if self._open else None
        if self.memory is not None:
            if parent is not None:
                held = self.spans[parent]
                held.peak_kb = max(held.peak_kb, self.memory.read_kb())
            self.memory.reset()
        self.spans.append(Span(name, layer, self.clock(), parent, circuit))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def exit(self, index: int) -> Span:
        span = self.spans[index]
        span.end = self.clock()
        if self.memory is not None:
            span.peak_kb = max(span.peak_kb, self.memory.read_kb())
        if self._open.pop() != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            parent = self.spans[span.parent]
            parent.child_s += span.duration
            parent.peak_kb = max(parent.peak_kb, span.peak_kb)
        return span

    def wrap(self, function: Callable, target: "Target") -> Callable:
        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return function(*args, **kwargs)
            index = self.enter(target.attribute, target.layer, target.circuit_of(args))
            counts = self.spans[index].counts
            try:
                if target.adapt is not None:
                    args, kwargs = target.adapt(args, kwargs, counts)
                result = function(*args, **kwargs)
                if target.count is not None:
                    try:
                        counted = target.count(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        # The program changed the shape of this call; the
                        # span still counts, only its work counts are lost.
                        counted = {"count_errors": 1}
                    for key, value in counted.items():
                        counts[key] = counts.get(key, 0) + value
                return result
            finally:
                self.exit(index)

        return traced

    def records(self) -> list[dict[str, Any]]:
        return [
            {
                "name": span.name, "layer": span.layer, "circuit": span.circuit,
                "start": span.start, "end": span.end, "parent": span.parent,
                "self_s": span.self_s, "peak_kb": span.peak_kb,
                "counts": span.counts,
            }
            for span in self.spans
        ]


# ------------------------------------------------------------------ targets


@dataclass(frozen=True)
class Target:
    """One wrapped function and what its calls count."""

    layer: str
    module: str
    attribute: str  #: ``function`` or ``Class.method``
    #: attribute path from the positional arguments to the circuit name,
    #: e.g. ``(0, "name")``; empty when the call names no circuit
    circuit: tuple = ()
    count: Callable[[tuple, dict, Any], dict[str, float]] | None = None
    adapt: Callable[[tuple, dict, dict], tuple[tuple, dict]] | None = None

    def circuit_of(self, args: tuple) -> str | None:
        if not self.circuit or len(args) <= self.circuit[0]:
            return None
        value: Any = args[self.circuit[0]]
        for attribute in self.circuit[1:]:
            value = getattr(value, attribute, None)
        if isinstance(value, (list, tuple)):
            value = ",".join(map(str, value))
        return value if isinstance(value, str) and value else None


def _arg(args: tuple, kwargs: dict, position: int, keyword: str) -> Any:
    if keyword in kwargs:
        return kwargs[keyword]
    return args[position] if len(args) > position else None


def _count_select(args: tuple, kwargs: dict, counts: dict) -> tuple[tuple, dict]:
    simulate = _arg(args, kwargs, 1, "simulate")
    if not callable(simulate):
        return args, kwargs

    def counted(*call_args: Any, **call_kwargs: Any) -> Any:
        counts["tests_simulated"] = counts.get("tests_simulated", 0) + 1
        return simulate(*call_args, **call_kwargs)

    if "simulate" in kwargs:
        return args, {**kwargs, "simulate": counted}
    return args[:1] + (counted,) + args[2:], kwargs


def _count_patterns(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    netlist = _arg(args, kwargs, 0, "netlist")
    faults = _arg(args, kwargs, 1, "faults")
    return {
        "faults": len(faults),
        "fault_patterns": len(faults) * (1 << netlist.n_inputs),
    }


def _count_simulator(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    kind = "compiled" if type(result).__name__.startswith("Compiled") else "ppsfp"
    return {f"{kind}.universes": 1}


def _count_detect(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    simulator, tests = args[0], _arg(args, kwargs, 1, "tests")
    cycles = sum(len(test.inputs) for test in tests)
    return {"fault_cycles": len(simulator.faults) * cycles}


def _count_get(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"misses": 1} if result is None else {"hits": 1}


NAME = (0, "name")

#: Every layer the benchmark traces, in pipeline order.  Methods receive
#: ``self`` (or ``cls``) as argument 0.
TARGETS: tuple[Target, ...] = (
    Target("fsm", "repro.fsm.kiss", "parse_kiss", (1,)),
    Target("fsm", "repro.fsm.kiss", "KissMachine.to_state_table", NAME,
           lambda a, k, r: {"transitions": r.n_transitions}),
    Target("fsm", "repro.benchmarks.registry", "load_circuit", (0,)),
    Target("fsm", "repro.benchmarks.registry", "load_kiss_machine", (0,)),
    Target("uio", "repro.uio.search", "compute_uio_table", NAME,
           lambda a, k, r: {"states": a[0].n_states, "found": r.n_found}),
    Target("generator", "repro.core.generator", "generate_tests", NAME,
           lambda a, k, r: {"tests": r.n_tests}),
    Target("synthesis", "repro.gatelevel.scan", "ScanCircuit.from_machine",
           (1, "name"), lambda a, k, r: {"gates": r.netlist.n_gates}),
    Target("synthesis", "repro.gatelevel.scan", "ScanCircuit.verify_against", NAME),
    Target("sca", "repro.sca.analysis", "analyze", NAME),
    Target("sca", "repro.sca.analysis", "ScaAnalysis.materialize",
           (0, "netlist", "name"),
           lambda a, k, r: {
               "representatives": r.universe.n_representatives,
               "proven": len(r.untestable_representatives),
           }),
    Target("sca", "repro.sca.analysis", "ScaAnalysis.verify",
           (0, "netlist", "name")),
    Target("detectability", "repro.gatelevel.detectability", "detectable_faults",
           NAME, _count_patterns),
    Target("bridging", "repro.gatelevel.bridging", "enumerate_bridging_faults",
           NAME, lambda a, k, r: {"faults": len(r)}),
    Target("faultsim", "repro.gatelevel.dispatch", "make_fault_simulator",
           NAME, _count_simulator),
    Target("faultsim", "repro.gatelevel.ppsfp", "PpsfpSimulator.detect_masks",
           (0, "circuit", "name"), _count_detect),
    Target("faultsim", "repro.gatelevel.compiled",
           "CompiledFaultSimulator.detect_masks", (0, "circuit", "name"),
           _count_detect),
    Target("select", "repro.core.compaction", "select_effective_tests",
           (0, "machine_name"), lambda a, k, r: {"effective": r.n_effective},
           _count_select),
    Target("cache", "repro.perf.cache", "ArtifactCache.get", (), _count_get),
    Target("cache", "repro.perf.cache", "ArtifactCache.put"),
    Target("cache", "repro.perf.cache", "artifact_key"),
    Target("engine", "repro.perf.engine", "compute_studies", (0,)),
)


def install(tracer: Tracer, targets: tuple[Target, ...] = TARGETS) -> tuple[
    list[Target], Callable[[], None]
]:
    """Wrap every target; returns the absent targets and an undo callable."""
    absent: list[Target] = []
    undo: list[Callable[[], None]] = []
    for target in targets:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            absent.append(target)
            continue
        owner_name, _, member = target.attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(member) if isinstance(owner, type) else None
            if raw is None:
                absent.append(target)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(tracer.wrap(raw.__func__, target))
            else:
                wrapped = tracer.wrap(raw, target)
            setattr(owner, member, wrapped)
            undo.append(functools.partial(setattr, owner, member, raw))
            continue
        original = getattr(module, member, None)
        if original is None:
            absent.append(target)
            continue
        wrapped = tracer.wrap(original, target)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").split(".")[0] != "repro":
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
                    undo.append(functools.partial(setattr, loaded, key, original))

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return absent, uninstall


# ------------------------------------------------------------------ metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced pass (units in :data:`UNITS`)."""
    layer_s: dict[str, float] = {}
    target_s: dict[str, float] = {}
    peak_kb: dict[str, int] = {}
    counts: dict[str, float] = {}
    for span in spans:
        layer_s[span.layer] = layer_s.get(span.layer, 0.0) + span.self_s
        target_s[span.name] = target_s.get(span.name, 0.0) + span.self_s
        peak_kb[span.layer] = max(peak_kb.get(span.layer, 0), span.peak_kb)
        for key, value in span.counts.items():
            name = f"{span.layer}.{key}"
            counts[name] = counts.get(name, 0) + value

    def busy(layer: str) -> float:
        return layer_s.get(layer, 0.0)

    def count(name: str) -> float:
        return counts.get(name, 0)

    engine_total = sum(span.duration for span in spans if span.layer == "engine")
    hits, misses = count("cache.hits"), count("cache.misses")
    return {
        "fsm.busy_s": busy("fsm"),
        "fsm.transitions": count("fsm.transitions"),
        "uio.busy_s": busy("uio"),
        "uio.states": count("uio.states"),
        "uio.found_ratio": _ratio(count("uio.found"), count("uio.states")),
        "generator.busy_s": busy("generator"),
        "generator.tests": count("generator.tests"),
        "synthesis.busy_s": busy("synthesis"),
        "synthesis.gates": count("synthesis.gates"),
        "sca.busy_s": busy("sca"),
        "sca.representatives": count("sca.representatives"),
        "sca.proven_ratio": _ratio(count("sca.proven"), count("sca.representatives")),
        "detectability.busy_s": busy("detectability"),
        "detectability.fault_patterns": count("detectability.fault_patterns"),
        "detectability.fault_patterns_per_s": _ratio(
            count("detectability.fault_patterns"), busy("detectability")
        ),
        "detectability.peak_rss_mb": peak_kb.get("detectability", 0) / 1024,
        "bridging.busy_s": busy("bridging"),
        "bridging.faults": count("bridging.faults"),
        "faultsim.build_s": target_s.get("make_fault_simulator", 0.0),
        "faultsim.ppsfp.detect_s": target_s.get("PpsfpSimulator.detect_masks", 0.0),
        "faultsim.compiled.detect_s": target_s.get(
            "CompiledFaultSimulator.detect_masks", 0.0
        ),
        "faultsim.ppsfp.universes": count("faultsim.ppsfp.universes"),
        "faultsim.compiled.universes": count("faultsim.compiled.universes"),
        "faultsim.fault_cycles": count("faultsim.fault_cycles"),
        "faultsim.fault_cycles_per_s": _ratio(
            count("faultsim.fault_cycles"), busy("faultsim")
        ),
        "faultsim.peak_rss_mb": peak_kb.get("faultsim", 0) / 1024,
        "select.busy_s": busy("select"),
        "select.tests_simulated": count("select.tests_simulated"),
        "select.effective_ratio": _ratio(
            count("select.effective"), count("select.tests_simulated")
        ),
        "cache.get_s": target_s.get("ArtifactCache.get", 0.0),
        "cache.put_s": target_s.get("ArtifactCache.put", 0.0),
        "cache.key_s": target_s.get("artifact_key", 0.0),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "engine.self_s": busy("engine"),
        "engine.self_pct": 100.0 * _ratio(busy("engine"), engine_total),
    }


def _unit(name: str) -> str:
    for suffix, unit in (
        ("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("_pct", "%"),
        ("_ratio", "ratio"), (".bytes", "B"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


#: Every per-layer metric in report order, with its unit; ``cache.bytes``
#: and ``trace.overhead_pct`` are filled in by the runner.
UNITS: dict[str, str] = {
    name: _unit(name)
    for name in [*layer_metrics([]), "cache.bytes", "trace.overhead_pct"]
}
