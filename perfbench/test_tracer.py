"""Self-time and peak-propagation arithmetic of the benchmark's tracer.

Run with ``python3 -m pytest perfbench``; needs no program sources.
"""

from __future__ import annotations

import types

import pytest

from tracer import Target, Tracer, install, layer_metrics


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class FakeMemory:
    """RSS follows ``rss``; the high-water mark resets to it on demand."""

    def __init__(self) -> None:
        self.rss = 100
        self.hwm = 100

    def set(self, rss: int) -> None:
        self.rss = rss
        self.hwm = max(self.hwm, rss)

    def reset(self) -> None:
        self.hwm = self.rss

    def read_kb(self) -> int:
        return self.hwm


def test_self_time_and_peak_propagate_up_a_nested_tree():
    clock, memory = FakeClock(), FakeMemory()
    tracer = Tracer(clock, memory)
    # engine [0, 10): detectability [1, 4) peaking at 600 kB, the engine's
    # own code at 950 kB, then faultsim [5, 9) with a nested cache get
    # [6, 7) peaking at 400 kB.
    engine = tracer.enter("compute_studies", "engine")
    clock.now = 1
    detect = tracer.enter("detectable_faults", "detectability")
    memory.set(600)
    memory.set(300)
    clock.now = 4
    tracer.exit(detect)
    clock.now = 5
    memory.set(950)
    memory.set(200)
    sim = tracer.enter("make_fault_simulator", "faultsim")
    clock.now = 6
    get = tracer.enter("ArtifactCache.get", "cache")
    memory.set(400)
    clock.now = 7
    tracer.exit(get)
    memory.set(250)
    clock.now = 9
    tracer.exit(sim)
    clock.now = 10
    tracer.exit(engine)

    spans = tracer.spans
    assert [s.self_s for s in spans] == [3.0, 3.0, 3.0, 1.0]
    assert sum(s.self_s for s in spans) == spans[0].duration
    assert [s.peak_kb for s in spans] == [950, 600, 400, 400]
    assert [s.parent for s in spans] == [None, 0, 0, 2]

    metrics = layer_metrics(spans)
    assert metrics["engine.self_s"] == 3.0
    assert metrics["engine.self_pct"] == 30.0
    assert metrics["detectability.busy_s"] == 3.0
    assert metrics["faultsim.build_s"] == 3.0
    assert metrics["cache.get_s"] == 1.0
    assert metrics["detectability.peak_rss_mb"] == 600 / 1024
    assert metrics["faultsim.peak_rss_mb"] == 400 / 1024


def test_spans_must_close_in_order():
    tracer = Tracer(FakeClock())
    outer = tracer.enter("a", "x")
    tracer.enter("b", "x")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)


def test_install_rebinds_importers_counts_and_reports_absent_targets(monkeypatch):
    defining = types.ModuleType("repro.fake_layer")

    def work(items):
        return list(items)

    class Sim:
        name = "sim"

        def detect(self, tests):
            return len(tests)

    defining.work, defining.Sim = work, Sim
    importer = types.ModuleType("repro.fake_user")
    importer.work = work
    monkeypatch.setitem(__import__("sys").modules, "repro.fake_layer", defining)
    monkeypatch.setitem(__import__("sys").modules, "repro.fake_user", importer)

    tracer = Tracer(FakeClock())
    targets = (
        Target("bridging", "repro.fake_layer", "work", (),
               lambda a, k, r: {"faults": len(r)}),
        Target("faultsim", "repro.fake_layer", "Sim.detect", (0, "name")),
        Target("sca", "repro.fake_layer", "gone"),
        Target("sca", "repro.no_such_module", "analyze"),
    )
    absent, uninstall = install(tracer, targets)
    assert [t.attribute for t in absent] == ["gone", "analyze"]
    assert importer.work([1, 2, 3]) == [1, 2, 3]
    assert Sim().detect([1, 2]) == 2
    tracer.active = False
    importer.work([4])
    uninstall()
    assert importer.work is work and defining.work is work
    assert [(s.name, s.circuit) for s in tracer.spans] == [
        ("work", None), ("Sim.detect", "sim"),
    ]
    assert layer_metrics(tracer.spans)["bridging.faults"] == 3
    assert layer_metrics(tracer.spans)["sca.busy_s"] == 0.0
