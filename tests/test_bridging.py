"""Unit tests for bridging fault enumeration (the paper's three conditions)."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.benchmarks import circuit_names, load_kiss_machine
from repro.errors import FaultSimulationError
from repro.fuzz.oracles import pairwise_bridging_faults
from repro.fuzz.strategies import netlists
from repro.gatelevel.bridging import (
    BridgeKind,
    BridgingFault,
    enumerate_bridging_faults,
)
from repro.gatelevel.netlist import GateType, Netlist
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.synthesis import SynthesisOptions


def two_cone_netlist():
    """Two independent cones whose AND outputs qualify for bridging."""
    netlist = Netlist()
    a = netlist.add_input()
    b = netlist.add_input()
    c = netlist.add_input()
    d = netlist.add_input()
    t1 = netlist.add_gate(GateType.AND, (a, b))    # 4
    t2 = netlist.add_gate(GateType.AND, (c, d))    # 5
    y1 = netlist.add_gate(GateType.NOT, (t1,))     # 6 consumer of t1
    y2 = netlist.add_gate(GateType.NOT, (t2,))     # 7 consumer of t2
    netlist.set_outputs([y1, y2])
    return netlist, t1, t2


class TestConditions:
    def test_qualifying_pair_found(self):
        netlist, t1, t2 = two_cone_netlist()
        faults = enumerate_bridging_faults(netlist)
        pairs = {(f.line1, f.line2) for f in faults}
        assert pairs == {(t1, t2)}
        kinds = {f.kind for f in faults}
        assert kinds == {BridgeKind.AND, BridgeKind.OR}

    def test_common_consumer_excluded(self):
        netlist = Netlist()
        a, b, c, d = (netlist.add_input() for _ in range(4))
        t1 = netlist.add_gate(GateType.AND, (a, b))
        t2 = netlist.add_gate(GateType.AND, (c, d))
        joint = netlist.add_gate(GateType.OR, (t1, t2))  # common consumer
        netlist.set_outputs([joint])
        assert enumerate_bridging_faults(netlist) == []

    def test_path_between_lines_excluded(self):
        netlist = Netlist()
        a, b, c = (netlist.add_input() for _ in range(3))
        t1 = netlist.add_gate(GateType.AND, (a, b))
        t2 = netlist.add_gate(GateType.AND, (t1, c))  # t1 -> t2 path
        y1 = netlist.add_gate(GateType.NOT, (t1,))
        y2 = netlist.add_gate(GateType.NOT, (t2,))
        netlist.set_outputs([y1, y2])
        assert enumerate_bridging_faults(netlist) == []

    def test_single_input_gates_excluded(self):
        netlist = Netlist()
        a = netlist.add_input()
        n1 = netlist.add_gate(GateType.NOT, (a,))
        n2 = netlist.add_gate(GateType.NOT, (n1,))
        netlist.set_outputs([n2])
        assert enumerate_bridging_faults(netlist) == []

    def test_lines_without_consumers_excluded(self):
        netlist, t1, t2 = two_cone_netlist()
        # add a dangling multi-input gate feeding nothing
        extra = netlist.add_gate(GateType.OR, (0, 1))
        netlist.set_outputs(list(netlist.outputs) + [extra])
        faults = enumerate_bridging_faults(netlist)
        assert all(extra not in (f.line1, f.line2) for f in faults)


class TestSampling:
    def test_limit_respected(self):
        from repro.benchmarks import load_kiss_machine
        from repro.gatelevel.synthesis import SynthesisOptions, synthesize

        netlist = synthesize(
            load_kiss_machine("bbtas"), SynthesisOptions(max_fanin=2)
        ).netlist
        full = enumerate_bridging_faults(netlist)
        limited = enumerate_bridging_faults(netlist, limit=10)
        assert len(limited) == 20  # 10 pairs, two kinds each
        assert set(limited) <= set(full)

    def test_sampling_deterministic(self):
        from repro.benchmarks import load_kiss_machine
        from repro.gatelevel.synthesis import SynthesisOptions, synthesize

        netlist = synthesize(
            load_kiss_machine("bbtas"), SynthesisOptions(max_fanin=2)
        ).netlist
        first = enumerate_bridging_faults(netlist, limit=25, seed="s")
        second = enumerate_bridging_faults(netlist, limit=25, seed="s")
        assert first == second
        third = enumerate_bridging_faults(netlist, limit=25, seed="t")
        assert first != third


class TestBridgingFault:
    def test_order_enforced(self):
        with pytest.raises(FaultSimulationError):
            BridgingFault(5, 3, BridgeKind.AND)

    def test_site_label(self):
        assert BridgingFault(3, 5, BridgeKind.OR).site() == "bridge-or(g3, g5)"


class TestAgainstPairwiseReference:
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(netlists(max_gates=40), st.integers(0, 6), st.integers(0, 3))
    def test_universe_matches_pairwise_reference(self, netlist, limit, seed):
        assert enumerate_bridging_faults(netlist) == pairwise_bridging_faults(
            netlist
        )
        assert enumerate_bridging_faults(
            netlist, limit=limit, seed=seed
        ) == pairwise_bridging_faults(netlist, limit=limit, seed=seed)


#: SHA-256 of ``repr(enumerate_bridging_faults(netlist, limit=500,
#: seed=name))`` on every registry circuit's scan netlist (``max_fanin=4``).
#: The digests were taken from the pair-by-pair enumeration that sampled
#: the list of pairs; the matrix enumeration must reproduce them exactly.
PINNED_SAMPLES = {
    "bbara": "42e45f2da7ed72807ce03d058b31ba9640936d7f96735df4c8818a9ca5e6130d",
    "bbsse": "2cb9ca9d4290d1cc754b1b2e1d7808d7387c9dcefdce6241bdabedf81a726257",
    "bbtas": "790636fdacb2d14c5631522548b475e0ced03a50c52590847cde2c54b5aef5d6",
    "beecount": "9ee31142ec148f46544b4c0f07aed5f3cd28c6b5239c371d3f6cde9a8ef7747d",
    "cse": "a665a7493690aa115e81282900dffc06de51ab4f14e84ac7055a55ca4f27d374",
    "dk14": "5c5588f514ad852de24392f9abebca585a270c8a2e5912f6e22069ebe0ca190d",
    "dk15": "b25f2afa741d4943095724eaf11ea4dc82727de3ff218f8724d0051c1cc52d65",
    "dk16": "311f1cbf95249979b21fff7bf1773716915560ce0a48e9575507f6322562b765",
    "dk17": "c79165f7b8f81740ec47b5aa16ab6d6597ce7e0cd939058a48ea6b1a77dd8594",
    "dk27": "89ffab75bd2c56b7fcc2fc5e7b902057e539971647932b416a0b9b7d335f8277",
    "dk512": "9d0a4b54a3baf45a8d7f4d2a934b521a0dad07d572d2959e0e8b626f07f466b3",
    "dvram": "fe4acf2a4ce68608ac4cbd8e3fab554ea9b60fcfb05584e94cb75a5f3ec9c720",
    "ex2": "5b1ffeeffd984186d87a2a72e9bbf4312674d2ae3ac0635ff6844324e92e93ef",
    "ex3": "4e916f4fc11c24ea971b841cd8d7e34cd7a8faf569819a701ff6d71a0febe4d5",
    "ex4": "e9c0a8009160bd9d253cf47466d2bf0350e922d3ea70333ae2d01f096edbeb40",
    "ex5": "3d13a1eb772b269e21d86f3e48e1789b6778e4b7205861659e3ca5478f22a2dc",
    "ex6": "2b1c3a20289cca229549475ecd096a014b300e98038bdb4cda3e798fb1b2755c",
    "ex7": "d54610691f010f893ff31dc4d1fcc20592a386fb99ba40ac9c1aadc1df401554",
    "fetch": "67741e557b97b9b08bb7dc42d9fdcad7d23a5e1d4d33ce28e6fdfafa86947756",
    "keyb": "167b22b122656c224b9b6669a9023841bb4b94524ba55c056e7a397b5a82ed2c",
    "lion": "d715f918d02d70f73ca249624e90f110302ce119b0b9ecf1917e615d5b318a2f",
    "lion9": "074e929593087805756f87a4624ceddb436129b7ac174a7457ee7ea3c3131300",
    "log": "1e3141e820512977dcf525129ddf02e3d585d643baec019253897937717990e5",
    "mark1": "33f8da9ec9f9e9f05cdaba62eecbb7fd334d7228e172d332d117bcc11f6bb552",
    "mc": "08c6cacb92b53bd077b4009f1a90ad749771c03f2d53d0b3259c5f504fe01f72",
    "nucpwr": "1818902e615fcab4f09fedc73cb42d6dd505367c169d4f32fdbbb3cd09dc6a16",
    "opus": "08a1c1095b066a8436db21a2cab48c9b204ecf66e2c5afae076ab0d4b58b641d",
    "rie": "2eb44707c6b57a606632c72cdc095e9db957dbf5ee276ce3f45424327deff11f",
    "shiftreg": "2704c1e6b9929837cec97179bdfd96d7adf07939aebd319a7250bce0aa326197",
    "tav": "427c75cb1ec89dfe0e58f3be6fdd7b0ba4a6ab3747aa3b0206512aab33a53dd6",
    "train11": "f19acc64af2744e0020e2e78c423eb1b517ca42f9462a03271b3edf4077e8194",
}


@pytest.mark.parametrize("name", circuit_names())
def test_registry_samples_pinned(name):
    netlist = ScanCircuit.from_machine(
        load_kiss_machine(name), SynthesisOptions(max_fanin=4)
    ).netlist
    faults = enumerate_bridging_faults(netlist, limit=500, seed=name)
    digest = hashlib.sha256(repr(faults).encode()).hexdigest()
    assert digest == PINNED_SAMPLES[name]
