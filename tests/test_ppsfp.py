"""Tests for the pattern-parallel (PPSFP) fault-sim engine and dispatch.

The load-bearing property throughout is *bit-identity*: for any universe
and any test set, :class:`PpsfpSimulator` must produce exactly the detect
masks of the interpreted big-int reference — the engine choice may only
ever change speed.  The pinned test sweeps every bundled benchmark circuit with
a deterministic fault subset so a table-build bug on any gate kind, fanin
shape, or pattern width fails loudly.
"""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.benchmarks import circuit_names, load_circuit, load_kiss_machine
from repro.core.config import (
    DEFAULT_PPSFP_BYTE_BUDGET,
    DEFAULT_PPSFP_PATTERN_BLOCK,
    FaultSimConfig,
)
from repro.core.generator import generate_tests
from repro.core.testset import ScanTest
from repro.errors import FaultSimulationError
from repro.fsm.state_table import StateTable
from repro.fuzz import MachineSpec, generate_machine
from repro.fuzz.generators import random_gate_faults
from repro.fuzz.strategies import machine_specs, state_tables
from repro.gatelevel import ppsfp as ppsfp_module
from repro.gatelevel.bridging import (
    BridgeKind,
    BridgingFault,
    enumerate_bridging_faults,
)
from repro.gatelevel.detectability import assigned_pattern_mask, detectable_faults
from repro.gatelevel.dispatch import (
    circuit_chunks,
    detectable_mask,
    fault_chunks,
    make_fault_simulator,
    partition_by_mask,
)
from repro.gatelevel.fault_sim import InterpretedSimulator, injection_sites
from repro.gatelevel.netlist import ALL_ONES, GateType, exhaustive_pattern_words
from repro.gatelevel.ppsfp import PpsfpSimulator
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import (
    StuckAtFault,
    collapse_stuck_at,
    enumerate_stuck_at,
)
from repro.gatelevel.synthesis import SynthesisOptions
from repro.harness.experiments import StudyOptions
from repro.obs.metrics import MetricsRegistry, set_registry

#: Cap on fault-rows x patterns for the pinned all-circuits sweep; keeps
#: the widest machines (2^18 patterns) to a few representative faults.
_PINNED_CELL_BUDGET = 1 << 20


def _synthesize(name):
    table = load_circuit(name)
    circuit = ScanCircuit.from_machine(
        load_kiss_machine(name), SynthesisOptions(max_fanin=4)
    )
    return table, circuit


def _walk_tests(table, n_tests=3, length=6, seed="ppsfp"):
    """Deterministic scan tests: seeded random walks through the table."""
    rng = random.Random(f"{seed}:{table.name}")
    tests = []
    for _ in range(n_tests):
        initial = rng.randrange(table.n_states)
        inputs = tuple(
            rng.randrange(table.n_input_combinations) for _ in range(length)
        )
        tests.append(ScanTest(initial, inputs, table.final_state(initial, inputs)))
    return tests


def _mixed_universe(circuit, max_bridges=6):
    stuck = sorted(set(collapse_stuck_at(circuit.netlist).values()))
    bridges = enumerate_bridging_faults(circuit.netlist)[:max_bridges]
    return stuck + bridges


def _dense_cells(simulator):
    """``cells[fault, pattern]``, rebuilt from the simulator's sparse tables:
    every row starts as ``fault_free``, and each word ``word_rows`` names is
    that row of ``patched``."""
    fault_free = simulator.fault_free
    n_faults, n_patterns = len(simulator.faults), fault_free.size
    cells = np.tile(fault_free, (n_faults, 1))
    lane = min(64, n_patterns)
    words = cells.reshape(n_faults, -1, lane)
    fault, word = np.nonzero(simulator.word_rows >= 0)
    words[fault, word] = simulator.patched[simulator.word_rows[fault, word], :lane]
    return cells


def _assert_masks_match(circuit, table, faults, tests):
    ppsfp = PpsfpSimulator(circuit, table, faults)
    bigint = InterpretedSimulator(circuit, table, faults)
    batched = ppsfp.detect_masks(tests)
    for position, test in enumerate(tests):
        expected = bigint.detect_mask(test)
        assert ppsfp.detect_mask(test) == expected
        assert batched[position] == expected


# ----------------------------------------------------- small-circuit sweep


class TestEquivalenceSmall:
    @pytest.mark.parametrize("name", ["lion", "mc", "dk27", "shiftreg", "train11"])
    def test_generated_tests_full_universe(self, name):
        table, circuit = _synthesize(name)
        faults = _mixed_universe(circuit)
        tests = list(generate_tests(table).test_set)
        _assert_masks_match(circuit, table, faults, tests)

    def test_stuck_only_and_bridge_only(self):
        table, circuit = _synthesize("lion")
        tests = list(generate_tests(table).test_set)
        stuck = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        bridges = enumerate_bridging_faults(circuit.netlist)
        _assert_masks_match(circuit, table, stuck, tests)
        _assert_masks_match(circuit, table, bridges, tests)

    def test_detects_set_matches_compiled(self):
        """PPSFP's ``detects`` sets equal the interpreted reference's."""
        table, circuit = _synthesize("mc")
        faults = _mixed_universe(circuit)
        ppsfp = PpsfpSimulator(circuit, table, faults)
        bigint = InterpretedSimulator(circuit, table, faults)
        for test in generate_tests(table).test_set:
            assert ppsfp.detects(test) == bigint.detects(test)

    def test_effective_simulator_closure(self):
        table, circuit = _synthesize("lion")
        faults = _mixed_universe(circuit)
        simulate = PpsfpSimulator(circuit, table, faults).make_effective_simulator()
        reference = InterpretedSimulator(circuit, table, faults)
        for test in generate_tests(table).test_set:
            assert simulate(test, frozenset(faults)) == set(reference.detects(test))

    def test_effective_simulator_intersects_remaining(self):
        table, circuit = _synthesize("lion")
        faults = _mixed_universe(circuit)
        simulator = PpsfpSimulator(circuit, table, faults)
        simulate = simulator.make_effective_simulator()
        for test in generate_tests(table).test_set:
            everything = simulator.detects(test)
            half = frozenset(list(everything)[: len(everything) // 2])
            undetected = frozenset(faults) - everything
            assert simulate(test, half) == set(half)
            assert simulate(test, half | undetected) == set(half)


# --------------------------------------------------- pinned benchmark sweep


class TestPinnedAllCircuits:
    """Every bundled circuit, deterministic fault subset, identical masks."""

    @pytest.mark.parametrize("name", sorted(circuit_names()))
    def test_ppsfp_matches_bigint(self, name):
        table, circuit = _synthesize(name)
        universe = _mixed_universe(circuit)
        patterns = 1 << (circuit.n_state_variables + circuit.n_primary_inputs)
        keep = max(1, min(len(universe), _PINNED_CELL_BUDGET // patterns))
        stride = max(1, len(universe) // keep)
        faults = universe[::stride][:keep]
        tests = _walk_tests(table, seed="ppsfp-pinned")
        _assert_masks_match(circuit, table, faults, tests)


# ------------------------------------------------------- dispatch + edges


class TestDispatchEdgeCases:
    def test_one_pattern_test_set(self):
        table, circuit = _synthesize("lion")
        faults = _mixed_universe(circuit)
        initial = 0
        tests = [ScanTest(initial, (1,), table.final_state(initial, (1,)))]
        _assert_masks_match(circuit, table, faults, tests)

    def test_universe_larger_than_one_word(self):
        table, circuit = _synthesize("bbtas")
        universe = _mixed_universe(circuit, max_bridges=40)
        assert len(universe) > 64  # masks must span multiple uint64 lanes
        tests = _walk_tests(table, n_tests=2)
        _assert_masks_match(circuit, table, universe, tests)

    def test_bridging_only_universe(self):
        table, circuit = _synthesize("mc")
        bridges = enumerate_bridging_faults(circuit.netlist)
        assert bridges
        tests = _walk_tests(table, n_tests=2)
        _assert_masks_match(circuit, table, bridges, tests)

    def test_ppsfp_with_zero_faults(self):
        table, circuit = _synthesize("lion")
        config = FaultSimConfig(engine="ppsfp")
        simulator = make_fault_simulator(circuit, table, [], config)
        assert isinstance(simulator, PpsfpSimulator)
        assert simulator.ones == 0
        for test in _walk_tests(table, n_tests=2):
            assert simulator.detect_mask(test) == 0
            assert simulator.detects(test) == frozenset()

    def test_an_empty_universe_counts_no_table(self):
        table, circuit = _synthesize("lion")
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            PpsfpSimulator(circuit, table, [])
            assert not [name for name in registry.names() if "ppsfp" in name]
            PpsfpSimulator(circuit, table, [StuckAtFault(0, None, 1)])
        finally:
            set_registry(previous)
        assert registry["faultsim.ppsfp.tables"].value == 1
        assert registry["faultsim.ppsfp.pattern_words"].value == 1

    def test_empty_universe_always_ppsfp(self):
        table, circuit = _synthesize("lion")
        for engine in ("auto", "ppsfp", "bigint"):
            simulator = make_fault_simulator(
                circuit, table, [], FaultSimConfig(engine=engine)
            )
            assert isinstance(simulator, PpsfpSimulator)

    def test_forced_engines_dispatch(self):
        table, circuit = _synthesize("lion")
        faults = [StuckAtFault(0, None, 1)]
        assert isinstance(
            make_fault_simulator(circuit, table, faults, FaultSimConfig(engine="ppsfp")),
            PpsfpSimulator,
        )
        assert isinstance(
            make_fault_simulator(
                circuit, table, faults, FaultSimConfig(engine="bigint")
            ),
            InterpretedSimulator,
        )

    def test_auto_rejects_oversized_table(self):
        # nucpwr has 2^18 patterns: a full universe blows the byte budget,
        # so the dispatcher refuses it and its chunks fit instead.
        table, circuit = _synthesize("nucpwr")
        universe = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        config = FaultSimConfig()
        with pytest.raises(FaultSimulationError, match="byte budget"):
            make_fault_simulator(circuit, table, universe, config)
        engine, chunks = circuit_chunks(circuit, universe, config)
        assert engine == "ppsfp" and len(chunks) == 35
        few = chunks[0][:4]
        assert isinstance(
            make_fault_simulator(circuit, table, few, config), PpsfpSimulator
        )


# ---------------------------------------------- narrow cells, log's universe


class TestTableCells:
    @pytest.mark.parametrize(
        "name, dtype", [("lion", np.uint8), ("log", np.uint16), ("mark1", np.uint32)]
    )
    def test_cells_are_the_narrowest_dtype_that_fits(self, name, dtype):
        table, circuit = _synthesize(name)
        simulator = PpsfpSimulator(circuit, table, [StuckAtFault(0, None, 1)])
        assert simulator.fault_free.dtype == dtype
        assert simulator.patched.dtype == dtype
        assert simulator.word_rows.dtype == np.int32

    def test_auto_chunks_log_whole_and_dvram_in_three(self):
        # log's 3,324 stuck-at faults fill 104 MiB of uint16 cells, inside
        # the byte budget; dvram's would need 334 MiB.
        for name, n_chunks in (("log", 1), ("dvram", 3)):
            table, circuit = _synthesize(name)
            universe = sorted(set(collapse_stuck_at(circuit.netlist).values()))
            engine, chunks = circuit_chunks(circuit, universe)
            assert engine == "ppsfp" and len(chunks) == n_chunks
        # The last chunk, dvram's smallest, builds on PPSFP.
        simulator = make_fault_simulator(circuit, table, chunks[-1])
        assert isinstance(simulator, PpsfpSimulator)

    def test_log_full_universe_matches_compiled(self):
        """log's whole stuck-at universe, one PPSFP table, against the
        interpreted reference."""
        table, circuit = _synthesize("log")
        universe = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        shortest = sorted(
            generate_tests(table).test_set, key=lambda test: len(test.inputs)
        )[:32]
        _assert_masks_match(circuit, table, universe, _walk_tests(table) + shortest)


# -------------------------------------------------------- config heuristics


class TestSelectEngine:
    def test_forced_engines_pass_through(self):
        ppsfp, bigint = FaultSimConfig(engine="ppsfp"), FaultSimConfig(engine="bigint")
        assert ppsfp.select_engine(cell_bits=3) == "ppsfp"
        assert bigint.select_engine(cell_bits=3) == "bigint"
        assert bigint.select_engine(cell_bits=65) == "bigint"

    def test_auto_zero_faults_is_ppsfp(self):
        assert FaultSimConfig().select_engine(cell_bits=3) == "ppsfp"
        assert fault_chunks([], FaultSimConfig(), 18, cell_bits=3) == ("ppsfp", [])

    def test_auto_cell_budget(self):
        # The byte budget counts cells of the narrowest unsigned width that
        # holds the state and output bits; it sizes chunks, not engines.
        config = FaultSimConfig()
        patterns = 1 << 18
        for cell_bits, cell_bytes in ((8, 1), (9, 2), (32, 4), (33, 8), (64, 8)):
            fits = DEFAULT_PPSFP_BYTE_BUDGET // (patterns * cell_bytes)
            for n_faults, n_chunks in ((fits, 1), (fits + 1, 2)):
                engine, chunks = fault_chunks(
                    range(n_faults), config, 18, cell_bits=cell_bits
                )
                assert (engine, len(chunks)) == ("ppsfp", n_chunks)
        # No cell holds more than 64 bits: such a circuit never gets PPSFP.
        assert config.select_engine(cell_bits=64) == "ppsfp"
        assert config.select_engine(cell_bits=65) == "bigint"

    def test_invalid_engine_rejected(self):
        with pytest.raises(FaultSimulationError):
            FaultSimConfig(engine="magic")


# ----------------------------------------------------------- sanity guards


class TestPreflight:
    def test_rejects_bridged_primary_input(self):
        table, circuit = _synthesize("lion")
        bogus = BridgingFault(0, 10**6, BridgeKind.AND)  # line 0 is an input
        with pytest.raises(FaultSimulationError):
            PpsfpSimulator(circuit, table, [bogus])

    def test_fault_bit_order_matches_input_order(self):
        table, circuit = _synthesize("lion")
        faults = [
            StuckAtFault(0, None, 1),
            StuckAtFault(1, None, 0),
            StuckAtFault(2, None, 1),
        ]
        simulator = PpsfpSimulator(circuit, table, faults)
        assert list(simulator.faults) == faults
        assert simulator.ones == 0b111


# ------------------------------------------- detectability from the tables


def _masked_cone_split(circuit, faults):
    mask = assigned_pattern_mask(circuit.encoding, circuit.n_primary_inputs)
    return detectable_faults(circuit.netlist, faults, pattern_mask=mask)


class TestDetectableMask:
    @pytest.mark.parametrize("name", ["lion", "mc", "dk27", "shiftreg", "bbtas"])
    def test_matches_masked_cone_oracle(self, name):
        table, circuit = _synthesize(name)
        faults = _mixed_universe(circuit, max_bridges=40)
        simulator = PpsfpSimulator(circuit, table, faults)
        derived = partition_by_mask(faults, detectable_mask(simulator))
        assert derived == _masked_cone_split(circuit, faults)
        assert derived[1]  # some faults are undetectable: not vacuous

    def test_compiled_simulator_falls_back_to_the_cone_oracle(self):
        """The interpreted reference has no tables: its verdicts come from
        the cone oracle and equal PPSFP's."""
        table, circuit = _synthesize("lion")
        faults = _mixed_universe(circuit)
        ppsfp = PpsfpSimulator(circuit, table, faults)
        reference = InterpretedSimulator(circuit, table, faults)
        assert detectable_mask(reference) == detectable_mask(ppsfp)

    def test_unassigned_codes_are_not_judged(self):
        # Three states on two state bits: code 3 is unassigned, and on this
        # machine some faults show only there.
        table = generate_machine(MachineSpec("dense", 3, 1, 1, 0))
        circuit = ScanCircuit.from_machine(table, SynthesisOptions(max_fanin=4))
        assert circuit.n_state_variables == 2
        faults = random_gate_faults(circuit, "unassigned")
        masked = _masked_cone_split(circuit, faults)
        unmasked = detectable_faults(circuit.netlist, faults)
        assert masked != unmasked
        simulator = PpsfpSimulator(circuit, table, faults)
        assert partition_by_mask(faults, detectable_mask(simulator)) == masked

    def test_empty_universe(self):
        table, circuit = _synthesize("lion")
        assert PpsfpSimulator(circuit, table, []).detectable_mask() == 0

    def test_row_blocks_do_not_change_the_verdicts(self, monkeypatch):
        table, circuit = _synthesize("bbtas")
        faults = _mixed_universe(circuit, max_bridges=40)
        tests = list(generate_tests(table).test_set) + _walk_tests(table)
        simulator = PpsfpSimulator(circuit, table, faults)
        masks, detectable = simulator.detect_masks(tests), simulator.detectable_mask()
        # One fault row per build slab.
        monkeypatch.setattr(ppsfp_module, "SLAB_BYTES_BUDGET", 1)
        blocked = PpsfpSimulator(circuit, table, faults)
        assert blocked.detect_masks(tests) == masks
        assert blocked.detectable_mask() == detectable


# ------------------------------------------------ one long test, many short


class TestDetectMasksMemory:
    def test_one_long_test_and_many_short_ones(self):
        """Memory does not grow with the tests: each is walked on its own."""
        table, circuit = _synthesize("lion")
        faults = _mixed_universe(circuit)
        simulator = PpsfpSimulator(circuit, table, faults)
        rng = random.Random("ragged")
        combos = table.n_input_combinations
        tests = []
        for length in [6000] + [rng.randint(1, 3) for _ in range(1500)]:
            initial = rng.randrange(table.n_states)
            inputs = tuple(rng.randrange(combos) for _ in range(length))
            tests.append(
                ScanTest(initial, inputs, table.final_state(initial, inputs))
            )
        tracemalloc.start()
        try:
            masks = simulator.detect_masks(tests)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert masks == [simulator.detect_mask(test) for test in tests]
        assert any(masks)
        # Padding every test to the longest would hold 6000 x 1501 cells of
        # inputs and outputs: over 100 MB.
        assert peak < 16 << 20


# --------------------------------------- the event walk against its reference


def _stepped_replay(simulator, tests):
    """Detection masks by the cycle-stepped replay, and what happened in it.

    This is how :meth:`PpsfpSimulator.detect_masks` replayed tests before
    its event-driven walk: tests sorted longest first step one
    ``(tests, faults)`` matrix one clock cycle at a time over ragged,
    cycle-major arrays of the fault-free patterns.  Faults on the fault-free
    trajectory read their test's column of ``cells``; faults whose state
    went astray without showing at an output are gathered from their own
    codes.
    It shares only the cells, rebuilt densely (:func:`_dense_cells`), with
    the walk, so it checks the walk's bitsets, its lookups in the sparse
    tables, its bookkeeping of astray faults and its scan-out compare.

    The counter names the walk's paths: ``departure`` (a fault leaves the
    trajectory with its state alone), ``rejoin`` (an astray state returns to
    it before the test ends), ``astray_output`` (an astray fault shows at an
    output), ``astray_scan_out`` (a state still astray at the test's end,
    caught only by the scan-out compare) and ``unassigned`` (an astray step
    from a state code no state is assigned).
    """
    n_faults = len(simulator.faults)
    events: Counter = Counter()
    if n_faults == 0 or not tests:
        return [0] * len(tests), events
    order = sorted(
        range(len(tests)), key=lambda t: len(tests[t].inputs), reverse=True
    )
    tests = [tests[position] for position in order]
    table, code_of = simulator.table, simulator.circuit.encoding.codes
    pi = simulator.circuit.n_primary_inputs
    po = simulator.circuit.n_primary_outputs
    assigned = set(code_of)
    lengths = np.asarray([len(test.inputs) for test in tests], dtype=np.int64)
    max_len = int(lengths[0])
    # active[c] = how many tests run at cycle c (a prefix, by the sort).
    active = np.searchsorted(-lengths, -(np.arange(max_len) + 1), "right")
    starts = np.zeros(max_len + 1, dtype=np.int64)
    np.cumsum(active, out=starts[1:])
    rows = np.empty(int(starts[-1]), dtype=np.int64)
    combos = np.empty_like(rows)
    all_cells = _dense_cells(simulator)
    good = np.empty(rows.size, dtype=all_cells.dtype)
    for t, test in enumerate(tests):
        state = test.initial_state
        patterns, good_cells = [], []
        for combo in test.inputs:
            patterns.append(code_of[state] << pi | combo)
            state, out = table.step(state, combo)
            good_cells.append(code_of[state] << po | out)
        at = starts[: len(patterns)] + t
        rows[at] = patterns
        combos[at] = test.inputs
        good[at] = good_cells

    flat = all_cells.reshape(-1)
    n_patterns = all_cells.shape[1]
    out_mask = (1 << po) - 1
    detected = np.zeros((len(tests), n_faults), dtype=bool)
    astray_t = astray_f = astray_code = np.empty(0, dtype=np.int64)
    for c in range(max_len):
        k, lo = int(active[c]), int(starts[c])
        k_next = int(active[c + 1]) if c + 1 < max_len else 0
        cells = all_cells[:, rows[lo : lo + k]].T
        was_astray = np.zeros((k, n_faults), dtype=bool)
        if astray_t.size:
            was_astray[astray_t, astray_f] = True
            events["unassigned"] += sum(
                int(code) not in assigned for code in astray_code
            )
            index = astray_code << pi | combos[lo + astray_t]
            cells[astray_t, astray_f] = flat[astray_f * n_patterns + index]
        diff = cells ^ good[lo : lo + k, None]
        shown = (diff & out_mask) != 0
        strays = diff > out_mask
        ends = np.zeros((k, 1), dtype=bool)
        ends[k_next:k] = True
        on_trajectory = ~was_astray & ~detected[:k]
        events["departure"] += int((on_trajectory & strays & ~shown & ~ends).sum())
        events["rejoin"] += int((was_astray & (diff == 0) & ~ends).sum())
        events["astray_output"] += int((was_astray & shown).sum())
        events["astray_scan_out"] += int((was_astray & strays & ~shown & ends).sum())
        detected[:k] |= shown
        astray = strays & ~detected[:k]
        if k_next < k:
            # Tests ending this cycle: scan-out compares the final state.
            detected[k_next:k] |= astray[k_next:k]
            astray = astray[:k_next]
        astray_t, astray_f = np.nonzero(astray)
        astray_code = (cells[astray_t, astray_f] >> po).astype(np.int64)

    packed = np.packbits(detected, axis=1, bitorder="little")
    masks = [0] * len(tests)
    for row, position in enumerate(order):
        masks[position] = int.from_bytes(packed[row].tobytes(), "little")
    return masks, events


#: Three states on two state bits: code 3 is unassigned, and faulty
#: machines reach it.
_UNASSIGNED_SPEC = MachineSpec("dense", 3, 1, 1, 0)


def _replay_case(table):
    """A synthesized circuit, a mixed universe and walk plus generated tests."""
    circuit = ScanCircuit.from_machine(table, SynthesisOptions(max_fanin=4))
    faults = random_gate_faults(circuit, "replay")
    tests = list(generate_tests(table).test_set)
    tests += _walk_tests(table, n_tests=4, length=12, seed="replay")
    return circuit, faults, tests


class TestEventReplay:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(machine_specs(min_states=2, max_states=6, min_inputs=1, min_outputs=1))
    @example(_UNASSIGNED_SPEC)
    def test_matches_the_stepped_reference_and_the_compiled_engine(self, spec):
        """The walk equals the stepped replay and the interpreted engine."""
        table = generate_machine(spec)
        circuit, faults, tests = _replay_case(table)
        if not faults:
            return
        simulator = PpsfpSimulator(circuit, table, faults)
        masks = simulator.detect_masks(tests)
        assert masks == _stepped_replay(simulator, tests)[0]
        interpreted = InterpretedSimulator(circuit, table, faults)
        assert masks == interpreted.detect_masks(tests)

    def test_every_path_runs(self):
        """Lion's two universes depart, rejoin, and detect astray faults
        both at an output and at scan-out, so a fault in any of those
        paths changes some mask."""
        table, circuit = _synthesize("lion")
        tests = list(generate_tests(table).test_set) + _walk_tests(
            table, n_tests=4, length=12, seed="replay"
        )
        stuck = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        bridges = enumerate_bridging_faults(circuit.netlist)
        events: Counter = Counter()
        for faults in (stuck, bridges):
            simulator = PpsfpSimulator(circuit, table, faults)
            reference, seen = _stepped_replay(simulator, tests)
            assert simulator.detect_masks(tests) == reference
            events += seen
        for path in ("departure", "rejoin", "astray_output", "astray_scan_out"):
            assert events[path] > 0, path

    def test_astray_faults_reach_an_unassigned_code(self):
        table = generate_machine(_UNASSIGNED_SPEC)
        circuit, faults, tests = _replay_case(table)
        assert circuit.n_state_variables == 2
        simulator = PpsfpSimulator(circuit, table, faults)
        reference, events = _stepped_replay(simulator, tests)
        assert simulator.detect_masks(tests) == reference
        assert events["unassigned"] > 0

    def test_detection_and_detectability_share_one_bitset_build(
        self, monkeypatch
    ):
        """Construction builds the two bitsets; replay and detectability
        only read them."""
        builds = []
        build = ppsfp_module._bit_rows

        def counted(lanes, *args):
            builds.append(lanes.shape)
            return build(lanes, *args)

        monkeypatch.setattr(ppsfp_module, "_bit_rows", counted)
        table, circuit = _synthesize("lion")
        simulator = PpsfpSimulator(circuit, table, _mixed_universe(circuit))
        assert len(builds) == 2  # differs and shows
        tests = _walk_tests(table)
        simulator.detect_masks(tests)
        simulator.detectable_mask()
        simulator.detect_mask(tests[0])
        assert len(builds) == 2


# ------------------------------------- the table build against its reference


#: The dense reference's slab working set: a row of every gate per fault.
_REFERENCE_SLAB_BYTES = 64 << 20


def _pack_rows(flags):
    """One Python int per row of ``flags``, whose bit ``i`` is column ``i``."""
    packed = np.packbits(flags, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _reference_sweep(netlist, faults, good):
    """Every cone gate's values for one slab of faults over one pattern
    block, swept gate by gate: ``{gate: (faults, block words)}``.

    The slab's cone is the union of its faults' fanout cones; lines outside
    it hold ``good``, the block's fault-free values, in every row.  Output
    stuck-ats force their rows at the store, pin stuck-ats the value that
    one pin reads, and each bridged line's row is overwritten with the
    bridge over the fault-free values.
    """
    # Fold the sites into dicts: stuck-at splits (faults at 1, faults at 0)
    # by output line and by (gate, pin), and each bridged line's bridges.
    store, pins, bridges = {}, {}, {}
    sites = zip(*(column.tolist() for column in injection_sites(netlist, faults)))
    for index, (site, partner, pin, value, bridge) in enumerate(sites):
        if bridge >= 0:
            bridges.setdefault(site, []).append((index, partner, bridge == 1))
            bridges.setdefault(partner, []).append((index, site, bridge == 1))
        elif pin < 0:
            store.setdefault(site, ([], []))[0 if value else 1].append(index)
        else:
            pins.setdefault((site, pin), ([], []))[0 if value else 1].append(index)
    gates = netlist.fanout_closure({*store, *(gate for gate, _ in pins), *bridges})
    shape = (len(faults), good.shape[1])
    values = {}

    def read(line, reader, pin):
        value = np.array(np.broadcast_to(values.get(line, good[line]), shape))
        ones, zeros = pins.get((reader, pin), ([], []))
        value[ones] = ALL_ONES
        value[zeros] = 0
        return value

    for index in gates:
        gate = netlist.gate(index)
        if not gate.fanins:
            out = np.array(np.broadcast_to(good[index], shape))
        elif gate.kind is GateType.NOT:
            out = ~read(gate.fanins[0], index, 0)
        else:
            op = np.bitwise_and if gate.kind is GateType.AND else np.bitwise_or
            out = read(gate.fanins[0], index, 0)
            for pin in range(1, gate.n_fanins):
                out = op(out, read(gate.fanins[pin], index, pin))
        ones, zeros = store.get(index, ([], []))
        out[ones] = ALL_ONES
        out[zeros] = 0
        for row, partner, is_and in bridges.get(index, ()):
            op = np.bitwise_and if is_and else np.bitwise_or
            out[row] = op(good[index], good[partner])
        values[index] = out
    return values


def _dense_tables(simulator):
    """Pattern-major cells and the difference bitsets, built densely.

    This is how :class:`PpsfpSimulator` built its tables before it wrote
    sparse per-fault tables from each fault's own cone.  Each slab of
    faults is swept gate by gate over the union of its faults' cones
    (:func:`_reference_sweep`), on the netlist's own fault-free evaluation.
    Each slab's ``(rows, patterns)`` cells are assembled from every cell
    line's lanes, unpacked to one byte per pattern, and written transposed
    into ``cells[pattern, fault]``.  A second pass then compares every
    assigned row of ``cells`` with the state table's fault-free cell.  It
    shares nothing with the build's pair programs, so it checks the cones,
    the injection, the sparse words, the lanes and the bit transpose.
    """
    circuit, table = simulator.circuit, simulator.table
    netlist = circuit.netlist
    n_faults = len(simulator.faults)
    sv, pi = circuit.n_state_variables, circuit.n_primary_inputs
    po = circuit.n_primary_outputs
    n_patterns = 1 << (sv + pi)
    dtype = simulator.fault_free.dtype
    cells = np.empty((n_patterns, n_faults), dtype=dtype)
    pattern_words = exhaustive_pattern_words(sv + pi)
    n_words = pattern_words[0].shape[0] if pattern_words else 1
    block_words = min(n_words, DEFAULT_PPSFP_PATTERN_BLOCK // 64)
    per_row_bytes = netlist.n_gates * block_words * 8
    slab_rows = max(1, min(n_faults, _REFERENCE_SLAB_BYTES // per_row_bytes))
    machine = circuit.circuit
    lines = machine.next_state_lines + machine.primary_output_lines
    shifts = range(len(lines) - 1, -1, -1)

    def cell_bits(lanes, shift):
        lanes = np.ascontiguousarray(lanes)
        bits = np.unpackbits(lanes.view(np.uint8), axis=-1, bitorder="little")
        return np.left_shift(bits, shift, dtype=dtype)

    for word_lo in range(0, n_words, block_words):
        word_hi = min(word_lo + block_words, n_words)
        good = netlist.evaluate([words[word_lo:word_hi] for words in pattern_words])
        good_cells = np.zeros((word_hi - word_lo) * 64, dtype=dtype)
        for line, shift in zip(lines, shifts):
            good_cells |= cell_bits(good[line], shift)
        pattern_lo = word_lo * 64
        width = min(good_cells.size, n_patterns - pattern_lo)
        for lo in range(0, n_faults, slab_rows):
            hi = min(lo + slab_rows, n_faults)
            values = _reference_sweep(netlist, simulator.faults[lo:hi], good)
            block = np.empty((hi - lo, good_cells.size), dtype=dtype)
            block[:] = good_cells
            for line, shift in zip(lines, shifts):
                if line in values:
                    block ^= cell_bits(values[line] ^ good[line], shift)
            cells[pattern_lo : pattern_lo + width, lo:hi] = block[:, :width].T

    # The row compare, in blocks of at most 2^20 (row, fault) cells.
    codes = np.asarray(circuit.encoding.codes, dtype=np.int64)
    n_combos = table.n_input_combinations
    rows = ((codes[:, None] << pi) | np.arange(n_combos)).reshape(-1)
    good_next = codes[np.asarray(table.next_state)].reshape(-1)
    good = (good_next << po | np.asarray(table.output).reshape(-1)).astype(dtype)
    out_mask = dtype.type((1 << po) - 1)
    differs, shows = [], []
    block = max(1, (1 << 20) // n_faults)
    for lo in range(0, rows.size, block):
        hi = min(lo + block, rows.size)
        delta = cells[rows[lo:hi]] ^ good[lo:hi, None]
        differs += _pack_rows(delta != 0)
        shows += _pack_rows(delta & out_mask != 0)
    by_state = range(0, rows.size, n_combos)
    return (
        cells,
        [differs[at : at + n_combos] for at in by_state],
        [shows[at : at + n_combos] for at in by_state],
    )


def _inverter_bridges(netlist):
    """Bridges between NOT-gate outputs and multi-input gate outputs that
    reach neither each other nor a common reader: no enumerated universe
    bridges an inverter, so these drive the inverted bridge rows."""
    fanouts = netlist.fanouts()
    inverters = [g.index for g in netlist.gates if g.kind is GateType.NOT]
    others = [g.index for g in netlist.gates if g.n_fanins >= 2]
    bridges = []
    for first in inverters:
        for second in others:
            line1, line2 = sorted((first, second))
            if (
                not netlist.reaches(line1, line2)
                and not set(fanouts[line1]) & set(fanouts[line2])
            ):
                for kind in BridgeKind:
                    bridges.append(BridgingFault(line1, line2, kind))
                break
    # Two inverters bridged together as well.
    for line1, line2 in zip(inverters, inverters[1:]):
        if not netlist.reaches(line1, line2):
            bridges.append(BridgingFault(line1, line2, BridgeKind.AND))
            break
    return bridges


def _reference_case(name):
    """A circuit's table, scan circuit and universe for the build checks.

    ``log`` gets its whole stuck-at universe: 3,324 faults, not a multiple
    of 64, over two pattern blocks.  ``unassigned`` is
    :data:`_UNASSIGNED_SPEC`, a machine with an unassigned state code.
    ``inverters`` is bbtas with every uncollapsed stuck-at fault, so every
    NOT gate's output and every pin, and bridges on NOT gates.
    """
    if name == "unassigned":
        table = generate_machine(_UNASSIGNED_SPEC)
        circuit = ScanCircuit.from_machine(table, SynthesisOptions(max_fanin=4))
    else:
        table, circuit = _synthesize("bbtas" if name == "inverters" else name)
    if name == "log":
        return table, circuit, sorted(set(collapse_stuck_at(circuit.netlist).values()))
    if name == "inverters":
        netlist = circuit.netlist
        bridges = _inverter_bridges(netlist)
        assert bridges
        return table, circuit, enumerate_stuck_at(netlist) + bridges
    return table, circuit, _mixed_universe(circuit, max_bridges=40)


class TestTableBuild:
    @pytest.mark.parametrize(
        "name",
        [
            "lion",  # 16 patterns: every code shares the one lane word
            "bbtas",  # over 64 faults, 32 patterns
            "mark1",  # uint32 cells
            "log",  # 3,324 faults, two pattern blocks
            "unassigned",  # an unassigned state code
            "inverters",  # NOT-gate stuck-ats, every pin, bridged inverters
        ],
    )
    def test_tables_equal_the_dense_reference(self, name, monkeypatch):
        """The sparse tables, rebuilt densely, equal the dense build's cells
        transposed, they patch only words whose cells differ, and the lane
        bitsets equal the row compare's, with default and one-fault slabs."""
        table, circuit, faults = _reference_case(name)
        simulator = PpsfpSimulator(circuit, table, faults)
        cells, differs, shows = _dense_tables(simulator)
        assert any(any(row) for row in shows)  # some fault shows: not vacuous
        lane = min(64, cells.shape[0])
        for budget in (ppsfp_module.SLAB_BYTES_BUDGET, 1):
            monkeypatch.setattr(ppsfp_module, "SLAB_BYTES_BUDGET", budget)
            simulator = PpsfpSimulator(circuit, table, faults)
            assert np.array_equal(_dense_cells(simulator), cells.T)
            # Each patched row serves one (fault, word), and differs from
            # the fault-free cells there.
            word_rows = simulator.word_rows
            fault, word = np.nonzero(word_rows >= 0)
            used = word_rows[fault, word]
            assert np.array_equal(np.sort(used), np.arange(len(simulator.patched)))
            free = simulator.fault_free.reshape(-1, lane)[word]
            assert (simulator.patched[used, :lane] != free).any(axis=1).all()
            assert simulator.differs == differs
            assert simulator.shows == shows
            del simulator

    def test_a_disagreeing_state_table_is_refused(self):
        """The lanes differ from the netlist's fault-free sweep, so a table
        that disagrees with it on one assigned row fails the build."""
        table, circuit = _synthesize("lion")
        output = np.array(table.output)
        output[2, 1] ^= 1
        flipped = StateTable(
            table.next_state, output, table.n_inputs, table.n_outputs, name="lion"
        )
        faults = _mixed_universe(circuit)
        with pytest.raises(FaultSimulationError, match="state 2, input 1"):
            PpsfpSimulator(circuit, flipped, faults)
        PpsfpSimulator(circuit, table, faults)


# ------------------------------------------------------------- pair programs


def _program_rows(steps):
    """``row -> (kind, sources)`` for every row the steps write."""
    rows = {}
    for start, end, kind, sources in steps:
        for k, row in enumerate(range(start, end)):
            assert row not in rows  # each row is written once
            rows[row] = (kind, tuple(int(column[k]) for column in sources))
    return rows


def _graded_universes(name, netlist):
    """The universes grading builds, the stuck-at one uncollapsed: every
    stuck-at fault, and the study's sample of bridging pairs."""
    limit = StudyOptions().bridging_pair_limit
    bridges = enumerate_bridging_faults(netlist, limit=limit, seed=name)
    return [faults for faults in (enumerate_stuck_at(netlist), bridges) if faults]


class TestBufferRows:
    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("name", circuit_names(tier="small"))
    def test_rows_are_reused_only_after_their_last_reader(
        self, name, budget, monkeypatch
    ):
        """Every slab reuses the value buffer, so a slab's steps must write
        each of its rows once and read only rows written before: the
        block's fault-free rows, the constants, or rows of an earlier step
        of the slab.  The next slab then rewrites a row only after the cell
        pass, its last reader, has read it."""
        if budget is not None:
            monkeypatch.setattr(ppsfp_module, "SLAB_BYTES_BUDGET", budget)
        _, circuit = _synthesize(name)
        netlist = circuit.netlist
        for faults in _graded_universes(name, netlist):
            programs, layout, n_rows = ppsfp_module._programs(circuit, faults, 2)
            # Written before any slab runs: fault-free rows and constants.
            written = {layout.ones, layout.zero}
            written |= set(range(layout.good, layout.good + netlist.n_gates))

            def sweep(steps, written):
                for start, end, _, sources in steps:
                    for column in sources:
                        assert set(column.tolist()) <= written
                    rows = set(range(start, end))
                    assert not rows & written and end <= n_rows
                    written |= rows

            for program in programs:
                mine = set(written)
                sweep(program.steps, mine)
                for row in mine - written:
                    assert row < layout.good or row >= layout.bridges
                assert set(range(program.faults.size)) <= mine
                assert set(program.cell_rows.tolist()) <= mine
                assert set(program.cell_good.tolist()) <= written


def _first_positions(owners):
    """Each distinct owner, in order, with the position it first has."""
    first = {}
    for at, owner in enumerate(owners):
        first.setdefault(owner, at)
    return first


def _assert_programs_encode(circuit, faults, one_fault_slabs=False):
    """The pair programs of ``faults`` hold each fault's cone as its pairs,
    read each fanin from its pair or its fault-free row, and rewrite each
    fault's site pair (:func:`_assert_site_encoded`)."""
    netlist = circuit.netlist
    tables = netlist.gate_tables()
    programs, layout, n_rows = ppsfp_module._programs(circuit, faults, 2)
    good = {layout.good + line: line for line in range(netlist.n_gates)}
    constant = {layout.ones: 1, layout.zero: 0}
    # The slabs tile the universe; the pair rows sit below the rest.
    assert [p.lo for p in programs] == [0] + [p.hi for p in programs[:-1]]
    assert programs[-1].hi == len(faults)
    machine = circuit.circuit
    cell_lines = machine.next_state_lines + machine.primary_output_lines
    for program in programs:
        rows = _program_rows(program.steps)
        n_pairs = program.faults.size
        assert n_pairs <= layout.good
        if one_fault_slabs:
            assert program.hi - program.lo == 1
        # Each fault's pairs are exactly its cone.
        for local, fault in enumerate(faults[program.lo : program.hi]):
            seeds = (
                [fault.gate]
                if isinstance(fault, StuckAtFault)
                else [fault.line1, fault.line2]
            )
            gates = program.gates[program.faults == local]
            assert sorted(gates.tolist()) == netlist.fanout_closure(seeds)
        pair_of = {
            (int(f), int(g)): r
            for r, (f, g) in enumerate(zip(program.faults, program.gates))
        }
        # The cell pairs are each fault's pairs of the cell lines, in the
        # faults' order and then the lines': (fault, cell line) each.
        cells = [
            (local, column)
            for local in range(program.hi - program.lo)
            for column, line in enumerate(cell_lines)
            if (local, line) in pair_of
        ]
        assert program.cell_rows.tolist() == [
            pair_of[local, cell_lines[column]] for local, column in cells
        ]
        assert program.cell_good.tolist() == [
            layout.good + cell_lines[column] for _, column in cells
        ]
        position = {cell: at for at, cell in enumerate(cells)}
        starts = _first_positions(local for local, _ in cells)
        assert program.cell_faults.tolist() == list(starts)
        assert program.cell_starts.tolist() == list(starts.values())
        for k, local in enumerate(program.cell_faults.tolist()):
            assert program.cell_at[k].tolist() == [
                position.get((local, column), len(cells))
                for column in range(len(cell_lines))
            ]
        n_next = len(machine.next_state_lines)
        shown = [at for at, (_, column) in enumerate(cells) if column >= n_next]
        assert program.shown.tolist() == shown
        starts = _first_positions(cells[at][0] for at in shown)
        assert program.shown_faults.tolist() == list(starts)
        assert program.shown_starts.tolist() == list(starts.values())
        bridge_rows = {}
        for row in range(layout.bridges, n_rows):
            if row in rows:
                bridge_rows[row] = rows.pop(row)
        for row in range(n_pairs):
            local, gate = int(program.faults[row]), int(program.gates[row])
            fault = faults[program.lo + local]
            kind, sources = rows.pop(row)
            netlist_gate = netlist.gate(gate)
            assert kind is netlist_gate.kind
            assert len(sources) == max(1, netlist_gate.n_fanins)
            group = tables.group[gate]
            for pin, source in enumerate(sources):
                # An earlier group's pair of the same fault, a fault-free
                # row, a constant or a bridge row.
                if source < n_pairs:
                    assert program.faults[source] == local
                    assert tables.group[program.gates[source]] < group
                    assert netlist_gate.fanins[pin] == program.gates[source]
                elif source in good:
                    # Only a fanin outside the fault's cone.
                    line = good[source]
                    assert line == netlist_gate.fanins[pin]
                    assert (local, line) not in pair_of
                else:
                    assert source in constant or source in bridge_rows
            _assert_site_encoded(fault, gate, kind, sources, bridge_rows, layout)
        assert not rows


#: Hypothesis settings of the checks on synthesized hypothesis machines.
_PROGRAM_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _program_universes(netlist, seed):
    """Every uncollapsed stuck-at fault, a sample of bridging pairs, and
    the inverter bridges, each universe that is not empty."""
    universes = (
        enumerate_stuck_at(netlist),
        enumerate_bridging_faults(netlist, limit=20, seed=seed),
        _inverter_bridges(netlist),
    )
    return [faults for faults in universes if faults]


class TestPairProgram:
    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("name", circuit_names(tier="small"))
    def test_pairs_are_the_cones_and_sources_encode_the_faults(
        self, name, budget, monkeypatch
    ):
        if budget is not None:
            monkeypatch.setattr(ppsfp_module, "SLAB_BYTES_BUDGET", budget)
        _, circuit = _synthesize(name)
        for faults in _graded_universes(name, circuit.netlist):
            _assert_programs_encode(circuit, faults, budget == 1)

    @_PROGRAM_SETTINGS
    @given(
        state_tables(min_states=2, max_states=6, min_inputs=1, min_outputs=1),
        st.integers(2, 4),
    )
    def test_programs_of_hypothesis_machines(self, table, max_fanin):
        """The same invariants on synthesized hypothesis machines, under
        the default slab budget and one-fault slabs."""
        circuit = ScanCircuit.from_machine(
            table, SynthesisOptions(max_fanin=max_fanin)
        )
        universes = _program_universes(circuit.netlist, table.name)
        for budget in (ppsfp_module.SLAB_BYTES_BUDGET, 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ppsfp_module, "SLAB_BYTES_BUDGET", budget)
                for faults in universes:
                    _assert_programs_encode(circuit, faults, budget == 1)


def _every_site(netlist):
    """Every stuck-at site of ``netlist`` at 0 and 1: each line's output,
    inputs and constants included, and every pin of every gate, a NOT
    gate's included."""
    return [
        StuckAtFault(gate.index, pin, value)
        for gate in netlist.gates
        for pin in (None, *range(gate.n_fanins))
        for value in (0, 1)
    ]


class TestEverySite:
    @_PROGRAM_SETTINGS
    @given(
        state_tables(min_states=2, max_states=6, min_inputs=1, min_outputs=1),
        st.integers(2, 4),
    )
    def test_ppsfp_equals_the_interpreted_engine(self, table, max_fanin):
        """PPSFP and the interpreted engine give equal masks on every valid
        stuck-at site, sampled bridges and the inverter bridges."""
        circuit = ScanCircuit.from_machine(
            table, SynthesisOptions(max_fanin=max_fanin)
        )
        netlist = circuit.netlist
        faults = _every_site(netlist)
        faults += enumerate_bridging_faults(netlist, limit=20, seed=table.name)
        faults += _inverter_bridges(netlist)
        tests = list(generate_tests(table).test_set)
        tests += _walk_tests(table, n_tests=4, length=12, seed="sites")
        _assert_masks_match(circuit, table, faults, tests)

    @pytest.mark.parametrize("name", ["lion", "bbtas", "dk27"])
    def test_registry_circuits(self, name):
        table, circuit = _synthesize(name)
        faults = _every_site(circuit.netlist)
        not_pins = [
            fault
            for fault in faults
            if fault.pin is not None
            and circuit.netlist.gate(fault.gate).kind is GateType.NOT
        ]
        assert not_pins  # NOT-gate pins are in the universe: not vacuous
        _assert_masks_match(circuit, table, faults, _walk_tests(table, length=12))


def _assert_site_encoded(fault, gate, kind, sources, bridge_rows, layout):
    """The sources of ``fault``'s pair at ``gate`` encode the fault there."""
    constant = (layout.ones, layout.zero)
    identity = layout.zero if kind is GateType.OR else layout.ones
    if isinstance(fault, StuckAtFault):
        if fault.gate != gate:
            assert all(s not in constant for s in sources)
            return
        forced = layout.ones if fault.value else layout.zero
        if fault.pin is not None:
            assert sources[fault.pin] == forced
            others = sources[: fault.pin] + sources[fault.pin + 1 :]
            assert all(s not in constant for s in others)
            return
        if kind is GateType.NOT:
            forced = layout.ones + layout.zero - forced
        assert sources == (forced, *[identity] * (len(sources) - 1))
        return
    if gate not in (fault.line1, fault.line2):
        assert all(s not in constant and s not in bridge_rows for s in sources)
        return
    assert sources[1:] == (identity,) * (len(sources) - 1)
    op, rows = bridge_rows[sources[0]]
    if kind is GateType.NOT:
        # The inverted bridge row, over the bridge row.
        assert op is GateType.NOT
        op, rows = bridge_rows[rows[0]]
    first, second = rows
    assert op is (GateType.AND if fault.kind is BridgeKind.AND else GateType.OR)
    assert {layout.good + fault.line1, layout.good + fault.line2} == {first, second}
