"""Tests for the pattern-parallel (PPSFP) fault-sim engine and dispatch.

The load-bearing property throughout is *bit-identity*: for any universe
and any test set, :class:`PpsfpSimulator` must produce exactly the detect
masks of the compiled big-int engine — the engine choice may only ever
change speed.  The pinned test sweeps every bundled benchmark circuit with
a deterministic fault subset so a table-build bug on any gate kind, fanin
shape, or pattern width fails loudly.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from repro.benchmarks import circuit_names, load_circuit, load_kiss_machine
from repro.core.config import (
    DEFAULT_PPSFP_BYTE_BUDGET,
    FaultSimConfig,
    adaptive_batch_bits,
)
from repro.core.generator import generate_tests
from repro.core.testset import ScanTest
from repro.errors import FaultSimulationError
from repro.gatelevel.bridging import BridgeKind, BridgingFault, enumerate_bridging_faults
from repro.fuzz import MachineSpec, generate_machine
from repro.fuzz.generators import random_gate_faults
from repro.gatelevel import ppsfp as ppsfp_module
from repro.gatelevel.compiled import CompiledFaultSimulator
from repro.gatelevel.detectability import assigned_pattern_mask, detectable_faults
from repro.gatelevel.dispatch import (
    detectable_mask,
    make_fault_simulator,
    partition_by_mask,
)
from repro.gatelevel.ppsfp import PpsfpSimulator
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import StuckAtFault, collapse_stuck_at
from repro.gatelevel.synthesis import SynthesisOptions

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


def _assert_masks_match(circuit, table, faults, tests):
    ppsfp = PpsfpSimulator(circuit, table, faults)
    bigint = CompiledFaultSimulator(circuit, table, faults)
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
        table, circuit = _synthesize("mc")
        faults = _mixed_universe(circuit)
        ppsfp = PpsfpSimulator(circuit, table, faults)
        bigint = CompiledFaultSimulator(circuit, table, faults)
        for test in generate_tests(table).test_set:
            assert ppsfp.detects(test) == bigint.detects(test)

    def test_effective_simulator_closure(self):
        table, circuit = _synthesize("lion")
        faults = _mixed_universe(circuit)
        remaining = frozenset(faults)
        simulate = PpsfpSimulator(circuit, table, faults).make_effective_simulator()
        reference = CompiledFaultSimulator(
            circuit, table, faults
        ).make_effective_simulator()
        for test in generate_tests(table).test_set:
            assert simulate(test, remaining) == reference(test, remaining)


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
            CompiledFaultSimulator,
        )

    def test_auto_rejects_oversized_table(self):
        # nucpwr has 2^18 patterns: a full universe blows the byte budget,
        # so auto must fall back to the big-int engine.
        table, circuit = _synthesize("nucpwr")
        universe = sorted(set(collapse_stuck_at(circuit.netlist).values()))
        config = FaultSimConfig()
        simulator = make_fault_simulator(circuit, table, universe, config)
        assert isinstance(simulator, CompiledFaultSimulator)
        # A handful of faults fits the budget and dispatches to PPSFP --
        # unless the caller reports a tiny workload, where table builds
        # cannot amortize.
        few = universe[:4]
        assert isinstance(
            make_fault_simulator(circuit, table, few, config), PpsfpSimulator
        )
        assert isinstance(
            make_fault_simulator(circuit, table, few, config, total_test_cycles=10),
            CompiledFaultSimulator,
        )


# ---------------------------------------------- narrow cells, log's universe


class TestTableCells:
    @pytest.mark.parametrize(
        "name, dtype", [("lion", np.uint8), ("log", np.uint16), ("mark1", np.uint32)]
    )
    def test_cells_are_the_narrowest_dtype_that_fits(self, name, dtype):
        table, circuit = _synthesize(name)
        simulator = PpsfpSimulator(circuit, table, [StuckAtFault(0, None, 1)])
        assert simulator.cells.dtype == dtype

    def test_auto_builds_log_on_ppsfp_and_dvram_on_compiled(self):
        # log's 3,324 stuck-at faults fill 104 MiB of uint16 cells, inside
        # the byte budget; dvram's would need 334 MiB.
        for name, engine in (
            ("log", PpsfpSimulator),
            ("dvram", CompiledFaultSimulator),
        ):
            table, circuit = _synthesize(name)
            universe = sorted(set(collapse_stuck_at(circuit.netlist).values()))
            simulator = make_fault_simulator(
                circuit, table, universe, FaultSimConfig()
            )
            assert isinstance(simulator, engine)

    def test_log_full_universe_matches_compiled(self):
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
        assert ppsfp.select_engine(10, 4, cell_bits=3) == "ppsfp"
        assert bigint.select_engine(10, 4, cell_bits=3) == "bigint"

    def test_auto_zero_faults_is_ppsfp(self):
        assert FaultSimConfig().select_engine(0, 18, cell_bits=3) == "ppsfp"

    def test_auto_cell_budget(self):
        # The byte budget counts cells of the narrowest unsigned width that
        # holds the state and output bits.
        config = FaultSimConfig()
        patterns = 1 << 18
        for cell_bits, cell_bytes in ((8, 1), (9, 2), (32, 4), (33, 8), (64, 8)):
            fits = DEFAULT_PPSFP_BYTE_BUDGET // (patterns * cell_bytes)
            assert config.select_engine(fits, 18, cell_bits=cell_bits) == "ppsfp"
            assert (
                config.select_engine(fits + 1, 18, cell_bits=cell_bits) == "bigint"
            )
        # No cell holds more than 64 bits: such a circuit never gets PPSFP.
        assert config.select_engine(1, 2, cell_bits=65) == "bigint"

    def test_auto_small_workload_prefers_bigint(self):
        config = FaultSimConfig()
        # 2^18 patterns = 4096 words; with only 10 cycles of tests the
        # exhaustive build cannot pay for itself.
        assert (
            config.select_engine(4, 18, total_test_cycles=10, cell_bits=3)
            == "bigint"
        )
        assert (
            config.select_engine(4, 18, total_test_cycles=10_000, cell_bits=3)
            == "ppsfp"
        )

    def test_invalid_engine_rejected(self):
        with pytest.raises(FaultSimulationError):
            FaultSimConfig(engine="magic")


class TestEngineAwareBatchBits:
    def test_ppsfp_batches_are_lane_aligned(self):
        for n_faults in (1, 63, 64, 65, 1000, 5000):
            width = adaptive_batch_bits(n_faults, engine="ppsfp")
            assert width % 64 == 0 or width >= n_faults

    def test_ppsfp_cap_balances_in_word_multiples(self):
        width = adaptive_batch_bits(10_000, cap=2048, engine="ppsfp")
        assert width % 64 == 0
        assert width <= 2048

    def test_bigint_unchanged_by_engine_param(self):
        assert adaptive_batch_bits(5000) == adaptive_batch_bits(5000, engine="bigint")

    def test_unknown_engine_rejected(self):
        with pytest.raises(FaultSimulationError):
            adaptive_batch_bits(100, engine="magic")


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
        table, circuit = _synthesize("lion")
        faults = _mixed_universe(circuit)
        ppsfp = PpsfpSimulator(circuit, table, faults)
        compiled = CompiledFaultSimulator(circuit, table, faults)
        assert detectable_mask(compiled) == detectable_mask(ppsfp)

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
        # One fault row per build slab, one test per replay block and one
        # pattern per compared block.
        monkeypatch.setattr(ppsfp_module, "SLAB_BYTES_BUDGET", 1)
        monkeypatch.setattr(ppsfp_module, "DERIVE_BLOCK_CELLS", 1)
        blocked = PpsfpSimulator(circuit, table, faults)
        assert blocked.detect_masks(tests) == masks
        assert blocked.detectable_mask() == detectable


# ------------------------------------------------ ragged batched stepping


class TestDetectMasksMemory:
    def test_one_long_test_and_many_short_ones(self):
        """Memory tracks the sum of test lengths, not tests x longest."""
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
