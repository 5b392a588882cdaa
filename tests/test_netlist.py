"""Unit tests for the gate-level netlist and word-parallel evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import NetlistError
from repro.gatelevel.netlist import (
    ALL_ONES,
    GateType,
    Netlist,
    exhaustive_pattern_words,
    pack_bits,
    unpack_bits,
)


def xor_netlist():
    """y = a XOR b built from AND/OR/NOT."""
    netlist = Netlist("xor")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    na = netlist.add_gate(GateType.NOT, (a,))
    nb = netlist.add_gate(GateType.NOT, (b,))
    t1 = netlist.add_gate(GateType.AND, (a, nb))
    t2 = netlist.add_gate(GateType.AND, (na, b))
    y = netlist.add_gate(GateType.OR, (t1, t2))
    netlist.set_outputs([y])
    return netlist


class TestConstruction:
    def test_gate_count(self):
        assert xor_netlist().n_gates == 7

    def test_forward_reference_rejected(self):
        netlist = Netlist()
        netlist.add_input()
        with pytest.raises(NetlistError, match="topological"):
            netlist.add_gate(GateType.NOT, (5,))

    def test_input_via_add_gate_rejected(self):
        with pytest.raises(NetlistError):
            Netlist().add_gate(GateType.INPUT, ())

    def test_fanin_arity_enforced(self):
        netlist = Netlist()
        a = netlist.add_input()
        with pytest.raises(NetlistError):
            netlist.add_gate(GateType.AND, (a,))
        with pytest.raises(NetlistError):
            netlist.add_gate(GateType.NOT, (a, a))

    def test_unknown_output_rejected(self):
        with pytest.raises(NetlistError):
            xor_netlist().set_outputs([99])

    def test_check_requires_outputs(self):
        netlist = Netlist()
        netlist.add_input()
        with pytest.raises(NetlistError, match="outputs"):
            netlist.check()


class TestEvaluation:
    @pytest.mark.parametrize("a,b,expected", [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_xor_truth_table(self, a, b, expected):
        assert xor_netlist().evaluate_bits([a, b]) == (expected,)

    def test_all_gate_types(self):
        netlist = Netlist()
        a = netlist.add_input()
        b = netlist.add_input()
        gates = {
            "and": netlist.add_gate(GateType.AND, (a, b)),
            "or": netlist.add_gate(GateType.OR, (a, b)),
            "not": netlist.add_gate(GateType.NOT, (a,)),
            "c0": netlist.add_gate(GateType.CONST0, ()),
        }
        netlist.set_outputs([a, *gates.values()])
        assert {gate.kind for gate in netlist.gates} == set(GateType)
        truth = {
            (0, 0): (0, 0, 0, 1, 0),
            (0, 1): (0, 0, 1, 1, 0),
            (1, 0): (1, 0, 1, 0, 0),
            (1, 1): (1, 1, 1, 0, 0),
        }
        for (a_bit, b_bit), expected in truth.items():
            assert netlist.evaluate_bits([a_bit, b_bit]) == expected

    def test_wide_gates(self):
        netlist = Netlist()
        ins = [netlist.add_input() for _ in range(5)]
        wide_and = netlist.add_gate(GateType.AND, ins)
        wide_or = netlist.add_gate(GateType.OR, ins)
        netlist.set_outputs([wide_and, wide_or])
        assert netlist.evaluate_bits([1] * 5) == (1, 1)
        assert netlist.evaluate_bits([1, 1, 0, 1, 1]) == (0, 1)
        assert netlist.evaluate_bits([0] * 5) == (0, 0)

    def test_word_parallel_matches_scalar(self):
        netlist = xor_netlist()
        words = exhaustive_pattern_words(2)
        values = netlist.evaluate(words)
        out = unpack_bits(values[netlist.outputs[0]], 4)
        expected = [netlist.evaluate_bits([p >> 1, p & 1])[0] for p in range(4)]
        assert list(out.astype(int)) == expected

    def test_input_count_mismatch(self):
        with pytest.raises(NetlistError):
            xor_netlist().evaluate([np.zeros(1, dtype=np.uint64)])

    def test_width_mismatch(self):
        with pytest.raises(NetlistError):
            xor_netlist().evaluate(
                [np.zeros(1, dtype=np.uint64), np.zeros(2, dtype=np.uint64)]
            )


class TestStructureQueries:
    def test_fanouts(self):
        netlist = xor_netlist()
        fanouts = netlist.fanouts()
        assert fanouts[0] == [2, 4]  # input a feeds NOT and AND

    def test_fanout_closure_topological(self):
        netlist = xor_netlist()
        closure = netlist.fanout_closure([0])
        assert closure == sorted(closure)
        assert 6 in closure  # the OR output depends on input a

    def test_reaches(self):
        netlist = xor_netlist()
        assert netlist.reaches(0, 6)
        assert not netlist.reaches(6, 0)
        assert netlist.reaches(3, 3)

    def test_reachability_matrix_agrees_with_reaches(self):
        netlist = xor_netlist()
        matrix = netlist.reachability_matrix()
        for src in range(netlist.n_gates):
            for dst in range(netlist.n_gates):
                bit = bool(
                    (matrix[src, dst // 64] >> np.uint64(dst % 64)) & np.uint64(1)
                )
                assert bit == netlist.reaches(src, dst)


class TestPackUnpack:
    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, size=157).astype(bool)
        assert np.array_equal(unpack_bits(pack_bits(bits), 157), bits)

    def test_exhaustive_patterns_msb_first(self):
        words = exhaustive_pattern_words(3)
        # input 0 is the MSB of the pattern index
        first = unpack_bits(words[0], 8).astype(int)
        assert list(first) == [0, 0, 0, 0, 1, 1, 1, 1]
        last = unpack_bits(words[2], 8).astype(int)
        assert list(last) == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_all_ones_constant(self):
        assert int(ALL_ONES) == 2**64 - 1
