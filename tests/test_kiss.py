"""Unit tests for the KISS2 parser/writer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IncompleteMachineError, KissFormatError
from repro.fsm.kiss import (
    CubeAnomaly,
    KissMachine,
    KissRow,
    expand_cube,
    expand_machine,
    parse_kiss,
    table_to_kiss,
    write_kiss,
)

SIMPLE = """\
.i 1
.o 1
.s 2
.p 4
.r off
0 off off 0
1 off on 1
0 on on 1
1 on off 0
.e
"""


class TestParse:
    def test_roundtrip_counts(self):
        machine = parse_kiss(SIMPLE, name="simple")
        assert machine.n_inputs == 1
        assert machine.n_outputs == 1
        assert machine.n_states == 2
        assert machine.reset_state == "off"
        assert len(machine.rows) == 4

    def test_state_names_reset_first(self):
        text = SIMPLE.replace(".r off", ".r on")
        machine = parse_kiss(text)
        assert machine.state_names()[0] == "on"

    def test_comments_and_blanks_ignored(self):
        text = "# heading\n\n" + SIMPLE.replace(".e", "# trailing\n.e")
        assert parse_kiss(text).n_states == 2

    def test_unknown_directives_tolerated(self):
        text = SIMPLE.replace(".i 1", ".i 1\n.ilb x0")
        assert parse_kiss(text).n_inputs == 1

    def test_missing_header_raises(self):
        with pytest.raises(KissFormatError, match="missing"):
            parse_kiss("0 a b 0\n")

    def test_wrong_field_count_raises(self):
        with pytest.raises(KissFormatError, match="4 fields"):
            parse_kiss(".i 1\n.o 1\n0 a b\n")

    def test_product_count_mismatch_raises(self):
        with pytest.raises(KissFormatError, match="declares"):
            parse_kiss(".i 1\n.o 1\n.p 7\n0 a b 0\n")

    def test_state_count_overflow_raises(self):
        with pytest.raises(KissFormatError, match="states"):
            parse_kiss(".i 1\n.o 1\n.s 1\n0 a b 0\n1 a a 0\n")

    def test_bad_cube_characters_raise(self):
        with pytest.raises(KissFormatError, match="cube"):
            parse_kiss(".i 1\n.o 1\n2 a b 0\n")

    def test_everything_after_dot_e_ignored(self):
        text = SIMPLE + "garbage that is not kiss\n"
        assert parse_kiss(text).n_states == 2


class TestExpandCube:
    def test_fully_specified(self):
        assert list(expand_cube("10")) == [0b10]

    def test_single_dash(self):
        assert sorted(expand_cube("1-")) == [0b10, 0b11]

    def test_all_dashes(self):
        assert sorted(expand_cube("--")) == [0, 1, 2, 3]

    def test_empty_cube(self):
        assert list(expand_cube("")) == [0]


class TestToStateTable:
    def test_simple_machine(self):
        table = parse_kiss(SIMPLE).to_state_table()
        assert table.step(0, 0) == (0, 0)
        assert table.step(0, 1) == (1, 1)
        assert table.step(1, 1) == (0, 0)

    def test_cube_expansion(self):
        text = ".i 2\n.o 1\n- - a a 0\n".replace("- -", "--")
        table = parse_kiss(text).to_state_table()
        assert table.n_states == 1
        assert all(table.step(0, c) == (0, 0) for c in range(4))

    def test_dont_care_output_resolves_to_zero(self):
        text = ".i 1\n.o 2\n- a a -1\n"
        table = parse_kiss(text).to_state_table()
        assert table.step(0, 0) == (0, 0b01)

    def test_conflicting_rows_raise(self):
        text = ".i 1\n.o 1\n0 a a 0\n0 a b 0\n1 a a 0\n1 b b 0\n0 b b 0\n"
        with pytest.raises(KissFormatError, match="conflicting"):
            parse_kiss(text).to_state_table()

    def test_unspecified_entries_raise_by_default(self):
        text = ".i 1\n.o 1\n0 a a 0\n"
        with pytest.raises(IncompleteMachineError):
            parse_kiss(text).to_state_table()

    def test_fill_unspecified_goes_to_reset(self):
        text = ".i 1\n.o 1\n.r a\n0 a b 1\n0 b b 1\n"
        table = parse_kiss(text).to_state_table(fill_unspecified=True)
        assert table.step(0, 1) == (0, 0)
        assert table.step(1, 1) == (0, 0)

    def test_star_present_state(self):
        text = ".i 1\n.o 1\n.r a\n0 a a 0\n0 b a 0\n1 * a 1\n"
        table = parse_kiss(text).to_state_table()
        assert table.step(0, 1) == (0, 1)
        assert table.step(1, 1) == (0, 1)

    def test_width_mismatch_raises(self):
        text = ".i 2\n.o 1\n0 a a 0\n"
        with pytest.raises(KissFormatError, match="width"):
            parse_kiss(text).to_state_table()


class TestWrite:
    def test_roundtrip(self):
        machine = parse_kiss(SIMPLE, name="simple")
        again = parse_kiss(write_kiss(machine), name="simple")
        assert again.to_state_table() == machine.to_state_table()

    def test_table_to_kiss_roundtrip(self, lion):
        machine = table_to_kiss(lion)
        assert machine.to_state_table() == lion
        assert len(machine.rows) == lion.n_transitions

    def test_write_contains_headers(self):
        text = write_kiss(parse_kiss(SIMPLE))
        assert ".i 1" in text and ".p 4" in text and text.endswith(".e\n")


class TestKissRowValidation:
    def test_bad_cube_rejected(self):
        with pytest.raises(KissFormatError):
            KissRow("0x", "a", "b", "1")

    def test_str_format(self):
        assert str(KissRow("0-", "a", "b", "1")) == "0- a b 1"


# ------------------------------------------------------- expansion reference


def _reference_cube(cube: str) -> list[int]:
    """The bit-by-bit cube enumeration expand_cube replaced."""
    free = [i for i, ch in enumerate(cube) if ch == "-"]
    width = len(cube)
    base = int(cube.replace("-", "0"), 2) if cube else 0
    values = []
    for assignment in range(1 << len(free)):
        value = base
        for bit_pos, index in enumerate(free):
            if (assignment >> bit_pos) & 1:
                value |= 1 << (width - 1 - index)
        values.append(value)
    return values


def _reference_expand(machine: KissMachine):
    """The scalar numpy loop expand_machine replaced, kept as the reference:
    every entry is read and written on the arrays themselves."""
    names = machine.state_names()
    index = {name: i for i, name in enumerate(names)}
    n_states = len(names)
    n_cols = 1 << machine.n_inputs
    next_state = np.full((n_states, n_cols), -1, dtype=np.int32)
    output = np.zeros((n_states, n_cols), dtype=np.int64)
    anomalies: list[CubeAnomaly] = []
    for row_index, row in enumerate(machine.rows):
        if len(row.input_cube) != machine.n_inputs:
            anomalies.append(CubeAnomaly(
                "width",
                f"row {row}: input cube width != .i {machine.n_inputs}",
                row_index,
            ))
            continue
        if len(row.output_cube) != machine.n_outputs:
            anomalies.append(CubeAnomaly(
                "width",
                f"row {row}: output cube width != .o {machine.n_outputs}",
                row_index,
            ))
            continue
        out_value = (
            int(row.output_cube.replace("-", "0"), 2) if machine.n_outputs else 0
        )
        presents = range(n_states) if row.present == "*" else (index[row.present],)
        nxt = index[row.next]
        for combo in _reference_cube(row.input_cube):
            for present in presents:
                previous = next_state[present, combo]
                if previous != -1 and (
                    previous != nxt or output[present, combo] != out_value
                ):
                    anomalies.append(CubeAnomaly(
                        "conflict",
                        f"conflicting rows for state {names[present]!r} "
                        f"under input {combo:0{machine.n_inputs}b}",
                        row_index,
                        names[present],
                        combo,
                    ))
                    continue
                next_state[present, combo] = nxt
                output[present, combo] = out_value
    holes = [
        (int(state), int(combo)) for state, combo in zip(*np.nonzero(next_state == -1))
    ]
    return names, next_state, output, anomalies, holes


@st.composite
def kiss_machines(draw: st.DrawFn) -> KissMachine:
    """Small cube-level machines with overlapping cubes, ``*`` present
    states, the odd cube of the wrong width, and unspecified entries."""
    n_inputs = draw(st.integers(0, 3))
    n_outputs = draw(st.integers(0, 2))
    names = [f"s{i}" for i in range(draw(st.integers(1, 4)))]

    def cube(width: int) -> st.SearchStrategy[str]:
        width = draw(st.sampled_from([width] * 8 + [width + 1, max(0, width - 1)]))
        return st.text(alphabet="01-", min_size=width, max_size=width)

    rows = [
        KissRow(
            draw(cube(n_inputs)),
            draw(st.sampled_from([*names, "*"])),
            draw(st.sampled_from(names)),
            draw(cube(n_outputs)),
        )
        for _ in range(draw(st.integers(0, 8)))
    ]
    reset = draw(st.one_of(st.none(), st.sampled_from(names)))
    return KissMachine(n_inputs, n_outputs, rows, reset, "drawn")


class TestExpansionReference:
    @settings(max_examples=300, deadline=None)
    @given(kiss_machines())
    def test_matches_scalar_reference(self, machine):
        names, next_state, output, anomalies, holes = _reference_expand(machine)
        expansion = expand_machine(machine)
        assert expansion.names == names
        for got, want in ((expansion.next_state, next_state), (expansion.output, output)):
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        assert expansion.anomalies == anomalies
        assert expansion.holes == holes

    @given(st.text(alphabet="01-", max_size=8))
    def test_cube_order_matches_reference(self, cube):
        assert list(expand_cube(cube)) == _reference_cube(cube)
