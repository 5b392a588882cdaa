"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.benchmarks import circuit_names, load_circuit, load_kiss_machine
from repro.core.config import GeneratorConfig
from repro.core.generator import generate_tests
from repro.fsm.builders import StateTableBuilder, random_dense_table
from repro.fsm.state_table import StateTable
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.synthesis import SynthesisOptions

#: Circuits on which the gate-level stuck-at ATPG and the transition-delay
#: simulator are checked against their cone-resimulation references: the
#: small tier, three Gray-encoded machines, a random machine whose 5 states
#: leave 3 of its 8 codes unassigned, and a 2-state machine with 64 outputs,
#: whose 65-bit cells no PPSFP table holds.
REFERENCE_CIRCUITS = (
    *sorted(circuit_names("small")),
    "lion/gray",
    "bbtas/gray",
    "dk512/gray",
    "dense5",
    "wide64",
)


@pytest.fixture(autouse=True)
def _hermetic_ledger(tmp_path, monkeypatch):
    """Point the run ledger at a per-test directory.

    CLI-level tests (and ``run_bench``) append ledger records; without this
    they would write into the developer's real
    ``~/.local/state/repro-fsatpg/ledger``.
    """
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))


@pytest.fixture(scope="session", params=REFERENCE_CIRCUITS)
def reference_circuit(request) -> tuple[StateTable, ScanCircuit]:
    """``(table, fanin-4 scan circuit)`` of one of :data:`REFERENCE_CIRCUITS`."""
    base, _, encoding = request.param.partition("/")
    if base == "dense5":
        table = machine = random_dense_table(2, 5, 2, seed=base, name=base)
    elif base == "wide64":
        rng = random.Random(base)
        outputs = [[rng.getrandbits(63) for _ in range(2)] for _ in range(2)]
        table = machine = StateTable([[0, 1], [1, 0]], outputs, 1, 64, name=base)
    else:
        table, machine = load_circuit(base), load_kiss_machine(base)
    options = SynthesisOptions(max_fanin=4, encoding=encoding or "natural")
    return table, ScanCircuit.from_machine(machine, options)


@pytest.fixture(scope="session")
def lion():
    """The paper's exact ``lion`` machine (Table 1)."""
    return load_circuit("lion")


@pytest.fixture(scope="session")
def lion_kiss():
    return load_kiss_machine("lion")


@pytest.fixture(scope="session")
def lion_result(lion):
    """The paper's worked example: tests generated with default settings."""
    return generate_tests(lion, GeneratorConfig())


@pytest.fixture(scope="session")
def shiftreg():
    return load_circuit("shiftreg")


@pytest.fixture()
def toggle():
    """A 2-state toggle machine: input 1 flips the state, output = state."""
    builder = StateTableBuilder(n_inputs=1, n_outputs=1, name="toggle")
    builder.add("off", 0, "off", 0)
    builder.add("off", 1, "on", 0)
    builder.add("on", 0, "on", 1)
    builder.add("on", 1, "off", 1)
    return builder.build()


@pytest.fixture()
def two_counter():
    """A 4-state counter with carry output; every state has a UIO."""
    builder = StateTableBuilder(n_inputs=1, n_outputs=2, name="counter2")
    for value in range(4):
        nxt = (value + 1) % 4
        builder.add(f"c{value}", 1, f"c{nxt}", value)
        builder.add(f"c{value}", 0, f"c{value}", value)
    return builder.build()
