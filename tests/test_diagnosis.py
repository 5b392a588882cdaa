"""Unit tests for dictionary-based fault diagnosis."""

from __future__ import annotations

import pytest

from repro.benchmarks import load_circuit, load_kiss_machine
from repro.core.generator import generate_tests
from repro.errors import FaultSimulationError
from repro.gatelevel.bridging import enumerate_bridging_faults
from repro.gatelevel.diagnosis import FaultDictionary, observed_signature
from repro.gatelevel.dispatch import circuit_chunks
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import collapse_stuck_at
from repro.gatelevel.synthesis import SynthesisOptions


@pytest.fixture(scope="module")
def dictionary_setup():
    table = load_circuit("lion")
    circuit = ScanCircuit.from_machine(
        load_kiss_machine("lion"), SynthesisOptions(max_fanin=4)
    )
    tests = generate_tests(table).test_set
    faults = sorted(set(collapse_stuck_at(circuit.netlist).values()))
    dictionary = FaultDictionary.build(circuit, table, tests, faults)
    return table, circuit, tests, faults, dictionary


class TestDictionaryBuild:
    def test_every_fault_has_a_signature(self, dictionary_setup):
        _, _, tests, faults, dictionary = dictionary_setup
        assert set(dictionary.signatures) == set(faults)
        assert all(
            len(signature) == len(tests)
            for signature in dictionary.signatures.values()
        )

    def test_signatures_match_single_fault_simulation(self, dictionary_setup):
        table, circuit, tests, faults, dictionary = dictionary_setup
        for fault in faults[:8]:
            assert dictionary.signatures[fault] == observed_signature(
                circuit, table, tuple(tests), fault
            )

    def test_budget_sized_chunks_keep_the_signatures(
        self, dictionary_setup, monkeypatch
    ):
        """A byte budget of four lion tables cuts the universe into chunks;
        the signatures stay those of the one-chunk dictionary."""
        table, circuit, tests, faults, dictionary = dictionary_setup
        monkeypatch.setattr("repro.core.config.DEFAULT_PPSFP_BYTE_BUDGET", 4 * 16)
        engine, chunks = circuit_chunks(circuit, faults)
        assert engine == "ppsfp" and len(chunks) > 1
        chunked = FaultDictionary.build(circuit, table, tests, faults)
        assert chunked.signatures == dictionary.signatures

    def test_empty_universe_rejected(self, dictionary_setup):
        table, circuit, tests, _, _ = dictionary_setup
        with pytest.raises(FaultSimulationError):
            FaultDictionary.build(circuit, table, tests, [])


class TestDiagnose:
    def test_every_detected_fault_diagnoses_to_its_class(self, dictionary_setup):
        _, _, _, faults, dictionary = dictionary_setup
        for fault, signature in dictionary.signatures.items():
            if not any(signature):
                continue  # never detected: nothing to diagnose
            result = dictionary.diagnose(signature)
            assert fault in result.exact

    def test_all_pass_signature_matches_undetected_faults(self, dictionary_setup):
        _, _, tests, _, dictionary = dictionary_setup
        result = dictionary.diagnose([False] * len(tests))
        for fault in result.exact:
            assert not any(dictionary.signatures[fault])

    def test_unmodeled_defect_gets_nearest_candidates(self, dictionary_setup):
        table, circuit, tests, _, dictionary = dictionary_setup
        bridges = enumerate_bridging_faults(circuit.netlist)
        assert bridges
        signature = observed_signature(circuit, table, tuple(tests), bridges[0])
        result = dictionary.diagnose(signature)
        if not result.is_exact:
            assert result.nearest
            best_distance = result.nearest[0][0]
            assert best_distance >= 1

    def test_wrong_signature_length_rejected(self, dictionary_setup):
        _, _, _, _, dictionary = dictionary_setup
        with pytest.raises(FaultSimulationError):
            dictionary.diagnose([True])


class TestResolution:
    def test_resolution_counts_consistent(self, dictionary_setup):
        _, _, _, _, dictionary = dictionary_setup
        unique, total, pct = dictionary.resolution()
        assert 0 <= unique <= total
        assert pct == pytest.approx(100.0 * unique / total)

    def test_classes_partition_detected_faults(self, dictionary_setup):
        _, _, _, _, dictionary = dictionary_setup
        unique, total, _ = dictionary.resolution()
        in_classes = sum(len(c) for c in dictionary.indistinguishable_classes())
        assert unique + in_classes == total

    def test_more_tests_never_reduce_resolution(self, dictionary_setup):
        """Diagnostic resolution is monotone in the test set."""
        table, circuit, tests, faults, dictionary = dictionary_setup
        fewer = FaultDictionary.build(
            circuit, table, list(tests)[:4], faults
        )
        unique_few, _, _ = fewer.resolution()
        unique_all, _, _ = dictionary.resolution()
        assert unique_all >= unique_few
