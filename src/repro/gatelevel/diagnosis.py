"""Dictionary-based fault diagnosis on top of the fault simulator.

A production test flow does not stop at detection: when silicon fails, the
pass/fail pattern over the test set is matched against a precomputed *fault
dictionary* to locate candidate defects.  This module builds the pass/fail
dictionary with the dispatched fault simulator — one simulation per test
over each of the universe's chunks
(:func:`repro.gatelevel.dispatch.detection_masks`), so no table is built
over the byte budget — and diagnoses observed signatures:

* exact matches — faults whose simulated signature equals the observation
  (several faults may share a signature; they are indistinguishable by
  this test set, the diagnosis returns the whole class);
* nearest candidates — ranked by Hamming distance, for defects outside the
  modeled universe (e.g. a bridge when only stuck-at faults were
  dictionary-ed).

The diagnostic *resolution* of a test set — how many faults are uniquely
distinguished — is a quality metric of the paper's functional tests that
the original evaluation never looked at; ``resolution()`` reports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.testset import ScanTest, TestSet
from repro.errors import FaultSimulationError
from repro.fsm.state_table import StateTable
from repro.gatelevel.dispatch import detection_masks, make_fault_simulator
from repro.gatelevel.fault_sim import Fault
from repro.gatelevel.scan import ScanCircuit

__all__ = ["FaultDictionary", "observed_signature"]


def observed_signature(
    circuit: ScanCircuit,
    table: StateTable,
    tests: Sequence[ScanTest],
    fault: Fault,
) -> tuple[bool, ...]:
    """The pass/fail signature a tester would record for ``fault``.

    ``True`` means the test *failed* (the fault was observed).
    """
    simulator = make_fault_simulator(circuit, table, [fault])
    return tuple(bool(mask) for mask in simulator.detect_masks(tests))


@dataclass(frozen=True)
class Diagnosis:
    """Outcome of one signature lookup."""

    exact: tuple[Fault, ...]
    #: (distance, faults) pairs for the nearest non-exact signatures
    nearest: tuple[tuple[int, tuple[Fault, ...]], ...]

    @property
    def is_exact(self) -> bool:
        return bool(self.exact)


class FaultDictionary:
    """Pass/fail dictionary of a test set over a fault universe."""

    def __init__(
        self,
        tests: tuple[ScanTest, ...],
        signatures: dict[Fault, tuple[bool, ...]],
    ) -> None:
        self.tests = tests
        self.signatures = signatures
        self._by_signature: dict[tuple[bool, ...], list[Fault]] = {}
        for fault, signature in signatures.items():
            self._by_signature.setdefault(signature, []).append(fault)

    @classmethod
    def build(
        cls,
        circuit: ScanCircuit,
        table: StateTable,
        tests: TestSet | Sequence[ScanTest],
        faults: Sequence[Fault],
    ) -> "FaultDictionary":
        """Simulate every test over the universe, chunk by chunk, once."""
        test_tuple = tuple(tests)
        if not faults:
            raise FaultSimulationError("a dictionary needs a fault universe")
        masks = detection_masks(circuit, table, faults, test_tuple)
        signatures: dict[Fault, tuple[bool, ...]] = {}
        for bit, fault in enumerate(faults):
            signatures[fault] = tuple(
                bool((mask >> bit) & 1) for mask in masks
            )
        return cls(test_tuple, signatures)

    # ------------------------------------------------------------- queries

    def diagnose(
        self, observed: Sequence[bool], max_nearest: int = 3
    ) -> Diagnosis:
        """Match an observed pass/fail signature against the dictionary."""
        signature = tuple(bool(value) for value in observed)
        if len(signature) != len(self.tests):
            raise FaultSimulationError(
                f"signature has {len(signature)} entries for "
                f"{len(self.tests)} tests"
            )
        exact = tuple(self._by_signature.get(signature, ()))
        distances: dict[int, list[Fault]] = {}
        for candidate_signature, candidate_faults in self._by_signature.items():
            if candidate_signature == signature:
                continue
            distance = sum(
                1 for a, b in zip(signature, candidate_signature) if a != b
            )
            distances.setdefault(distance, []).extend(candidate_faults)
        nearest = tuple(
            (distance, tuple(distances[distance]))
            for distance in sorted(distances)[:max_nearest]
        )
        return Diagnosis(exact, nearest)

    def resolution(self) -> tuple[int, int, float]:
        """``(uniquely_diagnosed, total, percent)`` over detected faults.

        Faults that no test detects (all-pass signature) are excluded —
        they are escapes, not diagnosis candidates.
        """
        detected = {
            fault: signature
            for fault, signature in self.signatures.items()
            if any(signature)
        }
        unique = sum(
            1
            for signature in set(detected.values())
            if sum(1 for s in detected.values() if s == signature) == 1
        )
        total = len(detected)
        return unique, total, (100.0 * unique / total if total else 100.0)

    def indistinguishable_classes(self) -> list[tuple[Fault, ...]]:
        """Signature classes with two or more detected faults."""
        return [
            tuple(faults)
            for signature, faults in self._by_signature.items()
            if any(signature) and len(faults) > 1
        ]
