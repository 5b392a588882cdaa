"""The benchmark's four workloads and their pinned inputs.

Circuit lists and machine dimensions are written here rather than read
from the program's registry tiers or bench defaults, so a change to the
program cannot change what the benchmark measures.  Every workload is
serial (``jobs=1``, observability off) and runs as a closed loop: the next
machine starts when the previous one finishes.  One operation is one
machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: The 21 circuits of the committed ``BENCH_perf.json`` workload: the 18
#: small-tier circuits plus bbara, ex4 and mark1.  All of them dispatch to
#: the PPSFP fault simulator.
GRADE_CIRCUITS = (
    "bbtas", "beecount", "dk14", "dk15", "dk16", "dk17", "dk27", "dk512",
    "ex2", "ex3", "ex5", "ex7", "lion", "lion9", "mc", "shiftreg", "tav",
    "train11", "bbara", "ex4", "mark1",
)

#: ``log`` is the cheapest registry circuit (14 pattern bits) for which
#: ``auto`` dispatch picks the compiled big-int fault simulator.
LARGE_CIRCUITS = ("log",)

#: The paper's worked example (Table 3).  ``testgen`` grades nothing, so it
#: reports the gate-level metrics of this circuit, graded once outside the
#: timed pass, to give every workload every end-to-end metric.
REFERENCE_CIRCUIT = "lion"

#: Dimensions of dvram, fetch, log and rie, the registry circuits where
#: test generation costs most short of nucpwr:
#: (label, inputs, states, core states, outputs, cubes per state).
TESTGEN_DIMENSIONS = (
    ("dvram", 8, 64, 50, 8, 10),
    ("fetch", 9, 32, 26, 8, 11),
    ("log", 9, 32, 17, 4, 11),
    ("rie", 9, 32, 29, 6, 11),
)
TESTGEN_MACHINES_PER_DIMENSION = 4


#: How much more a workload's time moves than the speed probe's loop when
#: the host's speed changes (:mod:`speed`).  Over two sets of ten runs in
#: which the host sped up by about 1.6x midway, the grade workloads and
#: ``testgen``, which spend their time in Python object code (dicts, sets,
#: tuples), went as the loop's time raised to 1.2-1.25; ``grade_large``,
#: which spends it in the compiled simulator's big-int arithmetic, went as
#: the loop's time itself.
OBJECT_CODE = 1.2
BIG_INT = 1.0
#: Set-up (imports and input generation) is Python object code everywhere.
SETUP_SENSITIVITY = OBJECT_CODE


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: the fewest untraced passes a run makes, time budget permitting
    passes: int
    sensitivity: float
    circuits: tuple[str, ...] = ()  #: registry circuits graded; empty for testgen
    warm: bool = False  #: grade against an artifact cache filled in setup

    def order(self, seed: int) -> list[str]:
        """The circuits in the order every pass of a run with this seed
        runs them.  One order per run keeps the first call's one-off costs
        (lazy imports, the registry index) on the same machine in every
        pass, so the per-machine median keeps them too."""
        order = list(self.circuits)
        random.Random(f"{self.name}:{seed}").shuffle(order)
        return order


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "testgen",
            "held-out seeded machines through parse_kiss, to_state_table and "
            "generate_tests; the bypass for every gate-level change",
            passes=3,
            sensitivity=OBJECT_CODE,
        ),
        Workload(
            "grade_cold",
            "compute_studies over 21 circuits with no cache; the exhaustive "
            "detectability oracle dominates",
            passes=2,
            sensitivity=OBJECT_CODE,
            circuits=GRADE_CIRCUITS,
        ),
        Workload(
            "grade_large",
            "compute_studies over log with no cache; the only workload where "
            "the compiled big-int fault simulator runs",
            # One pass takes 25-36 s: a second would take a whole evaluation
            # of the benchmark past its time budget.
            passes=1,
            sensitivity=BIG_INT,
            circuits=LARGE_CIRCUITS,
        ),
        Workload(
            "grade_warm",
            "the grade_cold circuits against a cache filled in setup; the only "
            "workload that reads the cache",
            passes=3,
            sensitivity=OBJECT_CODE,
            circuits=GRADE_CIRCUITS,
            warm=True,
        ),
    )
}


def testgen_machines(seed: int) -> list[tuple[str, tuple[int, int, int, int, int]]]:
    """``(name, (inputs, states, core, outputs, cubes))`` per testgen machine.

    The name seeds the program's synthetic machine generator, so the seed
    alone determines every machine.  The order is seed-permuted too.
    """
    machines = [
        (f"tg{seed}-{label}-{copy}", dimensions)
        for label, *dimensions in TESTGEN_DIMENSIONS
        for copy in range(TESTGEN_MACHINES_PER_DIMENSION)
    ]
    random.Random(f"testgen:{seed}").shuffle(machines)
    return [(name, tuple(dimensions)) for name, dimensions in machines]
