"""Gate-level substrate: netlists, synthesis, and fault simulation.

The paper evaluates its functional tests by fault-simulating gate-level
implementations of the benchmark machines.  This subpackage provides that
whole stack from scratch:

* :mod:`repro.gatelevel.netlist` — combinational netlists with word-parallel
  (64 instances per ``uint64`` bit) evaluation;
* :mod:`repro.gatelevel.sop` / :mod:`repro.gatelevel.synthesis` — two-level
  synthesis of a state table (natural state encoding, shared product terms)
  into a full-scan circuit model;
* :mod:`repro.gatelevel.stuck_at` — single stuck-at fault lists with
  equivalence collapsing;
* :mod:`repro.gatelevel.bridging` — non-feedback AND/OR bridging faults per
  the paper's three structural conditions;
* :mod:`repro.gatelevel.detectability` — exhaustive combinational
  detectability (the paper's redundant-fault oracle);
* :mod:`repro.gatelevel.fault_sim` — sequential bit-parallel fault
  simulation of scan tests with fault dropping, the interpreted reference;
* :mod:`repro.gatelevel.ppsfp` — the production pattern-parallel engine,
  which :mod:`repro.gatelevel.dispatch` runs on byte-budgeted fault chunks.
"""

from repro.gatelevel.netlist import Gate, GateType, Netlist
from repro.gatelevel.synthesis import SynthesisOptions, synthesize
from repro.gatelevel.scan import ScanCircuit
from repro.gatelevel.stuck_at import (
    StuckAtFault,
    collapse_stuck_at,
    enumerate_stuck_at,
    stuck_at_representatives,
)
from repro.gatelevel.bridging import BridgingFault, BridgeKind, enumerate_bridging_faults
from repro.gatelevel.detectability import assigned_pattern_mask, detectable_faults
from repro.gatelevel.fault_sim import FaultSimResult, simulate_tests
from repro.gatelevel.delay import (
    TransitionDelayFault,
    enumerate_transition_delay_faults,
    simulate_delay_faults,
)
from repro.gatelevel.atpg import AtpgResult, generate_stuck_at_atpg
from repro.gatelevel.diagnosis import FaultDictionary, observed_signature

__all__ = [
    "Gate",
    "GateType",
    "Netlist",
    "SynthesisOptions",
    "synthesize",
    "ScanCircuit",
    "StuckAtFault",
    "collapse_stuck_at",
    "enumerate_stuck_at",
    "stuck_at_representatives",
    "BridgingFault",
    "BridgeKind",
    "enumerate_bridging_faults",
    "assigned_pattern_mask",
    "detectable_faults",
    "FaultSimResult",
    "simulate_tests",
    "TransitionDelayFault",
    "enumerate_transition_delay_faults",
    "simulate_delay_faults",
    "AtpgResult",
    "generate_stuck_at_atpg",
    "FaultDictionary",
    "observed_signature",
]
