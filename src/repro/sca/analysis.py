"""The ``repro.sca`` orchestrator: one object holding every static pass.

:func:`analyze` runs the whole static pipeline on a netlist — graph passes,
SCOAP, constant propagation, per-line observability, fault collapsing, and
untestability certificates — and returns a :class:`ScaAnalysis` whose
properties are computed lazily, so cheap consumers (e.g. a lint rule that
only wants constants) do not pay for the full certificate sweep.

:meth:`ScaAnalysis.verify` replays every emitted proof through the
independent checkers in :mod:`repro.sca.implications` /
:mod:`repro.sca.certificates`; :meth:`ScaAnalysis.to_dict` is the JSON
payload behind ``repro-fsatpg analyze --format json`` and
``scripts/validate_sca.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.gatelevel.netlist import Netlist
from repro.gatelevel.stuck_at import StuckAtFault
from repro.sca.certificates import (
    UntestableCertificate,
    prove_untestable,
    verify_certificate,
)
from repro.sca.collapse import CollapsedUniverse, collapse_universe
from repro.sca.graph import (
    FanoutFreeRegions,
    fanout_free_regions,
    immediate_dominators,
    levelize,
)
from repro.sca.implications import (
    ConstantAnalysis,
    propagate_constants,
    site_observability,
    verify_constant_steps,
)
from repro.sca.scoap import ScoapMeasures, compute_scoap

__all__ = ["ScaAnalysis", "analyze"]

#: Schema tag for the JSON payload of :meth:`ScaAnalysis.to_dict`.
SCA_SCHEMA = "repro-fsatpg-sca/1"


@dataclass
class ScaAnalysis:
    """Every static-analysis result for one netlist, computed lazily."""

    netlist: Netlist

    @cached_property
    def levels(self) -> tuple[int, ...]:
        return tuple(levelize(self.netlist))

    @cached_property
    def regions(self) -> FanoutFreeRegions:
        return fanout_free_regions(self.netlist)

    @cached_property
    def dominators(self) -> tuple[int | None, ...]:
        return tuple(immediate_dominators(self.netlist))

    @cached_property
    def scoap(self) -> ScoapMeasures:
        return compute_scoap(self.netlist)

    @cached_property
    def constants(self) -> ConstantAnalysis:
        return propagate_constants(self.netlist)

    @cached_property
    def unobservable(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Lines proven unobservable → their blocking evidence.

        Includes structurally dead lines (empty evidence: the deviation
        frontier simply never reaches an output) and lines cut off by
        constant controlling side inputs.
        """
        netlist = self.netlist
        constants = self.constants
        if not constants.constant_lines:
            return _dead_lines(netlist)
        blocked: dict[int, tuple[tuple[int, int], ...]] = {}
        for line in range(netlist.n_gates):
            observable, blocks = site_observability(netlist, constants, line)
            if not observable:
                blocked[line] = blocks
        return blocked

    @cached_property
    def universe(self) -> CollapsedUniverse:
        return collapse_universe(self.netlist)

    @cached_property
    def certificates(self) -> tuple[UntestableCertificate, ...]:
        """Untestability proofs for the *representative* faults.

        Equivalence lifts each proof to the whole class: equivalent faults
        are detected by exactly the same tests, so an undetectable
        representative means an undetectable class.
        """
        return prove_untestable(
            self.netlist,
            self.universe.representatives,
            self.constants,
            self.unobservable,
        )

    @cached_property
    def untestable_representatives(self) -> frozenset[StuckAtFault]:
        return frozenset(cert.fault for cert in self.certificates)

    @cached_property
    def untestable_faults(self) -> frozenset[StuckAtFault]:
        """The certified-untestable slice of the *full* fault universe."""
        reps = self.untestable_representatives
        return frozenset(
            fault
            for fault, rep in self.universe.mapping.items()
            if rep in reps
        )

    def materialize(self) -> "ScaAnalysis":
        """Force every lazy pass, so the analysis is computed (and timed)
        in one place and the object can be pickled whole.

        ``cached_property`` results live in the instance ``__dict__``, which
        is exactly what pickle serializes — an object pickled after
        :meth:`materialize` deserializes with all passes precomputed.
        """
        _ = (
            self.levels,
            self.regions,
            self.dominators,
            self.scoap,
            self.constants,
            self.unobservable,
            self.universe.representatives,
            self.universe.classes,
            self.certificates,
            self.untestable_representatives,
            self.untestable_faults,
        )
        return self

    def verify(self) -> None:
        """Machine-check every emitted proof; raises ``CertificateError``."""
        verified = verify_constant_steps(self.netlist, self.constants.steps)
        for certificate in self.certificates:
            verify_certificate(self.netlist, certificate, verified)

    def to_dict(self, *, include_scoap: bool = True) -> dict[str, object]:
        """JSON payload; see ``scripts/validate_sca.py`` for the contract."""
        netlist = self.netlist
        universe = self.universe
        payload: dict[str, object] = {
            "schema": SCA_SCHEMA,
            "netlist": {
                "gates": netlist.n_gates,
                "inputs": len(netlist.inputs),
                "outputs": len(netlist.outputs),
                "depth": max(self.levels, default=0),
            },
            "regions": {
                "count": self.regions.n_regions,
                "checkpoints": len(netlist.inputs)
                + len(self.regions.branches),
            },
            "collapse": {
                "faults": universe.n_faults,
                "representatives": universe.n_representatives,
                "ratio": round(universe.ratio, 4),
            },
            "constants": [
                {"line": line, "value": value}
                for line, value in sorted(self.constants.as_dict().items())
            ],
            "constant_steps": [
                step.to_dict() for step in self.constants.steps
            ],
            "unobservable": [
                {"line": line, "blocks": [list(block) for block in blocks]}
                for line, blocks in sorted(self.unobservable.items())
            ],
            "certificates": [
                cert.to_dict() for cert in self.certificates
            ],
            "untestable": {
                "representatives": len(self.untestable_representatives),
                "faults": len(self.untestable_faults),
            },
        }
        if include_scoap:
            scoap = self.scoap
            payload["scoap"] = [
                {
                    "line": line,
                    "cc0": scoap.cc0[line],
                    "cc1": scoap.cc1[line],
                    "co": scoap.co[line],
                }
                for line in range(netlist.n_gates)
            ]
        return payload


def _dead_lines(netlist: Netlist) -> dict[int, tuple[tuple[int, int], ...]]:
    """Unobservable lines of a netlist without proven constants.

    No gate can block a deviation then, so a line is unobservable exactly
    when its fanout cone (its row of the reachability matrix) holds no
    primary output, and its evidence is empty.
    """
    reach = netlist.reachability_matrix()
    output_mask = np.zeros(reach.shape[1], dtype=np.uint64)
    for line in netlist.outputs:
        output_mask[line // 64] |= np.uint64(1) << np.uint64(line % 64)
    observable = (reach & output_mask).any(axis=1)
    return {int(line): () for line in np.flatnonzero(~observable)}


def analyze(netlist: Netlist) -> ScaAnalysis:
    """Static analysis of ``netlist``; all passes are lazy properties."""
    return ScaAnalysis(netlist)
