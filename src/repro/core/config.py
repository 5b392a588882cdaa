"""Configuration of the test generation and fault simulation procedures."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FaultSimulationError, GenerationError
from repro.uio.search import DEFAULT_NODE_BUDGET

__all__ = [
    "GeneratorConfig",
    "FaultSimConfig",
    "DEFAULT_BATCH_BITS_CAP",
    "DEFAULT_PPSFP_PATTERN_BLOCK",
    "DEFAULT_PPSFP_CELL_BUDGET",
    "FAULT_SIM_ENGINES",
    "adaptive_batch_bits",
]

#: Upper bound on faults packed per big-int batch word.  Larger batches
#: amortize per-gate Python overhead; beyond a few thousand bits the big-int
#: arithmetic itself starts to dominate.
DEFAULT_BATCH_BITS_CAP = 2048

#: Upper bound on patterns evaluated per PPSFP sweep block (always a
#: multiple of 64 — one uint64 lane holds 64 patterns).  Blocking the
#: pattern axis bounds the working set of the table build; it never changes
#: results because combinational patterns are independent.
DEFAULT_PPSFP_PATTERN_BLOCK = 8192

#: Auto-dispatch budget on behavioral-table cells (``faults x patterns``).
#: Above it the exhaustive PPSFP table build stops paying for itself (and
#: starts costing real memory), so ``engine="auto"`` falls back to the
#: big-int parallel-fault path.
DEFAULT_PPSFP_CELL_BUDGET = 1 << 24

#: Recognized fault-simulation engines.
FAULT_SIM_ENGINES = ("auto", "ppsfp", "bigint")


def adaptive_batch_bits(
    n_faults: int,
    cap: int | None = None,
    *,
    engine: str = "bigint",
) -> int:
    """Batch width (bits) sized to the universe, per engine.

    ``engine="bigint"`` (the default) sizes big-int fault words: small
    universes get exactly-sized words instead of paying for ``cap``-bit
    arithmetic; universes above the cap are split into balanced batches
    (``ceil(n / ceil(n / cap))``), so e.g. 2049 faults become two ~1025-bit
    batches rather than a 2048-bit word plus a 1-bit straggler.

    ``engine="ppsfp"`` sizes pattern blocks instead: ``n_faults`` is read
    as a *pattern* count and the result is rounded up to a multiple of 64
    (one uint64 lane holds 64 patterns), balanced the same way above the
    cap.
    """
    if engine not in ("bigint", "ppsfp"):
        raise FaultSimulationError(f"unknown fault-sim engine {engine!r}")
    if cap is None:
        cap = (
            DEFAULT_PPSFP_PATTERN_BLOCK
            if engine == "ppsfp"
            else DEFAULT_BATCH_BITS_CAP
        )
    if cap < 1:
        raise FaultSimulationError("batch bit cap must be >= 1")
    if engine == "ppsfp":
        # Lane-align both the cap and the result: a partial uint64 lane
        # costs the same as a full one.
        cap = max(64, (cap // 64) * 64)
        if n_faults <= cap:
            return max(64, -(-n_faults // 64) * 64)
        n_batches = -(-n_faults // cap)
        return -(-(-(-n_faults // n_batches)) // 64) * 64
    if n_faults <= cap:
        return max(1, n_faults)
    n_batches = -(-n_faults // cap)
    return -(-n_faults // n_batches)


@dataclass(frozen=True)
class FaultSimConfig:
    """Engine choice of the bit-parallel fault simulators.

    ``engine`` selects the packing axis: ``"bigint"`` packs *faults* as
    bits of one arbitrary-precision word and walks the test cycle by cycle;
    ``"ppsfp"`` packs *patterns* 64 per uint64 lane, builds each fault's
    complete behavioral table in one exhaustive sweep, and replays tests as
    table lookups.  ``"auto"`` (the default) picks per universe from the
    pattern-space size and fault count (:meth:`select_engine`) — the choice
    only ever affects speed, never results.  Batch and block widths follow
    :func:`adaptive_batch_bits`.
    """

    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.engine not in FAULT_SIM_ENGINES:
            raise FaultSimulationError(
                f"unknown fault-sim engine {self.engine!r}; "
                f"expected one of {', '.join(FAULT_SIM_ENGINES)}"
            )

    def select_engine(
        self,
        n_faults: int,
        n_pattern_bits: int,
        total_test_cycles: int | None = None,
    ) -> str:
        """Resolve ``"auto"`` to a concrete engine for one universe.

        The heuristic compares the PPSFP table-build footprint
        (``faults x 2**pattern_bits`` cells) against the cell budget, and —
        when the caller knows the workload — against the big-int path's
        cycle count: a table whose pattern axis dwarfs the total number of
        simulated clock cycles would cost more to build than the big-int
        simulation it replaces.  Forced engines pass through unchanged.
        """
        if self.engine != "auto":
            return self.engine
        if n_faults == 0:
            return "ppsfp"
        n_patterns = 1 << n_pattern_bits
        if n_faults * n_patterns > DEFAULT_PPSFP_CELL_BUDGET:
            return "bigint"
        if total_test_cycles is not None:
            pattern_words = max(1, n_patterns // 64)
            if pattern_words > max(64, 4 * total_test_cycles):
                return "bigint"
        return "ppsfp"


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the paper's procedure.

    Parameters
    ----------
    max_uio_length:
        The bound ``L`` on unique input-output sequence lengths.  ``None``
        (the default) means ``L = N_SV``, the paper's main setting: a UIO
        then never takes longer to apply than a scan-out/scan-in pair.
        Table 9 sweeps this bound.
    max_transfer_length:
        The bound ``T`` on transfer sequence lengths.  The paper's main
        experiments use ``T = 1``; ``T = 0`` disables transfer sequences
        (Table 8).
    postpone_no_uio_starts:
        The paper's postpone rule: do not *start* a test with a transition
        whose next state has no UIO during the first pass, because that
        forces a length-1 test; a second pass picks the leftovers up.
    uio_node_budget:
        Node-expansion budget per UIO search (the search is exponential in
        the worst case).  States whose search is cut off are treated as
        having no UIO.
    credit_incidental:
        Extension (off by default, matching the paper's accounting): also
        mark transitions traversed inside UIO and transfer segments as
        tested.  This is *optimistic* — next-state errors on those
        transitions are only probabilistically observed — so the strict
        coverage checker reports such credits separately.
    use_partial_uio:
        Extension (off by default): for next states without a full UIO but
        with a complete partial UIO set, keep chaining by applying one
        pending sequence of the set per visit; the transition counts as
        tested once every sequence of the set has followed it somewhere in
        the test set.
    scan_ratio:
        The scan-to-functional clock period ratio ``M``; only affects the
        reported clock cycles, never the generated tests.
    """

    max_uio_length: int | None = None
    max_transfer_length: int = 1
    postpone_no_uio_starts: bool = True
    uio_node_budget: int = DEFAULT_NODE_BUDGET
    credit_incidental: bool = False
    use_partial_uio: bool = False
    scan_ratio: int = 1

    def __post_init__(self) -> None:
        if self.max_uio_length is not None and self.max_uio_length < 0:
            raise GenerationError("max_uio_length must be >= 0")
        if self.max_transfer_length < 0:
            raise GenerationError("max_transfer_length must be >= 0")
        if self.uio_node_budget < 1:
            raise GenerationError("uio_node_budget must be >= 1")
        if self.scan_ratio < 1:
            raise GenerationError("scan_ratio must be >= 1")

    def resolved_uio_length(self, n_state_variables: int) -> int:
        """The effective ``L`` for a machine with ``n_state_variables``."""
        if self.max_uio_length is None:
            return n_state_variables
        return self.max_uio_length
