"""Configuration of the test generation and fault simulation procedures.

Besides the two procedures' config objects, this module holds the sizing
rules of the fault simulators: big-int batch widths
(:func:`adaptive_batch_bits`), PPSFP pattern blocks
(:data:`DEFAULT_PPSFP_PATTERN_BLOCK`), the width of a PPSFP table cell
(:func:`table_cell_bytes`), and the byte budget on one PPSFP table
(:data:`DEFAULT_PPSFP_BYTE_BUDGET`), at which
:func:`repro.gatelevel.dispatch.fault_chunks` cuts a universe.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FaultSimulationError, GenerationError
from repro.uio.search import DEFAULT_NODE_BUDGET

__all__ = [
    "GeneratorConfig",
    "FaultSimConfig",
    "DEFAULT_BATCH_BITS_CAP",
    "DEFAULT_PPSFP_PATTERN_BLOCK",
    "DEFAULT_PPSFP_BYTE_BUDGET",
    "FAULT_SIM_ENGINES",
    "adaptive_batch_bits",
    "table_cell_bytes",
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

#: Budget (bytes) on one PPSFP table, counted as the dense-equivalent
#: table: ``faults x patterns`` cells of :func:`table_cell_bytes` each.  A
#: universe whose dense table would be larger is simulated in fault chunks
#: whose dense tables fit (:func:`repro.gatelevel.dispatch.fault_chunks`).
#: The build keeps only the fault-free cells and each fault's differing
#: 64-pattern words, so a chunk holds far less than this bound.  Purely a
#: memory knob — never affects results.
DEFAULT_PPSFP_BYTE_BUDGET = 128 << 20

#: Recognized fault-simulation engines.
FAULT_SIM_ENGINES = ("auto", "ppsfp", "bigint")


def adaptive_batch_bits(n_faults: int, cap: int | None = None) -> int:
    """Big-int batch width (bits) sized to the universe.

    Small universes get exactly-sized words instead of paying for
    ``cap``-bit arithmetic; universes above the cap are split into balanced
    batches (``ceil(n / ceil(n / cap))``), so e.g. 2049 faults become two
    ~1025-bit batches rather than a 2048-bit word plus a 1-bit straggler.
    """
    if cap is None:
        cap = DEFAULT_BATCH_BITS_CAP
    if cap < 1:
        raise FaultSimulationError("batch bit cap must be >= 1")
    if n_faults <= cap:
        return max(1, n_faults)
    n_batches = -(-n_faults // cap)
    return -(-n_faults // n_batches)


def table_cell_bytes(cell_bits: int) -> int | None:
    """Bytes of the narrowest unsigned integer holding ``cell_bits`` bits.

    A PPSFP table cell packs a next-state code and an output combination
    (``SV + PO`` bits); ``None`` when no integer of at most 64 bits holds
    them, so the PPSFP engine cannot represent the circuit.
    """
    for size in (1, 2, 4, 8):
        if cell_bits <= 8 * size:
            return size
    return None


@dataclass(frozen=True)
class FaultSimConfig:
    """Engine choice of the bit-parallel fault simulators.

    ``engine`` selects the packing axis: ``"ppsfp"`` packs *patterns* 64
    per uint64 lane, builds each fault's complete behavioral table in one
    exhaustive sweep, and replays tests as table lookups; ``"bigint"``
    packs *faults* as bits of one arbitrary-precision word and walks the
    netlist cycle by cycle — the interpreted reference of
    :mod:`repro.gatelevel.fault_sim`.  ``"auto"`` (the default) picks PPSFP
    wherever its tables can represent the circuit
    (:meth:`select_engine`) — the choice only ever affects speed, never
    results.
    """

    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.engine not in FAULT_SIM_ENGINES:
            raise FaultSimulationError(
                f"unknown fault-sim engine {self.engine!r}; "
                f"expected one of {', '.join(FAULT_SIM_ENGINES)}"
            )

    def select_engine(self, *, cell_bits: int) -> str:
        """Resolve ``"auto"`` to a concrete engine for one circuit.

        PPSFP serves every circuit unless no integer of at most 64 bits
        holds a cell (``cell_bits``: state plus output bits); those go to
        the reference.  Forced engines pass through unchanged.
        """
        if self.engine != "auto":
            return self.engine
        return "ppsfp" if table_cell_bytes(cell_bits) is not None else "bigint"


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
