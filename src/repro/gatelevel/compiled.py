"""Code-generated fault simulation: one compiled sweep per circuit.

The interpreted simulator in :mod:`repro.gatelevel.fault_sim` walks the gate
list in Python for every clock cycle, which dominates the run time of the
Table 6 experiments.  This module generates straight-line Python source for
one *fixed* fault universe — every injection mask baked in as an integer
literal — compiles it once, and then evaluates a clock cycle with a single
function call.

Key ideas
---------
* One bit per fault, with the whole universe (possibly thousands of faults)
  in a single arbitrary-precision integer word.
* Detection of a fault by a test never depends on which other faults are
  simulated (each bit is its own machine), so effective-test selection can
  simulate the full universe once per test and intersect with the remaining
  set — no per-test re-batching, no recompilation.
* Bridging faults use the same two-pass scheme as the interpreted engine,
  but the bridge adjustment is applied at the *store* of each bridged line:
  pass 1 computes raw values, Python combines them into per-line forced
  words, pass 2 re-evaluates with those words ORed in under the bridge
  masks.  Store-level application is equivalent to read-level application
  because every consumer and the observation see the stored value, and a
  bridged line is never downstream of its own bridge (paper condition 3).

The interpreted engine remains the reference; the test suite asserts that
both produce identical detection masks.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.testset import ScanTest
from repro.errors import FaultSimulationError
from repro.fsm.state_table import StateTable
from repro.gatelevel.fault_sim import Fault, _Batch
from repro.gatelevel.netlist import GateType
from repro.gatelevel.scan import ScanCircuit
from repro.obs.metrics import current_registry
from repro.obs.trace import span as trace_span

__all__ = ["CompiledFaultSimulator"]


class CompiledFaultSimulator:
    """Simulates scan tests against a fixed fault universe, compiled once."""

    def __init__(
        self,
        circuit: ScanCircuit,
        table: StateTable,
        faults: Sequence[Fault],
    ) -> None:
        if not faults:
            raise FaultSimulationError("the fault universe must not be empty")
        self.circuit = circuit
        self.table = table
        self.faults = list(faults)
        self.ones = (1 << len(self.faults)) - 1
        self._batch = _Batch(circuit.netlist, self.faults)
        self._fault_bits = {fault: bit for bit, fault in enumerate(self.faults)}
        #: per bridged line: total bridge mask and the rule list
        self._bridge_lines = sorted(self._batch.bridges)
        with trace_span(
            "faultsim.compile",
            circuit=circuit.name,
            n_faults=len(self.faults),
            n_gates=circuit.netlist.n_gates,
        ):
            self._eff_fn, self._raw_fn = self._compile()
        registry = current_registry()
        if registry is not None:
            registry.counter("faultsim.compiled_universes").add(1)
            registry.counter("faultsim.compiled_faults").add(len(self.faults))

    # -------------------------------------------------------------- codegen

    def _read_expr(self, line: int, reader: int, pin: int) -> str:
        expression = f"v{line}"
        forced = self._batch.pin_force.get((reader, pin))
        if forced:
            ones, zeros = forced
            if ones:
                expression = f"({expression} | {ones})"
            if zeros:
                expression = f"({expression} & {self.ones ^ zeros})"
        return expression

    def _gate_expr(self, gate, masked_not: str) -> str:
        reads = [
            self._read_expr(line, gate.index, pin)
            for pin, line in enumerate(gate.fanins)
        ]
        if gate.kind is GateType.NOT:
            return f"({reads[0]}) ^ {masked_not}"
        operator = " & " if gate.kind is GateType.AND else " | "
        return f"({operator.join(reads)})"

    def _compile(self):
        """Compiled ``(_eff, _raw)`` functions, with source-level caching.

        Generating straight-line source for a big circuit is itself
        noticeable; when an artifact cache is active the generated source
        strings are stored keyed by netlist structure + fault universe, so
        warm runs go straight to ``compile``/``exec``.
        """
        # Lazy import: repro.perf imports this module.
        from repro.perf.artifacts import fault_universe_parts, netlist_parts
        from repro.perf.cache import active_cache, artifact_key

        cache = active_cache()
        key = ""
        sources: tuple[str, str | None] | None = None
        if cache is not None:
            key = artifact_key(
                "simulator-source",
                netlist_parts(self.circuit.netlist),
                fault_universe_parts(self.faults),
            )
            sources = cache.get("simulator-source", key)
        if sources is None:
            sources = self._generate_sources()
            if cache is not None:
                cache.put("simulator-source", key, sources)
        eff_source, raw_source = sources
        namespace: dict[str, object] = {}
        exec(compile(eff_source, "<compiled-fault-sim>", "exec"), namespace)
        eff_fn = namespace["_eff"]
        raw_fn = None
        if raw_source is not None:
            namespace = {}
            exec(compile(raw_source, "<compiled-fault-sim-raw>", "exec"), namespace)
            raw_fn = namespace["_raw"]
        return eff_fn, raw_fn

    def _generate_sources(self) -> tuple[str, str | None]:
        """The ``_eff`` (and, with bridges, ``_raw``) function sources."""
        netlist = self.circuit.netlist
        ones = self.ones
        store = self._batch.store_force
        bridges = self._batch.bridges

        def body_lines(apply_bridges: bool) -> list[str]:
            lines: list[str] = []
            position = 0
            for gate in netlist.gates:
                if gate.kind is GateType.INPUT:
                    expression = f"a[{position}]"
                    position += 1
                elif gate.kind is GateType.CONST0:
                    lines.append(f"    v{gate.index} = 0")
                    continue
                else:
                    expression = self._gate_expr(gate, str(ones))
                forced = store.get(gate.index)
                if forced:
                    so, sz = forced
                    # Parenthesize the whole expression first: NOT gates
                    # generate a trailing `^ mask`, and `&` binds
                    # tighter than `^`, so an unwrapped `... ^ m & z` would
                    # mask the literal instead of the gate value.
                    if so:
                        expression = f"(({expression}) | {so})"
                    if sz:
                        expression = f"(({expression}) & {ones ^ sz})"
                if apply_bridges and gate.index in bridges:
                    total = 0
                    for mask, _partner, _is_and in bridges[gate.index]:
                        total |= mask
                    expression = (
                        f"(({expression}) & {ones ^ total}) | f{gate.index}"
                    )
                lines.append(f"    v{gate.index} = {expression}")
            return lines

        returns = ", ".join(f"v{line}" for line in netlist.outputs)
        source = ["def _eff(a, r):"]
        if self._bridge_lines:
            # Preamble: compute every bridged line's forced word from the
            # raw values tuple ``r`` (one entry per bridged line, in
            # self._bridge_lines order) — no per-cycle Python rule loop.
            raw_index = {line: k for k, line in enumerate(self._bridge_lines)}
            for line in self._bridge_lines:
                terms = []
                for mask, partner, is_and in bridges[line]:
                    operator = "&" if is_and else "|"
                    terms.append(
                        f"((r[{raw_index[line]}] {operator} "
                        f"r[{raw_index[partner]}]) & {mask})"
                    )
                source.append(f"    f{line} = " + " | ".join(terms))
        source += body_lines(apply_bridges=True)
        source.append(f"    return ({returns},)")
        eff_source = "\n".join(source)

        raw_source = None
        if self._bridge_lines:
            raw_returns = ", ".join(f"v{line}" for line in self._bridge_lines)
            source = ["def _raw(a):"]
            source += body_lines(apply_bridges=False)
            source.append(f"    return ({raw_returns},)")
            raw_source = "\n".join(source)
        return eff_source, raw_source

    # ------------------------------------------------------------ execution

    def _cycle(self, input_words: list[int]) -> tuple[int, ...]:
        """Output-line words (netlist.outputs order) for one clock."""
        if self._raw_fn is None:
            return self._eff_fn(input_words, None)
        return self._eff_fn(input_words, self._raw_fn(input_words))

    def detect_mask(self, test: ScanTest) -> int:
        """Bit mask (over the fault universe) of faults ``test`` detects."""
        sv = self.circuit.n_state_variables
        pi = self.circuit.n_primary_inputs
        po = self.circuit.n_primary_outputs
        ones = self.ones
        encode_bits = self.circuit.encoding.encode_bits
        state_words = [
            ones if bit else 0 for bit in encode_bits(test.initial_state)
        ]
        detected = 0
        good_state = test.initial_state
        step = self.table.step
        for combo in test.inputs:
            words = state_words + [
                ones if (combo >> (pi - 1 - j)) & 1 else 0 for j in range(pi)
            ]
            outputs = self._cycle(words)
            good_state, good_out = step(good_state, combo)
            for j in range(po):
                good_bit = ones if (good_out >> (po - 1 - j)) & 1 else 0
                detected |= outputs[sv + j] ^ good_bit
            state_words = list(outputs[:sv])
            if detected == ones:
                return detected
        for j, bit in enumerate(encode_bits(good_state)):
            good_bit = ones if bit else 0
            detected |= state_words[j] ^ good_bit
        return detected & ones

    def detect_masks(self, tests: Sequence[ScanTest]) -> list[int]:
        """Detection masks for many tests (API parity with the PPSFP
        engine, which vectorizes this; here the tests are independent
        big-int runs)."""
        return [self.detect_mask(test) for test in tests]

    def detects(self, test: ScanTest) -> frozenset[Fault]:
        """The set of universe faults ``test`` detects."""
        mask = self.detect_mask(test)
        found = []
        while mask:
            low = (mask & -mask).bit_length() - 1
            found.append(self.faults[low])
            mask &= mask - 1
        registry = current_registry()
        if registry is not None:
            registry.counter("faultsim.compiled_calls").add(1)
            registry.counter("faultsim.compiled_detected").add(len(found))
        return frozenset(found)

    def make_effective_simulator(self):
        """A ``simulate(test, remaining)`` closure for
        :func:`repro.core.compaction.select_effective_tests`.

        Simulates the full compiled universe (detection per fault is
        independent of the batch contents) and intersects with the caller's
        remaining set.
        """

        def simulate(test: ScanTest, remaining: frozenset[Fault]) -> set[Fault]:
            return set(self.detects(test)) & set(remaining)

        return simulate
