#!/usr/bin/env python
"""Validate ``repro-fsatpg analyze --format json`` payloads.

Usage:  python scripts/validate_sca.py FILE [FILE ...]

Each file must be a ``repro-fsatpg-sca/1`` document.  Beyond schema shape,
the script enforces the *proof discipline* the subsystem promises:

* every reported constant net is backed by a derivation step concluding
  exactly that (no unproved constants — the CI analyze-smoke job fails
  otherwise);
* every derivation step names a rule the certificate verifier replays;
* every certificate names a known reason and is internally consistent;
* the collapse block is arithmetically coherent (representatives <= faults,
  ratio = faults / representatives);
* untestable fault counts never exceed the universe.

Problems are reported one per line; any problem makes the exit code 1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SCHEMA = "repro-fsatpg-sca/1"
REASONS = {"unactivatable", "masked-pin", "unobservable"}
RULES = {"const-gate", "controlling-fanin", "all-fanins-known"}
REQUIRED = (
    "schema",
    "netlist",
    "regions",
    "collapse",
    "constants",
    "constant_steps",
    "unobservable",
    "certificates",
    "untestable",
)


def check_payload(payload: dict) -> list[str]:
    problems: list[str] = []
    for key in REQUIRED:
        if key not in payload:
            problems.append(f"missing top-level key {key!r}")
    if problems:
        return problems
    if payload["schema"] != SCHEMA:
        problems.append(
            f"schema is {payload['schema']!r}, expected {SCHEMA!r}"
        )

    netlist = payload["netlist"]
    n_gates = netlist.get("gates", 0)
    if not isinstance(n_gates, int) or n_gates <= 0:
        problems.append(f"netlist.gates = {n_gates!r} is not a positive int")

    collapse = payload["collapse"]
    faults = collapse.get("faults", 0)
    representatives = collapse.get("representatives", 0)
    ratio = collapse.get("ratio", 0.0)
    if representatives > faults:
        problems.append(
            f"collapse has more representatives ({representatives}) than "
            f"faults ({faults})"
        )
    if representatives:
        expected = faults / representatives
        if abs(ratio - expected) > 0.001:
            problems.append(
                f"collapse ratio {ratio} does not match "
                f"faults/representatives = {expected:.4f}"
            )

    # The core guarantee: no constant net without a machine-checkable proof.
    proved = {
        step.get("line"): step.get("value")
        for step in payload["constant_steps"]
    }
    for index, step in enumerate(payload["constant_steps"]):
        rule = step.get("rule")
        if rule not in RULES:
            problems.append(
                f"constant step {index}: unknown derivation rule {rule!r}"
            )
    for entry in payload["constants"]:
        line, value = entry.get("line"), entry.get("value")
        if value not in (0, 1):
            problems.append(f"constant net {line} has non-bit value {value!r}")
        if proved.get(line) != value:
            problems.append(
                f"constant net {line}={value} has no derivation step proving "
                "it (unproved constant)"
            )
        if not isinstance(line, int) or not 0 <= line < n_gates:
            problems.append(f"constant net {line!r} is out of range")

    for entry in payload["unobservable"]:
        line = entry.get("line")
        if not isinstance(line, int) or not 0 <= line < n_gates:
            problems.append(f"unobservable net {line!r} is out of range")
        for block in entry.get("blocks", ()):
            if (
                not isinstance(block, list)
                or len(block) != 2
                or not all(isinstance(part, int) for part in block)
            ):
                problems.append(
                    f"unobservable net {line}: malformed block {block!r}"
                )

    for index, certificate in enumerate(payload["certificates"]):
        reason = certificate.get("reason")
        if reason not in REASONS:
            problems.append(
                f"certificate {index}: unknown reason {reason!r}"
            )
        fault = certificate.get("fault", {})
        gate = fault.get("gate")
        if not isinstance(gate, int) or not 0 <= gate < n_gates:
            problems.append(
                f"certificate {index}: fault gate {gate!r} is out of range"
            )
        if fault.get("value") not in (0, 1):
            problems.append(
                f"certificate {index}: stuck value {fault.get('value')!r} "
                "is not a bit"
            )
        if reason == "unactivatable" and certificate.get("line") is None:
            problems.append(
                f"certificate {index}: unactivatable proof names no line"
            )
        if reason == "masked-pin" and len(certificate.get("blocks", [])) != 1:
            problems.append(
                f"certificate {index}: masked-pin proof must name exactly "
                "one masking pin"
            )

    untestable = payload["untestable"]
    if untestable.get("representatives", 0) > representatives:
        problems.append("more untestable representatives than representatives")
    if untestable.get("faults", 0) > faults:
        problems.append("more untestable faults than faults")
    if untestable.get("representatives", 0) != len(payload["certificates"]):
        problems.append(
            f"untestable.representatives = {untestable.get('representatives')}"
            f" but {len(payload['certificates'])} certificate(s) present"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    arguments = argv if argv is not None else sys.argv[1:]
    if not arguments:
        print(__doc__, file=sys.stderr)
        return 2
    status = 0
    for argument in arguments:
        path = Path(argument)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: unreadable: {exc}", file=sys.stderr)
            status = 1
            continue
        problems = check_payload(payload)
        if problems:
            status = 1
            for problem in problems:
                print(f"{path}: {problem}", file=sys.stderr)
        else:
            circuit = payload.get("circuit", "?")
            print(
                f"{path}: OK ({circuit}: {payload['collapse']['faults']} "
                f"faults, ratio {payload['collapse']['ratio']}, "
                f"{len(payload['certificates'])} certificate(s))"
            )
    return status


if __name__ == "__main__":
    sys.exit(main())
