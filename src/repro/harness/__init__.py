"""Experiment harness: regenerates every table of the paper's evaluation.

:class:`~repro.harness.experiments.CircuitStudy` lazily computes and caches
everything one circuit needs (UIO table, generated tests, synthesized scan
circuit, fault universes) and holds its grades — detectability splits and
effective-test selections — which the sweep engine
(:mod:`repro.perf.engine`) writes into it; the ``tableN`` functions
assemble the paper's tables from studies and :mod:`repro.harness.tables`
renders them as text.
"""

from repro.harness.experiments import (
    CircuitStudy,
    StudyOptions,
    get_study,
    render,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
)
from repro.harness.tables import format_table

__all__ = [
    "CircuitStudy",
    "StudyOptions",
    "format_table",
    "get_study",
    "render",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
]
