#!/usr/bin/env python
"""Measure serial vs parallel sweep times (BENCH_perf.json).

Usage:  python scripts/bench_perf.py [--quick] [--jobs N] [--circuits a,b,c]
                                     [-o PATH]

Thin wrapper over :mod:`repro.perf.bench` so the perf trajectory can be
recorded without installing the package (``src/`` is added to the path when
``repro`` is not importable).  Exits non-zero if the parallel run diverges
from the serial results — never because of timing.
"""

from __future__ import annotations

import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.perf.bench import main

if __name__ == "__main__":
    sys.exit(main())
