"""Shared benchmark plumbing: result emission and table rendering.

Every benchmark prints a paper-versus-measured table and also writes it to
``benchmarks/results/<name>.txt`` so the comparison survives pytest's
output capture.

Importing this module also puts ``tests/`` on ``sys.path``: the frozen
scalar oracles the speed benches time against and assert identity with
live there, as the ``reference`` package.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.experiments.common import format_table

RESULTS_DIR = Path(__file__).parent / "results"

_TESTS_DIR = str(Path(__file__).resolve().parent.parent / "tests")
if _TESTS_DIR not in sys.path:
    sys.path.append(_TESTS_DIR)

__all__ = ["emit", "emit_json", "format_table"]


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


def emit_json(name: str, payload: dict) -> Path:
    """Persist a machine-readable benchmark artifact under benchmarks/results/.

    Used for committed performance records (e.g. ``BENCH_dfe.json``) where a
    rendered table is not enough: the artifact carries both the recorded
    baseline and the fresh measurement so regressions are diffable.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
