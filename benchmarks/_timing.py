"""The perf benches' timing protocol, and the one entry that runs a bench.

Protocol (``bench_dfe_speed``, ``bench_txchain_speed``,
``bench_obs_overhead``, ``bench_streaming`` and ``bench_fleet_scale``):

* **Identity first.**  A bench asserts that its arms compute the same
  answer before it times anything; that pass doubles as the warm-up.
* **Rounds.**  Every arm runs once per round.  Round ``r`` starts at arm
  ``r mod n`` and runs the rest in cyclic order, so no arm always runs
  first or always after the same neighbour; with two arms they
  alternate.  Machine drift during a run lands on every arm alike.  Each
  bench runs an odd number of rounds, at least five, set by a constant.
* **Per-round ratios.**  A comparison divides one arm's time by another's
  within each round and reports the median and inclusive quartiles of
  those ratios.  Single rounds on a shared host swing by 10% or more;
  the median of same-round ratios does not.  Gates apply to that median.

Entry: :func:`run` is what each bench's pytest test and its ``__main__``
both call.  It measures, stamps the artifact with one machine record,
writes ``benchmarks/results/<table>.txt`` and ``<artifact>.json``,
prints every gate, and raises ``AssertionError`` when one is missed,
which fails the test or makes the script exit with status 1.
"""

from __future__ import annotations

import platform
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from _common import emit, emit_json

PROTOCOL = (
    "one run per arm per round, arm order rotating; "
    "median and inclusive quartiles of per-round ratios"
)


def time_rounds(
    arms: Mapping[str, Callable],
    n_rounds: int,
    prepare: Callable[[str], object] | None = None,
) -> dict[str, list[float]]:
    """Wall seconds of every arm in every round, in arm order.

    With ``prepare``, each run first builds ``prepare(name)`` untimed and
    the arm is timed on it (``arms[name](prepared)``); otherwise the arm is
    called with no argument.
    """
    names = list(arms)
    seconds: dict[str, list[float]] = {name: [] for name in names}
    for r in range(n_rounds):
        shift = r % len(names)
        for name in names[shift:] + names[:shift]:
            args = () if prepare is None else (prepare(name),)
            t0 = time.perf_counter()
            arms[name](*args)
            seconds[name].append(time.perf_counter() - t0)
    return seconds


def summarize(values: Sequence[float]) -> dict:
    """Median, inclusive quartiles and the values themselves, to 3 decimals."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "median": round(median, 3),
        "iqr": [round(q1, 3), round(q3, 3)],
        "rounds": [round(v, 3) for v in values],
    }


def ratio(numerator: Sequence[float], denominator: Sequence[float]) -> dict:
    """:func:`summarize` of the per-round ratios ``numerator / denominator``."""
    return summarize([n / d for n, d in zip(numerator, denominator, strict=True)])


def cell(summary: dict) -> str:
    """A summary as one table cell: ``median [q1, q3]``."""
    q1, q3 = summary["iqr"]
    return f"{summary['median']:g} [{q1:g}, {q3:g}]"


@dataclass(frozen=True)
class Bench:
    """One perf bench: its artifact names and its three steps."""

    artifact: str  # benchmarks/results/<artifact>.json
    table: str  # benchmarks/results/<table>.txt
    measure: Callable[[], dict]
    render: Callable[[dict], str]
    gates: Callable[[dict], dict[str, bool]]  # gate description -> met


def run(bench: Bench) -> dict:
    """Measure ``bench``, write its table and JSON, and check its gates."""
    payload = bench.measure()
    payload["machine"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "processor": platform.machine(),
    }
    payload["gates"] = gates = bench.gates(payload)
    emit(bench.table, bench.render(payload))
    print(f"wrote {emit_json(bench.artifact, payload)}")
    for gate, met in gates.items():
        print(f"{'gate met ' if met else 'GATE MISS'}  {gate}")
    misses = [gate for gate, met in gates.items() if not met]
    if misses:
        raise AssertionError(f"{bench.artifact}: gate missed: " + "; ".join(misses))
    return payload
