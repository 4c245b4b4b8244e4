"""Observability overhead on the DFE hot path: the < 3% disabled budget.

The observability subsystem's core promise (DESIGN.md §9) is that the
*disabled* path — the default, every constructor resolving ``observer=None``
to the no-op singleton — costs effectively nothing on the hot path.  This
benchmark enforces that promise as an in-run A/B on the same grid as
``bench_dfe_speed`` (48 packets x 128 symbols at 8 Kbps, K=16): the same
``DFEDemodulator`` block decode with the no-op observer, with a
metrics-only :class:`~repro.obs.Observer`, and built before the
observability subsystem could even be attached (the constructor simply
never mentions ``observer``: the "did merely *having* hooks slow the old
code down" baseline).  All three arms must decode identical levels before
any timing.

Reported numbers:

* ``disabled_overhead_pct`` / ``enabled_overhead_pct`` — per-round time of
  the NULL-observer and metrics arms relative to the bare arm, in percent;
* ``null_span_ns`` / ``null_count_ns`` — per-call cost of a disabled
  ``with obs.span(...)`` and ``obs.count(...)``, measured over 100k calls.

Gates: the disabled arm costs under 3% more than the bare arm, and each
null hook under 5 µs.  Timing protocol and gate rules: ``_timing.py``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py            # artifact + gates
    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py  # the same, slow lane
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

import _timing
from _common import format_table

from bench_dfe_speed import K_BRANCHES, N_PACKETS, N_SYMBOLS, RATE_BPS, SEED, build_grid
from repro.modem.config import preset_for_rate
from repro.modem.dfe import DFEDemodulator
from repro.modem.references import ReferenceBank
from repro.obs import NULL_OBSERVER, Observer

N_ROUNDS = 11

#: The disabled path must stay within this many percent of the bare arm's time.
OVERHEAD_BUDGET_PCT = 3.0

#: Each null hook must cost less than this per call: they sit in per-packet code.
NULL_HOOK_BUDGET_NS = 5_000


def _null_hook_costs(n_calls: int = 100_000) -> dict[str, float]:
    """Per-call nanosecond cost of disabled span/count hooks."""
    obs = NULL_OBSERVER

    t0 = time.perf_counter()
    for _ in range(n_calls):
        with obs.span("equalize"):
            pass
    span_ns = (time.perf_counter() - t0) / n_calls * 1e9

    t0 = time.perf_counter()
    for _ in range(n_calls):
        obs.count("phy.packets_total")
    count_ns = (time.perf_counter() - t0) / n_calls * 1e9
    return {"null_span_ns": round(span_ns, 1), "null_count_ns": round(count_ns, 1)}


def run_benchmark() -> dict:
    config = preset_for_rate(RATE_BPS)
    bank = ReferenceBank.nominal(config)
    z_block, zeros = build_grid(config, bank, N_PACKETS, N_SYMBOLS, SEED)
    total = N_PACKETS * N_SYMBOLS

    demodulators = {
        "bare": DFEDemodulator(bank, k_branches=K_BRANCHES),  # observer never mentioned
        "disabled": DFEDemodulator(bank, k_branches=K_BRANCHES, observer=None),
        # Metrics only: the sweep configuration.
        "enabled": DFEDemodulator(bank, k_branches=K_BRANCHES, observer=Observer(trace=False)),
    }
    arms = {
        arm: lambda dfe=dfe: dfe.demodulate_block(z_block, N_SYMBOLS, (zeros, zeros))
        for arm, dfe in demodulators.items()
    }

    ref = arms["bare"]()
    for arm_name in ("disabled", "enabled"):
        for p, (r, g) in enumerate(zip(ref, arms[arm_name]())):
            np.testing.assert_array_equal(
                r.levels_i, g.levels_i, err_msg=f"{arm_name} packet {p} levels_i"
            )
            np.testing.assert_array_equal(
                r.levels_q, g.levels_q, err_msg=f"{arm_name} packet {p} levels_q"
            )

    seconds = _timing.time_rounds(arms, N_ROUNDS)
    overhead = {
        arm: _timing.summarize(
            [(t / b - 1.0) * 100.0 for t, b in zip(seconds[arm], seconds["bare"])]
        )
        for arm in ("disabled", "enabled")
    }
    return {
        "benchmark": "obs_overhead",
        "operating_point": {
            "rate_bps": float(RATE_BPS),
            "k_branches": K_BRANCHES,
            "n_packets": N_PACKETS,
            "n_symbols_per_packet": N_SYMBOLS,
            "seed": SEED,
        },
        "protocol": {
            "kind": _timing.PROTOCOL,
            "n_rounds": N_ROUNDS,
            "bit_exact_checked": True,
            "budget_pct": OVERHEAD_BUDGET_PCT,
        },
        **{
            f"{arm}_sym_per_s": round(total / statistics.median(ts), 1)
            for arm, ts in seconds.items()
        },
        "disabled_overhead_pct": overhead["disabled"],
        "enabled_overhead_pct": overhead["enabled"],
        "rounds_sym_per_s": {
            arm: [round(total / t, 1) for t in ts] for arm, ts in seconds.items()
        },
        **_null_hook_costs(),
    }


def gates(payload: dict) -> dict[str, bool]:
    disabled = payload["disabled_overhead_pct"]["median"]
    span, count = payload["null_span_ns"], payload["null_count_ns"]
    return {
        f"disabled observer costs {disabled}% < {OVERHEAD_BUDGET_PCT:g}%": disabled
        < OVERHEAD_BUDGET_PCT,
        f"null span {span} ns < {NULL_HOOK_BUDGET_NS} ns": span < NULL_HOOK_BUDGET_NS,
        f"null count {count} ns < {NULL_HOOK_BUDGET_NS} ns": count < NULL_HOOK_BUDGET_NS,
    }


def render(payload: dict) -> str:
    rows = [
        ("no observer arg", payload["bare_sym_per_s"], "0"),
        (
            "observer=None (NULL)",
            payload["disabled_sym_per_s"],
            _timing.cell(payload["disabled_overhead_pct"]),
        ),
        (
            "enabled (metrics)",
            payload["enabled_sym_per_s"],
            _timing.cell(payload["enabled_overhead_pct"]),
        ),
    ]
    return format_table(
        ["configuration", "symbols/s", "overhead % median [IQR]"],
        rows,
        title=(
            f"observability overhead on the DFE hot path - "
            f"{payload['protocol']['n_rounds']} rounds "
            f"(budget {payload['protocol']['budget_pct']:g}% disabled)"
        ),
    )


BENCH = _timing.Bench("BENCH_obs_overhead", "BENCH_obs_table", run_benchmark, render, gates)


@pytest.mark.slow
def test_bench_obs_overhead():
    _timing.run(BENCH)


if __name__ == "__main__":
    _timing.run(BENCH)
