"""Observability overhead on the DFE hot path: the < 3% disabled budget.

The observability subsystem's core promise (DESIGN.md §9) is that the
*disabled* path — the default, every constructor resolving ``observer=None``
to the no-op singleton — costs effectively nothing on the hot path.  This
benchmark enforces that promise honestly, as an **in-run A/B on the same
grid**: the same ``DFEDemodulator`` workload decoded with the no-op
observer and with a fully enabled metrics+tracing observer, interleaved
pass-by-pass so both arms see the same thermal/scheduler environment.

Protocol: each round decodes the grid once per arm, and the arm order
rotates from round to round, so no arm always runs first (or right after
another).  Each round yields a ``bare/disabled`` and a ``bare/enabled``
throughput ratio; the gate and the reported overheads are the median
per-round ratios over the rounds, with their quartiles.

Reported numbers:

* ``disabled_sym_per_s`` / ``enabled_sym_per_s`` — block-decode throughput
  with the NULL observer vs a recording :class:`~repro.obs.Observer`;
* ``disabled_overhead_pct`` — disabled-arm cost relative to a demodulator
  built before the observability subsystem could even be attached (the
  constructor simply never mentions ``observer``), which is the exact
  "did merely *having* hooks slow the old code down" question;
* ``null_span_ns`` / ``null_count_ns`` — per-call cost of a disabled
  ``with obs.span(...)`` and ``obs.count(...)``, measured over 100k calls.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py            # artifact
    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py  # slow lane

CI's nightly lane asserts ``disabled_overhead_pct < 3`` and uploads the
JSON artifact next to ``BENCH_dfe.json``.
"""

from __future__ import annotations

import argparse
import platform
import statistics
import time

import numpy as np
import pytest

from _common import emit, emit_json, format_table

from bench_dfe_speed import build_grid
from repro.modem.config import preset_for_rate
from repro.modem.dfe import DFEDemodulator
from repro.modem.references import ReferenceBank
from repro.obs import NULL_OBSERVER, Observer

#: The disabled path must stay within this fraction of baseline throughput.
OVERHEAD_BUDGET_PCT = 3.0


def _rotated_rounds(passes: dict, total_symbols: int, n_rounds: int) -> dict[str, list[float]]:
    """Throughput of every arm in every round; round ``r`` starts at arm
    ``r mod n_arms`` and runs the others in cyclic order."""
    order = list(passes)
    rates: dict[str, list[float]] = {name: [] for name in order}
    for r in range(n_rounds):
        shift = r % len(order)
        for name in order[shift:] + order[:shift]:
            t0 = time.perf_counter()
            passes[name]()
            rates[name].append(total_symbols / (time.perf_counter() - t0))
    return rates


def _quartiles(values) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round((q1 - 1.0) * 100.0, 2), round((q3 - 1.0) * 100.0, 2)]


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


def run_benchmark(
    rate_bps: float = 8000,
    k_branches: int = 16,
    n_packets: int = 48,
    n_symbols: int = 128,
    n_rounds: int = 11,
    seed: int = 7,
) -> dict:
    config = preset_for_rate(rate_bps)
    bank = ReferenceBank.nominal(config)
    z_block, zeros = build_grid(config, bank, n_packets, n_symbols, seed)
    total = n_packets * n_symbols

    bare = DFEDemodulator(bank, k_branches=k_branches)  # observer never mentioned
    disabled = DFEDemodulator(bank, k_branches=k_branches, observer=None)
    enabled_obs = Observer(trace=False)  # metrics only: the sweep configuration
    enabled = DFEDemodulator(bank, k_branches=k_branches, observer=enabled_obs)

    # Warm-up + correctness: all three arms must produce identical levels.
    ref = bare.demodulate_block(z_block, n_symbols, (zeros, zeros))
    for arm_name, arm in (("disabled", disabled), ("enabled", enabled)):
        got = arm.demodulate_block(z_block, n_symbols, (zeros, zeros))
        for p, (r, g) in enumerate(zip(ref, got)):
            np.testing.assert_array_equal(
                r.levels_i, g.levels_i, err_msg=f"{arm_name} packet {p} levels_i"
            )
            np.testing.assert_array_equal(
                r.levels_q, g.levels_q, err_msg=f"{arm_name} packet {p} levels_q"
            )

    rates = _rotated_rounds(
        {
            "bare": lambda: bare.demodulate_block(z_block, n_symbols, (zeros, zeros)),
            "disabled": lambda: disabled.demodulate_block(z_block, n_symbols, (zeros, zeros)),
            "enabled": lambda: enabled.demodulate_block(z_block, n_symbols, (zeros, zeros)),
        },
        total,
        n_rounds,
    )
    ratios = {
        arm: [b / a for b, a in zip(rates["bare"], rates[arm])] for arm in ("disabled", "enabled")
    }
    overhead_pct = (statistics.median(ratios["disabled"]) - 1.0) * 100.0
    enabled_pct = (statistics.median(ratios["enabled"]) - 1.0) * 100.0

    return {
        "benchmark": "obs_overhead",
        "operating_point": {
            "rate_bps": float(rate_bps),
            "k_branches": int(k_branches),
            "n_packets": int(n_packets),
            "n_symbols_per_packet": int(n_symbols),
            "seed": int(seed),
        },
        "protocol": {
            "kind": "rounds in rotating arm order; median per-round ratio to the bare arm",
            "n_rounds": int(n_rounds),
            "bit_exact_checked": True,
            "budget_pct": OVERHEAD_BUDGET_PCT,
        },
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "processor": platform.machine(),
        },
        "bare_sym_per_s": round(statistics.median(rates["bare"]), 1),
        "disabled_sym_per_s": round(statistics.median(rates["disabled"]), 1),
        "enabled_sym_per_s": round(statistics.median(rates["enabled"]), 1),
        "disabled_overhead_pct": round(overhead_pct, 2),
        "enabled_overhead_pct": round(enabled_pct, 2),
        "overhead_pct_iqr": {arm: _quartiles(r) for arm, r in ratios.items()},
        "rounds_sym_per_s": {arm: [round(x, 1) for x in r] for arm, r in rates.items()},
        **_null_hook_costs(),
    }


def render(payload: dict) -> str:
    rows = [
        ("no observer arg", payload["bare_sym_per_s"], 0.0),
        ("observer=None (NULL)", payload["disabled_sym_per_s"], payload["disabled_overhead_pct"]),
        ("enabled (metrics)", payload["enabled_sym_per_s"], payload["enabled_overhead_pct"]),
    ]
    return format_table(
        ["configuration", "symbols/s", "overhead %"],
        rows,
        title=(
            f"observability overhead on the DFE hot path "
            f"(budget {payload['protocol']['budget_pct']:g}% disabled)"
        ),
    )


@pytest.mark.slow
def test_bench_obs_overhead():
    """Slow-lane gate: disabled-mode instrumentation overhead under budget.

    The comparison is in-run (same grid, rotating arm order, median
    per-round ratio), so the assertion is robust to machine speed and
    drift; a small negative overhead just means noise, which the budget
    absorbs.
    """
    payload = run_benchmark()
    emit("BENCH_obs_table", render(payload))
    path = emit_json("BENCH_obs_overhead", payload)
    assert path.exists()
    assert payload["disabled_overhead_pct"] < OVERHEAD_BUDGET_PCT, (
        f"disabled observability costs {payload['disabled_overhead_pct']:.2f}% "
        f"on the DFE hot path (budget {OVERHEAD_BUDGET_PCT}%)"
    )
    # Null hooks must stay sub-microsecond — they sit inside per-packet code.
    assert payload["null_span_ns"] < 5_000
    assert payload["null_count_ns"] < 5_000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rate-bps", type=float, default=8000)
    parser.add_argument("--k-branches", type=int, default=16)
    parser.add_argument("--packets", type=int, default=48)
    parser.add_argument("--symbols", type=int, default=128)
    parser.add_argument("--rounds", type=int, default=11)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    payload = run_benchmark(
        rate_bps=args.rate_bps,
        k_branches=args.k_branches,
        n_packets=args.packets,
        n_symbols=args.symbols,
        n_rounds=args.rounds,
        seed=args.seed,
    )
    emit("BENCH_obs_table", render(payload))
    path = emit_json("BENCH_obs_overhead", payload)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
