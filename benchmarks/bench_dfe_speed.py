"""DFE hot-path throughput: vectorized engine versus the frozen reference.

The committed artifact ``benchmarks/results/BENCH_dfe.json`` records, from
the *same run over the same packet grid*, the pre-rewrite scalar baseline
(:class:`ReferenceDFEDemodulator`, kept verbatim as the executable spec) and
the vectorized engine in both per-packet and block-batched form.  Committing
both numbers makes the speedup claim self-contained and diffable.

Protocol (chosen deliberately — see DESIGN.md):

* **Sustained workload**: one pass decodes the whole grid; throughput is
  total symbols over wall-clock for the pass.  Burst/best-of timing is
  avoided because the Python-loop-heavy reference profits far more from
  lucky scheduler/CPU phases than the vectorized engine does.
* **Median of passes**: each engine runs ``n_passes`` full passes after a
  shared warm-up; the median pass throughput is reported.
* **Bit-exactness is asserted in the same run** — a speedup over an engine
  producing different answers would be meaningless.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_dfe_speed.py            # full artifact
    PYTHONPATH=src python -m pytest benchmarks/bench_dfe_speed.py  # slow-lane smoke
"""

from __future__ import annotations

import argparse
import platform
import statistics
import time

import numpy as np
import pytest

from _common import emit, emit_json, format_table

from repro.channel.awgn import complex_awgn, noise_sigma_for_snr
from repro.modem.config import preset_for_rate
from repro.modem.dfe import DFEDemodulator
from repro.modem.references import ReferenceBank, assemble_waveform
from repro.modem.symbols import PQAMConstellation

from reference.dfe_reference import ReferenceDFEDemodulator

#: Mixed operating SNRs so the grid exercises clean and errorful decodes.
GRID_SNRS_DB = (30.0, 22.0, 14.0)


def build_grid(config, bank, n_packets: int, n_symbols: int, seed: int):
    """A deterministic packet grid: (B, S) waveform block + priming levels."""
    constellation = PQAMConstellation(config.pqam_order)
    prime_n = config.tail_memory * config.dsm_order
    zeros = np.zeros(prime_n, dtype=int)
    rng = np.random.default_rng(seed)
    rows = []
    for p in range(n_packets):
        tx_i, tx_q = constellation.random_levels(n_symbols, rng)
        wave = assemble_waveform(
            bank, np.concatenate([zeros, tx_i]), np.concatenate([zeros, tx_q])
        )
        sigma = noise_sigma_for_snr(1.0, GRID_SNRS_DB[p % len(GRID_SNRS_DB)])
        noisy = wave + complex_awgn(wave.size, sigma, rng)
        rows.append(noisy[prime_n * config.samples_per_slot :])
    return np.stack(rows), zeros


def _timed_passes(decode_pass, n_symbols_total: int, n_passes: int) -> tuple[float, list[float]]:
    """Median symbols/sec over ``n_passes`` full-grid passes."""
    rates = []
    for _ in range(n_passes):
        t0 = time.perf_counter()
        decode_pass()
        rates.append(n_symbols_total / (time.perf_counter() - t0))
    return statistics.median(rates), rates


def run_benchmark(
    rate_bps: float = 8000,
    k_branches: int = 16,
    n_packets: int = 48,
    n_symbols: int = 128,
    n_passes: int = 3,
    seed: int = 7,
) -> dict:
    """Measure all three engines on one grid and return the artifact payload."""
    config = preset_for_rate(rate_bps)
    bank = ReferenceBank.nominal(config)
    z_block, zeros = build_grid(config, bank, n_packets, n_symbols, seed)
    total = n_packets * n_symbols

    reference = ReferenceDFEDemodulator(bank, k_branches=k_branches)
    vectorized = DFEDemodulator(bank, k_branches=k_branches)

    # Correctness first (doubles as warm-up for every engine).
    ref_results = [reference.demodulate(z, n_symbols, (zeros, zeros)) for z in z_block]
    blk_results = vectorized.demodulate_block(z_block, n_symbols, (zeros, zeros))
    for p, (r, b) in enumerate(zip(ref_results, blk_results)):
        np.testing.assert_array_equal(r.levels_i, b.levels_i, err_msg=f"packet {p} levels_i")
        np.testing.assert_array_equal(r.levels_q, b.levels_q, err_msg=f"packet {p} levels_q")
        assert r.mse == b.mse, f"packet {p}: mse {r.mse!r} != {b.mse!r}"

    ref_sps, ref_raw = _timed_passes(
        lambda: [reference.demodulate(z, n_symbols, (zeros, zeros)) for z in z_block],
        total,
        n_passes,
    )
    single_sps, single_raw = _timed_passes(
        lambda: [vectorized.demodulate(z, n_symbols, (zeros, zeros)) for z in z_block],
        total,
        n_passes,
    )
    block_sps, block_raw = _timed_passes(
        lambda: vectorized.demodulate_block(z_block, n_symbols, (zeros, zeros)),
        total,
        n_passes,
    )

    return {
        "benchmark": "dfe_hot_path",
        "operating_point": {
            "rate_bps": float(rate_bps),
            "k_branches": int(k_branches),
            "n_packets": int(n_packets),
            "n_symbols_per_packet": int(n_symbols),
            "snrs_db": list(GRID_SNRS_DB),
            "seed": int(seed),
        },
        "protocol": {
            "kind": "sustained single-pass grid decode, median of passes",
            "n_passes": int(n_passes),
            "bit_exact_checked": True,
        },
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "processor": platform.machine(),
        },
        "baseline_reference_sym_per_s": round(ref_sps, 1),
        "vectorized_single_sym_per_s": round(single_sps, 1),
        "vectorized_block_sym_per_s": round(block_sps, 1),
        "speedup_single_vs_reference": round(single_sps / ref_sps, 2),
        "speedup_block_vs_reference": round(block_sps / ref_sps, 2),
        "passes_sym_per_s": {
            "reference": [round(r, 1) for r in ref_raw],
            "vectorized_single": [round(r, 1) for r in single_raw],
            "vectorized_block": [round(r, 1) for r in block_raw],
        },
    }


def render(payload: dict) -> str:
    op = payload["operating_point"]
    rows = [
        ("reference (pre-rewrite)", payload["baseline_reference_sym_per_s"], 1.0),
        (
            "vectorized, per-packet",
            payload["vectorized_single_sym_per_s"],
            payload["speedup_single_vs_reference"],
        ),
        (
            "vectorized, block batch",
            payload["vectorized_block_sym_per_s"],
            payload["speedup_block_vs_reference"],
        ),
    ]
    return format_table(
        ["engine", "symbols/s", "speedup"],
        rows,
        title=(
            f"DFE hot path - {op['rate_bps'] / 1000:g} Kbps, K={op['k_branches']}, "
            f"{op['n_packets']}x{op['n_symbols_per_packet']} symbols"
        ),
    )


@pytest.mark.slow
def test_bench_dfe_speed():
    """Slow-lane smoke: regenerate BENCH_dfe.json and sanity-check the ratio.

    The assertion floor is deliberately below the committed ~5-6x figure:
    shared CI runners have wild run-to-run variance, and the committed
    artifact (generated on a quiet machine) is the recorded claim.
    """
    payload = run_benchmark()
    emit("BENCH_dfe_table", render(payload))
    path = emit_json("BENCH_dfe", payload)
    assert path.exists()
    assert payload["speedup_block_vs_reference"] >= 2.5
    assert payload["vectorized_block_sym_per_s"] > payload["baseline_reference_sym_per_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rate-bps", type=float, default=8000)
    parser.add_argument("--k-branches", type=int, default=16)
    parser.add_argument("--packets", type=int, default=48)
    parser.add_argument("--symbols", type=int, default=128)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    payload = run_benchmark(
        rate_bps=args.rate_bps,
        k_branches=args.k_branches,
        n_packets=args.packets,
        n_symbols=args.symbols,
        n_passes=args.passes,
        seed=args.seed,
    )
    emit("BENCH_dfe_table", render(payload))
    path = emit_json("BENCH_dfe", payload)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
