"""DFE hot-path throughput: vectorized engine versus the frozen reference.

The committed artifact ``benchmarks/results/BENCH_dfe.json`` records, from
the *same run over the same packet grid* (48 packets x 128 symbols at the
8 Kbps point, K=16, SNRs 30/22/14 dB), the pre-rewrite scalar baseline
(:class:`ReferenceDFEDemodulator`, kept verbatim as the executable spec) and
the vectorized engine in both per-packet and block-batched form.  One run
of an arm decodes the whole grid: a sustained workload, since the
Python-loop-heavy reference profits far more from lucky scheduler phases
in a short burst than the vectorized engine does.

Bit-exactness of both vectorized forms against the reference is asserted
before any timing.  Gates: the block engine is at least 2.5x the
reference, and faster than it.  Timing protocol and gate rules:
``_timing.py``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_dfe_speed.py            # artifact + gates
    PYTHONPATH=src python -m pytest benchmarks/bench_dfe_speed.py  # the same, slow lane
"""

from __future__ import annotations

import statistics

import numpy as np
import pytest

import _timing
from _common import format_table

from repro.channel.awgn import complex_awgn, noise_sigma_for_snr
from repro.modem.config import preset_for_rate
from repro.modem.dfe import DFEDemodulator
from repro.modem.references import ReferenceBank, assemble_waveform
from repro.modem.symbols import PQAMConstellation

from reference.dfe_reference import ReferenceDFEDemodulator

#: Mixed operating SNRs so the grid exercises clean and errorful decodes.
GRID_SNRS_DB = (30.0, 22.0, 14.0)

RATE_BPS = 8000
K_BRANCHES = 16
N_PACKETS = 48
N_SYMBOLS = 128
SEED = 7
N_ROUNDS = 7

#: The block engine must decode at least this many times the reference's rate.
MIN_BLOCK_SPEEDUP = 2.5


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


def run_benchmark() -> dict:
    """Measure all three engines on one grid and return the artifact payload."""
    config = preset_for_rate(RATE_BPS)
    bank = ReferenceBank.nominal(config)
    z_block, zeros = build_grid(config, bank, N_PACKETS, N_SYMBOLS, SEED)
    total = N_PACKETS * N_SYMBOLS
    prime = (zeros, zeros)

    reference = ReferenceDFEDemodulator(bank, k_branches=K_BRANCHES)
    vectorized = DFEDemodulator(bank, k_branches=K_BRANCHES)
    arms = {
        "reference": lambda: [reference.demodulate(z, N_SYMBOLS, prime) for z in z_block],
        "vectorized_single": lambda: [
            vectorized.demodulate(z, N_SYMBOLS, prime) for z in z_block
        ],
        "vectorized_block": lambda: vectorized.demodulate_block(z_block, N_SYMBOLS, prime),
    }

    ref_results = arms["reference"]()
    for arm in ("vectorized_single", "vectorized_block"):
        for p, (r, v) in enumerate(zip(ref_results, arms[arm]())):
            np.testing.assert_array_equal(r.levels_i, v.levels_i, err_msg=f"{arm} {p} levels_i")
            np.testing.assert_array_equal(r.levels_q, v.levels_q, err_msg=f"{arm} {p} levels_q")
            assert r.mse == v.mse, f"{arm} packet {p}: mse {r.mse!r} != {v.mse!r}"

    seconds = _timing.time_rounds(arms, N_ROUNDS)
    rates = {arm: [total / s for s in values] for arm, values in seconds.items()}
    return {
        "benchmark": "dfe_hot_path",
        "operating_point": {
            "rate_bps": float(RATE_BPS),
            "k_branches": K_BRANCHES,
            "n_packets": N_PACKETS,
            "n_symbols_per_packet": N_SYMBOLS,
            "snrs_db": list(GRID_SNRS_DB),
            "seed": SEED,
        },
        "protocol": {"kind": _timing.PROTOCOL, "n_rounds": N_ROUNDS, "bit_exact_checked": True},
        "baseline_reference_sym_per_s": round(statistics.median(rates["reference"]), 1),
        "vectorized_single_sym_per_s": round(statistics.median(rates["vectorized_single"]), 1),
        "vectorized_block_sym_per_s": round(statistics.median(rates["vectorized_block"]), 1),
        "speedup_single_vs_reference": _timing.ratio(
            seconds["reference"], seconds["vectorized_single"]
        ),
        "speedup_block_vs_reference": _timing.ratio(
            seconds["reference"], seconds["vectorized_block"]
        ),
        "rounds_sym_per_s": {arm: [round(r, 1) for r in values] for arm, values in rates.items()},
    }


def gates(payload: dict) -> dict[str, bool]:
    block = payload["speedup_block_vs_reference"]["median"]
    return {
        f"block engine {block}x >= {MIN_BLOCK_SPEEDUP}x the reference": block >= MIN_BLOCK_SPEEDUP,
        f"block engine {block}x > 1x the reference": block > 1.0,
    }


def render(payload: dict) -> str:
    op = payload["operating_point"]
    rows = [
        ("reference (pre-rewrite)", payload["baseline_reference_sym_per_s"], "1"),
        (
            "vectorized, per-packet",
            payload["vectorized_single_sym_per_s"],
            _timing.cell(payload["speedup_single_vs_reference"]),
        ),
        (
            "vectorized, block batch",
            payload["vectorized_block_sym_per_s"],
            _timing.cell(payload["speedup_block_vs_reference"]),
        ),
    ]
    return format_table(
        ["engine", "symbols/s", "speedup median [IQR]"],
        rows,
        title=(
            f"DFE hot path - {op['rate_bps'] / 1000:g} Kbps, K={op['k_branches']}, "
            f"{op['n_packets']}x{op['n_symbols_per_packet']} symbols, "
            f"{payload['protocol']['n_rounds']} rounds, bit-exact vs reference"
        ),
    )


BENCH = _timing.Bench("BENCH_dfe", "BENCH_dfe_table", run_benchmark, render, gates)


@pytest.mark.slow
def test_bench_dfe_speed():
    _timing.run(BENCH)


if __name__ == "__main__":
    _timing.run(BENCH)
