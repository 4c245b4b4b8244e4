"""Streaming receiver throughput versus the one-shot batch receiver.

The committed artifact ``benchmarks/results/BENCH_streaming.json`` records,
from the *same run over the same capture grid*, the batch receiver's
sustained packet rate and the streaming receiver's rate at several chunk
sizes.  The streaming path exists for incremental ingest, not speed — but it
must not tax the pipeline either: the gate is that streaming at **every**
measured chunk size sustains at least **0.9x** of batch throughput.

Protocol:

* **Sustained workload**: one pass decodes every capture in the grid;
  throughput is packets over wall-clock for the pass.
* **Interleaved rounds**: each round runs one batch pass and one pass per
  chunk size, round-robin, in an order that alternates between rounds, so
  machine drift during the run lands on every engine alike instead of
  reading as a chunk-size effect.
* **Per-round ratios**: each streaming pass is divided by the batch pass of
  its own round; the gate and the reported figure are the median ratio over
  rounds (single rounds swing by ~10%), with its quartiles.
* **Bit-exactness is asserted in the same run** — every streamed record must
  equal the batch record field-for-field before any timing is trusted.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_streaming.py            # full artifact + gate
    PYTHONPATH=src python -m pytest benchmarks/bench_streaming.py  # slow-lane smoke
"""

from __future__ import annotations

import argparse
import platform
import statistics
import time

import numpy as np
import pytest

from _common import emit, emit_json, format_table

from repro.modem.config import ModemConfig
from repro.phy.pipeline import PacketSimulator
from repro.phy.streaming import StreamingReceiver

#: Chunk sizes measured each round; every one is gated.
CHUNK_SIZES = (256, 1024, 4096)

#: Floor on the median per-round streaming/batch throughput ratio.
MIN_RELATIVE_THROUGHPUT = 0.9


def build_grid(n_packets: int, seed: int):
    """Deterministic captures from one trained simulator."""
    config = ModemConfig(dsm_order=2, pqam_order=4, slot_s=2.0e-3, fs=10e3, tail_memory=2)
    sim = PacketSimulator(config=config, payload_bytes=6, rng=seed)
    gen = np.random.default_rng(seed + 1)
    captures = [sim.make_capture(rng=gen) for _ in range(n_packets)]
    return sim, captures


def batch_pass(sim, captures):
    return [
        sim.receiver.receive(cap.samples, search_stop=cap.search_stop)
        for cap in captures
    ]


def streaming_pass(sim, captures, chunk: int):
    outs = []
    for cap in captures:
        rx = StreamingReceiver(sim.receiver, search_stop=cap.search_stop)
        for lo in range(0, cap.samples.size, chunk):
            outs.extend(rx.push(cap.samples[lo : lo + chunk]))
        outs.extend(rx.close())
    return outs


def assert_bit_identical(batch_outs, stream_outs, chunk: int) -> None:
    assert len(batch_outs) == len(stream_outs)
    for p, (b, s) in enumerate(zip(batch_outs, stream_outs)):
        tag = f"chunk={chunk} packet={p}"
        assert b.payload == s.payload, tag
        assert b.crc_ok == s.crc_ok, tag
        assert b.equalizer_mse == s.equalizer_mse, tag
        assert b.detection.offset == s.detection.offset, tag
        np.testing.assert_array_equal(b.levels_i, s.levels_i, err_msg=tag)
        np.testing.assert_array_equal(b.levels_q, s.levels_q, err_msg=tag)


def _quartiles(values) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 3), round(q3, 3)]


def run_benchmark(n_packets: int = 48, n_rounds: int = 9, seed: int = 13) -> dict:
    sim, captures = build_grid(n_packets, seed)
    total_samples = int(sum(cap.samples.size for cap in captures))

    # Correctness first (doubles as warm-up for both engines).
    batch_outs = batch_pass(sim, captures)
    for chunk in CHUNK_SIZES:
        assert_bit_identical(batch_outs, streaming_pass(sim, captures, chunk), chunk)

    engines = {"batch": lambda: batch_pass(sim, captures)}
    for chunk in CHUNK_SIZES:
        engines[f"streaming_{chunk}"] = lambda chunk=chunk: streaming_pass(sim, captures, chunk)
    order = list(engines)
    rates: dict[str, list[float]] = {name: [] for name in engines}
    for r in range(n_rounds):
        for name in order if r % 2 == 0 else order[::-1]:
            t0 = time.perf_counter()
            engines[name]()
            rates[name].append(n_packets / (time.perf_counter() - t0))
    ratios = {
        chunk: [s / b for s, b in zip(rates[f"streaming_{chunk}"], rates["batch"])]
        for chunk in CHUNK_SIZES
    }

    return {
        "benchmark": "streaming_receiver",
        "operating_point": {
            "n_packets": int(n_packets),
            "payload_bytes": 6,
            "total_samples": total_samples,
            "chunk_sizes": list(CHUNK_SIZES),
            "gated_chunks": list(CHUNK_SIZES),
            "seed": int(seed),
        },
        "protocol": {
            "kind": "interleaved rounds in alternating order; median per-round ratio to batch",
            "n_rounds": int(n_rounds),
            "bit_exact_checked": True,
            "min_relative_throughput": MIN_RELATIVE_THROUGHPUT,
        },
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "processor": platform.machine(),
        },
        "batch_pkt_per_s": round(statistics.median(rates["batch"]), 2),
        "streaming_pkt_per_s": {
            str(chunk): round(statistics.median(rates[f"streaming_{chunk}"]), 2)
            for chunk in CHUNK_SIZES
        },
        "relative_throughput": {
            str(chunk): round(statistics.median(r), 3) for chunk, r in ratios.items()
        },
        "relative_throughput_quartiles": {
            str(chunk): _quartiles(r) for chunk, r in ratios.items()
        },
        "round_ratios": {
            str(chunk): [round(x, 3) for x in r] for chunk, r in ratios.items()
        },
        "rounds_pkt_per_s": {
            name: [round(x, 2) for x in values] for name, values in rates.items()
        },
    }


def gate_failures(payload: dict) -> dict[str, float]:
    """Chunk sizes whose median per-round ratio is below the floor."""
    return {
        chunk: ratio
        for chunk, ratio in payload["relative_throughput"].items()
        if ratio < MIN_RELATIVE_THROUGHPUT
    }


def render(payload: dict) -> str:
    op = payload["operating_point"]
    rows = [("batch (one-shot)", payload["batch_pkt_per_s"], 1.0, "-")]
    for chunk in op["chunk_sizes"]:
        q1, q3 = payload["relative_throughput_quartiles"][str(chunk)]
        rows.append(
            (
                f"streaming, chunk={chunk}",
                payload["streaming_pkt_per_s"][str(chunk)],
                payload["relative_throughput"][str(chunk)],
                f"[{q1}, {q3}]",
            )
        )
    return format_table(
        ["engine", "packets/s", "vs batch", "ratio IQR"],
        rows,
        title=(
            f"Streaming receiver - {op['n_packets']} captures, "
            f"{op['total_samples']} samples, {payload['protocol']['n_rounds']} "
            "interleaved rounds, bit-exact vs batch"
        ),
    )


@pytest.mark.slow
def test_bench_streaming():
    """Slow-lane smoke: regenerate BENCH_streaming.json and gate throughput.

    Bit-identity is asserted inside :func:`run_benchmark` for every chunk
    size before any rate is recorded; the gate then demands every chunk
    size's median per-round ratio stays within 10% of batch throughput.
    """
    payload = run_benchmark()
    emit("BENCH_streaming_table", render(payload))
    path = emit_json("BENCH_streaming", payload)
    assert path.exists()
    assert not gate_failures(payload), (
        f"streaming fell below {MIN_RELATIVE_THROUGHPUT}x batch: "
        f"{payload['relative_throughput']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--packets", type=int, default=48)
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args(argv)
    payload = run_benchmark(n_packets=args.packets, n_rounds=args.rounds, seed=args.seed)
    emit("BENCH_streaming_table", render(payload))
    path = emit_json("BENCH_streaming", payload)
    print(f"wrote {path}")
    failures = gate_failures(payload)
    if failures:
        print(f"gate FAILED: below {MIN_RELATIVE_THROUGHPUT}x batch at {failures}")
        return 1
    print(f"gate passed: every chunk size >= {MIN_RELATIVE_THROUGHPUT}x batch")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
