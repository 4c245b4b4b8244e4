"""Streaming receiver throughput versus the one-shot batch receiver.

The committed artifact ``benchmarks/results/BENCH_streaming.json`` records,
from the *same run over the same capture grid* (48 fast-config captures of
6-byte packets), the batch receiver's sustained packet rate and the
streaming receiver's rate at chunk sizes 256, 1024 and 4096 samples.  One
run of an arm decodes every capture in the grid.  The streaming path
exists for incremental ingest, not speed, but it must not tax the pipeline
either.

Every streamed record must equal the batch record field-for-field, at
every chunk size, before any timing.  Gate: streaming at **every** chunk
size sustains at least **0.9x** the batch packet rate.  Timing protocol
and gate rules: ``_timing.py``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_streaming.py            # artifact + gates
    PYTHONPATH=src python -m pytest benchmarks/bench_streaming.py  # the same, slow lane
"""

from __future__ import annotations

import statistics

import numpy as np
import pytest

import _timing
from _common import format_table

from repro.modem.config import ModemConfig
from repro.phy.pipeline import PacketSimulator
from repro.phy.streaming import StreamingReceiver

#: Chunk sizes measured each round; every one is gated.
CHUNK_SIZES = (256, 1024, 4096)

#: Floor on the median per-round streaming/batch throughput ratio.
MIN_RELATIVE_THROUGHPUT = 0.9

N_PACKETS = 48
SEED = 13
N_ROUNDS = 9


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


def run_benchmark() -> dict:
    sim, captures = build_grid(N_PACKETS, SEED)
    total_samples = int(sum(cap.samples.size for cap in captures))

    arms = {"batch": lambda: batch_pass(sim, captures)}
    for chunk in CHUNK_SIZES:
        arms[f"streaming_{chunk}"] = lambda chunk=chunk: streaming_pass(sim, captures, chunk)

    batch_outs = arms["batch"]()
    for chunk in CHUNK_SIZES:
        assert_bit_identical(batch_outs, arms[f"streaming_{chunk}"](), chunk)

    seconds = _timing.time_rounds(arms, N_ROUNDS)
    return {
        "benchmark": "streaming_receiver",
        "operating_point": {
            "n_packets": N_PACKETS,
            "payload_bytes": 6,
            "total_samples": total_samples,
            "chunk_sizes": list(CHUNK_SIZES),
            "seed": SEED,
        },
        "protocol": {
            "kind": _timing.PROTOCOL,
            "n_rounds": N_ROUNDS,
            "bit_exact_checked": True,
            "min_relative_throughput": MIN_RELATIVE_THROUGHPUT,
        },
        "batch_pkt_per_s": round(N_PACKETS / statistics.median(seconds["batch"]), 2),
        "streaming_pkt_per_s": {
            str(chunk): round(N_PACKETS / statistics.median(seconds[f"streaming_{chunk}"]), 2)
            for chunk in CHUNK_SIZES
        },
        "relative_throughput": {
            str(chunk): _timing.ratio(seconds["batch"], seconds[f"streaming_{chunk}"])
            for chunk in CHUNK_SIZES
        },
        "rounds_pkt_per_s": {
            arm: [round(N_PACKETS / t, 2) for t in ts] for arm, ts in seconds.items()
        },
    }


def gates(payload: dict) -> dict[str, bool]:
    floor = MIN_RELATIVE_THROUGHPUT
    return {
        f"streaming chunk={chunk} {rel['median']}x >= {floor}x batch": rel["median"] >= floor
        for chunk, rel in payload["relative_throughput"].items()
    }


def render(payload: dict) -> str:
    op = payload["operating_point"]
    rows = [("batch (one-shot)", payload["batch_pkt_per_s"], "1")]
    for chunk in op["chunk_sizes"]:
        rows.append(
            (
                f"streaming, chunk={chunk}",
                payload["streaming_pkt_per_s"][str(chunk)],
                _timing.cell(payload["relative_throughput"][str(chunk)]),
            )
        )
    return format_table(
        ["engine", "packets/s", "vs batch median [IQR]"],
        rows,
        title=(
            f"Streaming receiver - {op['n_packets']} captures, "
            f"{op['total_samples']} samples, {payload['protocol']['n_rounds']} "
            "rounds, bit-exact vs batch"
        ),
    )


BENCH = _timing.Bench("BENCH_streaming", "BENCH_streaming_table", run_benchmark, render, gates)


@pytest.mark.slow
def test_bench_streaming():
    _timing.run(BENCH)


if __name__ == "__main__":
    _timing.run(BENCH)
