"""TX-chain throughput: vectorized LC synthesis + operating-point cache.

The committed artifact ``benchmarks/results/BENCH_txchain.json`` records,
from the *same run over the same frame drives*:

* **Synthesis**: one paper-like frame drive pushed through the frozen
  per-tick reference integrator (:class:`ReferenceLCResponseModel`, the
  executable spec) versus the vectorized two-pass engine
  (:class:`LCResponseModel`) — equivalence asserted in-run to 1e-12
  before any timing.
* **Packet rate**: end-to-end ``PacketSimulator`` packets/second with the
  operating-point artifact cache off versus on, with BER bit-identity of
  the two modes asserted in the same run.

Protocol mirrors ``bench_dfe_speed.py``: sustained passes over the whole
workload, median of ``n_passes`` after a shared warm-up, correctness
asserted on the exact arrays being timed.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_txchain_speed.py            # full artifact
    PYTHONPATH=src python -m pytest benchmarks/bench_txchain_speed.py  # slow-lane smoke
"""

from __future__ import annotations

import argparse
import platform
import statistics
import time

import numpy as np
import pytest

from _common import emit, emit_json, format_table

from repro.channel.link import OpticalLink
from repro.lcm.response import LCParams, LCResponseModel
from repro.modem.config import ModemConfig
from repro.optics.geometry import LinkGeometry
from repro.phy.frame import FrameFormat
from repro.phy.pipeline import PacketSimulator
from repro.phy.transmitter import PhyTransmitter
from repro.utils.opcache import OpCache

from reference.response_reference import ReferenceLCResponseModel

EQUIV_TOL = 1e-12


def build_frame_drive(config: ModemConfig, payload_bytes: int, seed: int):
    """A deterministic full-frame per-pixel drive at the paper's default point."""
    from repro.lcm.array import LCMArray
    from repro.modem.dsm_pqam import DsmPqamModulator

    array = LCMArray.build(
        groups_per_channel=config.dsm_order,
        levels_per_group=config.levels_per_axis,
    )
    frame = FrameFormat(config, payload_bytes=payload_bytes)
    modulator = DsmPqamModulator(config, array)
    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 256, size=payload_bytes, dtype=np.uint8).tobytes()
    levels_i, levels_q = frame.frame_levels(payload)
    drive = modulator.drive_for_levels(levels_i, levels_q)
    return drive, frame


def _timed_passes(fn, n_passes: int) -> tuple[float, list[float]]:
    """Median seconds per call over ``n_passes`` calls."""
    times = []
    for _ in range(n_passes):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def bench_synthesis(config: ModemConfig, payload_bytes: int, n_passes: int, seed: int) -> dict:
    """Frame-drive synthesis: vectorized engine vs the frozen reference."""
    drive, frame = build_frame_drive(config, payload_bytes, seed)
    params = LCParams()
    vec = LCResponseModel(params)
    ref = ReferenceLCResponseModel(params)
    rng = np.random.default_rng(seed + 1)
    scale = 0.9 + 0.2 * rng.random(drive.shape[0])

    # Equivalence gate first — a speedup over different answers is noise.
    got = vec.simulate(drive, config.slot_s, config.fs, time_scale=scale)
    want = ref.simulate(drive, config.slot_s, config.fs, time_scale=scale)
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    assert err <= EQUIV_TOL, f"vectorized engine diverged from reference: {err}"

    ref_s, ref_raw = _timed_passes(
        lambda: ref.simulate(drive, config.slot_s, config.fs, time_scale=scale), n_passes
    )
    vec_s, vec_raw = _timed_passes(
        lambda: vec.simulate(drive, config.slot_s, config.fs, time_scale=scale), n_passes
    )
    return {
        "n_pixels": int(drive.shape[0]),
        "n_slots": int(drive.shape[1]),
        "frame_samples": int(frame.total_slots * config.samples_per_slot),
        "max_abs_error": err,
        "reference_ms_per_frame": round(ref_s * 1e3, 3),
        "vectorized_ms_per_frame": round(vec_s * 1e3, 3),
        "speedup": round(ref_s / vec_s, 2),
        "passes_ms": {
            "reference": [round(t * 1e3, 3) for t in ref_raw],
            "vectorized": [round(t * 1e3, 3) for t in vec_raw],
        },
    }


def bench_packet_rate(payload_bytes: int, n_packets: int, n_passes: int, seed: int) -> dict:
    """End-to-end packets/s with the operating-point cache off vs on."""
    def make(opcache):
        return PacketSimulator(
            link=OpticalLink(geometry=LinkGeometry(distance_m=2.0)),
            payload_bytes=payload_bytes,
            bank_mode="trained",
            rng=seed,
            opcache=opcache,
        )

    # BER bit-identity gate: cache on and off must agree exactly.
    base = make(False).measure_ber(n_packets=n_packets, rng=seed + 1)
    cache = OpCache()
    make(cache).measure_ber(n_packets=n_packets, rng=seed + 1)  # warm the cache
    cached = make(cache).measure_ber(n_packets=n_packets, rng=seed + 1)
    assert base.ber == cached.ber and base.n_bit_errors == cached.n_bit_errors, (
        f"opcache changed results: {base.ber} vs {cached.ber}"
    )

    off_s, off_raw = _timed_passes(
        lambda: make(False).measure_ber(n_packets=n_packets, rng=seed + 1), n_passes
    )
    on_s, on_raw = _timed_passes(
        lambda: make(cache).measure_ber(n_packets=n_packets, rng=seed + 1), n_passes
    )
    return {
        "n_packets": int(n_packets),
        "ber": float(base.ber),
        "bit_identical": True,
        "cache_off_pkt_per_s": round(n_packets / off_s, 2),
        "cache_on_pkt_per_s": round(n_packets / on_s, 2),
        "speedup": round(off_s / on_s, 2),
        "passes_s": {
            "cache_off": [round(t, 3) for t in off_raw],
            "cache_on": [round(t, 3) for t in on_raw],
        },
    }


def run_benchmark(
    payload_bytes: int = 128,
    n_packets: int = 6,
    n_passes: int = 5,
    seed: int = 7,
) -> dict:
    config = ModemConfig()
    synthesis = bench_synthesis(config, payload_bytes, n_passes, seed)
    packet = bench_packet_rate(32, n_packets, max(2, n_passes - 2), seed)
    return {
        "benchmark": "txchain_synthesis_and_opcache",
        "operating_point": {
            "rate_bps": float(config.rate_bps),
            "payload_bytes": int(payload_bytes),
            "seed": int(seed),
        },
        "protocol": {
            "kind": "sustained full-frame synthesis, median of passes",
            "n_passes": int(n_passes),
            "equivalence_tol": EQUIV_TOL,
            "equivalence_checked": True,
            "ber_bit_identity_checked": True,
        },
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "processor": platform.machine(),
        },
        "synthesis": synthesis,
        "packet_rate": packet,
    }


def render(payload: dict) -> str:
    syn = payload["synthesis"]
    pkt = payload["packet_rate"]
    rows = [
        ("LC synthesis, reference (ms/frame)", syn["reference_ms_per_frame"], 1.0),
        ("LC synthesis, vectorized (ms/frame)", syn["vectorized_ms_per_frame"], syn["speedup"]),
        ("packet rate, cache off (pkt/s)", pkt["cache_off_pkt_per_s"], 1.0),
        ("packet rate, cache on (pkt/s)", pkt["cache_on_pkt_per_s"], pkt["speedup"]),
    ]
    return format_table(
        ["stage", "value", "speedup"],
        rows,
        title=(
            f"TX chain - {syn['n_pixels']} pixels, {syn['n_slots']} slots "
            f"({syn['frame_samples']} samples/frame), equivalence <= "
            f"{payload['protocol']['equivalence_tol']:g}"
        ),
    )


@pytest.mark.slow
def test_bench_txchain_speed():
    """Slow-lane smoke: regenerate BENCH_txchain.json and gate the ratio.

    The floor is deliberately below the committed ~4-5x synthesis figure:
    shared CI runners have wild run-to-run variance, and the committed
    artifact (generated on a quiet machine) is the recorded claim.
    """
    payload = run_benchmark(n_passes=3)
    emit("BENCH_txchain_table", render(payload))
    path = emit_json("BENCH_txchain", payload)
    assert path.exists()
    assert payload["synthesis"]["max_abs_error"] <= EQUIV_TOL
    assert payload["synthesis"]["speedup"] >= 2.0
    assert payload["packet_rate"]["bit_identical"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--payload-bytes", type=int, default=128)
    parser.add_argument("--packets", type=int, default=6)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="fail (exit 1) when the synthesis speedup lands below this",
    )
    args = parser.parse_args(argv)
    payload = run_benchmark(
        payload_bytes=args.payload_bytes,
        n_packets=args.packets,
        n_passes=args.passes,
        seed=args.seed,
    )
    emit("BENCH_txchain_table", render(payload))
    path = emit_json("BENCH_txchain", payload)
    print(f"wrote {path}")
    if payload["synthesis"]["speedup"] < args.min_speedup:
        print(
            f"FAIL: synthesis speedup {payload['synthesis']['speedup']}x "
            f"below required {args.min_speedup}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
