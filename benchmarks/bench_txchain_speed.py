"""TX-chain throughput: vectorized LC synthesis + operating-point cache.

The committed artifact ``benchmarks/results/BENCH_txchain.json`` records,
from the *same run over the same frame drives*:

* **Synthesis**: one paper-like frame drive (128-byte payload at the
  default 8 Kbps point) pushed through the frozen per-tick reference
  integrator (:class:`ReferenceLCResponseModel`, the executable spec)
  versus the vectorized two-pass engine (:class:`LCResponseModel`).
* **Packet rate**: end-to-end ``PacketSimulator.measure_ber`` over 6
  trained-mode 32-byte packets with the operating-point artifact cache off
  versus on; the cache-off arm builds its simulator inside the timed call,
  as every uncached run does.

Equivalence to 1e-12 and BER bit-identity of the two cache modes are
asserted before any timing.  Gates: synthesis at least 2x the reference,
max error at most 1e-12, cached packets bit-identical to uncached.  Timing
protocol and gate rules: ``_timing.py``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_txchain_speed.py            # artifact + gates
    PYTHONPATH=src python -m pytest benchmarks/bench_txchain_speed.py  # the same, slow lane
"""

from __future__ import annotations

import statistics

import numpy as np
import pytest

import _timing
from _common import format_table

from repro.channel.link import OpticalLink
from repro.lcm.response import LCParams, LCResponseModel
from repro.modem.config import ModemConfig
from repro.optics.geometry import LinkGeometry
from repro.phy.frame import FrameFormat
from repro.phy.pipeline import PacketSimulator
from repro.utils.opcache import OpCache

from reference.response_reference import ReferenceLCResponseModel

EQUIV_TOL = 1e-12

PAYLOAD_BYTES = 128
PACKET_PAYLOAD_BYTES = 32
N_PACKETS = 6
SEED = 7
N_ROUNDS = 11

#: Vectorized synthesis must run at least this many times the reference's rate.
MIN_SYNTHESIS_SPEEDUP = 2.0


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


def bench_synthesis(config: ModemConfig) -> dict:
    """Frame-drive synthesis: vectorized engine vs the frozen reference."""
    drive, frame = build_frame_drive(config, PAYLOAD_BYTES, SEED)
    params = LCParams()
    vec = LCResponseModel(params)
    ref = ReferenceLCResponseModel(params)
    rng = np.random.default_rng(SEED + 1)
    scale = 0.9 + 0.2 * rng.random(drive.shape[0])
    arms = {
        "reference": lambda: ref.simulate(drive, config.slot_s, config.fs, time_scale=scale),
        "vectorized": lambda: vec.simulate(drive, config.slot_s, config.fs, time_scale=scale),
    }

    got, want = arms["vectorized"](), arms["reference"]()
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    assert err <= EQUIV_TOL, f"vectorized engine diverged from reference: {err}"

    seconds = _timing.time_rounds(arms, N_ROUNDS)
    return {
        "n_pixels": int(drive.shape[0]),
        "n_slots": int(drive.shape[1]),
        "frame_samples": int(frame.total_slots * config.samples_per_slot),
        "max_abs_error": err,
        "reference_ms_per_frame": round(statistics.median(seconds["reference"]) * 1e3, 3),
        "vectorized_ms_per_frame": round(statistics.median(seconds["vectorized"]) * 1e3, 3),
        "speedup": _timing.ratio(seconds["reference"], seconds["vectorized"]),
        "rounds_ms": {arm: [round(t * 1e3, 3) for t in ts] for arm, ts in seconds.items()},
    }


def bench_packet_rate() -> dict:
    """End-to-end packets/s with the operating-point cache off vs on."""
    def make(opcache):
        return PacketSimulator(
            link=OpticalLink(geometry=LinkGeometry(distance_m=2.0)),
            payload_bytes=PACKET_PAYLOAD_BYTES,
            bank_mode="trained",
            rng=SEED,
            opcache=opcache,
        )

    cache = OpCache()
    arms = {
        "cache_off": lambda: make(False).measure_ber(n_packets=N_PACKETS, rng=SEED + 1),
        "cache_on": lambda: make(cache).measure_ber(n_packets=N_PACKETS, rng=SEED + 1),
    }

    base = arms["cache_off"]()
    arms["cache_on"]()  # warm the cache
    cached = arms["cache_on"]()
    assert base.ber == cached.ber and base.n_bit_errors == cached.n_bit_errors, (
        f"opcache changed results: {base.ber} vs {cached.ber}"
    )

    seconds = _timing.time_rounds(arms, N_ROUNDS)
    return {
        "n_packets": N_PACKETS,
        "ber": float(base.ber),
        "bit_identical": True,
        "cache_off_pkt_per_s": round(N_PACKETS / statistics.median(seconds["cache_off"]), 2),
        "cache_on_pkt_per_s": round(N_PACKETS / statistics.median(seconds["cache_on"]), 2),
        "speedup": _timing.ratio(seconds["cache_off"], seconds["cache_on"]),
        "rounds_s": {arm: [round(t, 3) for t in ts] for arm, ts in seconds.items()},
    }


def run_benchmark() -> dict:
    config = ModemConfig()
    return {
        "benchmark": "txchain_synthesis_and_opcache",
        "operating_point": {
            "rate_bps": float(config.rate_bps),
            "payload_bytes": PAYLOAD_BYTES,
            "seed": SEED,
        },
        "protocol": {
            "kind": _timing.PROTOCOL,
            "n_rounds": N_ROUNDS,
            "equivalence_tol": EQUIV_TOL,
            "equivalence_checked": True,
            "ber_bit_identity_checked": True,
        },
        "synthesis": bench_synthesis(config),
        "packet_rate": bench_packet_rate(),
    }


def gates(payload: dict) -> dict[str, bool]:
    speedup = payload["synthesis"]["speedup"]["median"]
    error = payload["synthesis"]["max_abs_error"]
    return {
        f"synthesis {speedup}x >= {MIN_SYNTHESIS_SPEEDUP}x the reference": speedup
        >= MIN_SYNTHESIS_SPEEDUP,
        f"synthesis max error {error:g} <= {EQUIV_TOL:g}": error <= EQUIV_TOL,
        "cached packet rate bit-identical to uncached": payload["packet_rate"]["bit_identical"],
    }


def render(payload: dict) -> str:
    syn = payload["synthesis"]
    pkt = payload["packet_rate"]
    rows = [
        ("LC synthesis, reference (ms/frame)", syn["reference_ms_per_frame"], "1"),
        (
            "LC synthesis, vectorized (ms/frame)",
            syn["vectorized_ms_per_frame"],
            _timing.cell(syn["speedup"]),
        ),
        ("packet rate, cache off (pkt/s)", pkt["cache_off_pkt_per_s"], "1"),
        ("packet rate, cache on (pkt/s)", pkt["cache_on_pkt_per_s"], _timing.cell(pkt["speedup"])),
    ]
    return format_table(
        ["stage", "value", "speedup median [IQR]"],
        rows,
        title=(
            f"TX chain - {syn['n_pixels']} pixels, {syn['n_slots']} slots "
            f"({syn['frame_samples']} samples/frame), {payload['protocol']['n_rounds']} "
            f"rounds, equivalence <= {payload['protocol']['equivalence_tol']:g}"
        ),
    )


BENCH = _timing.Bench("BENCH_txchain", "BENCH_txchain_table", run_benchmark, render, gates)


@pytest.mark.slow
def test_bench_txchain_speed():
    _timing.run(BENCH)


if __name__ == "__main__":
    _timing.run(BENCH)
