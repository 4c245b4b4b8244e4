"""Frozen mobility-record corpus, shared by the generator and the test.

Each case is one :class:`~repro.experiments.mobility.MobileLinkSimulator`
set-up on the fast operating point: a constant roll drift (0, 10, 25 or
40 deg/s) at a sync interval of 16, 32 or 64 slots, or one trajectory
preset, each with mid-packet re-sync on and off.  A case runs three
packets from one seeded generator.

``make_goldens.py --mobility`` freezes, per packet, the BER and the
equalizer MSE (as ``float.hex``), the CRC verdict, the detection offset and
flag, the decoded payload and a hash of the decided levels.
``test_golden_mobility.py`` replays every case and demands the frozen
records, so any change to the re-sync frame, its transmitter or the
receiver that decodes it shows up here.  No metrics are stored.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

import numpy as np

CONFIG = dict(dsm_order=2, pqam_order=4, slot_s=2.0e-3, fs=10e3, tail_memory=2)
PAYLOAD_BYTES = 24
DISTANCE_M = 2.5
SIM_SEED = 7
PACKET_SEED = 5
N_PACKETS = 3

DRIFT_RATES_DEG_S = (0.0, 10.0, 25.0, 40.0)
SYNC_INTERVALS = (16, 32, 64)


@dataclass(frozen=True)
class MobilityCase:
    name: str
    resync: bool
    sync_interval_slots: int = 32
    drift_deg_s: float | None = None  # constant roll drift; None with a trajectory
    trajectory: str | None = None  # preset name

    @classmethod
    def from_dict(cls, spec: dict) -> "MobilityCase":
        return cls(**spec)

    def to_dict(self) -> dict:
        return asdict(self)


def _corpus() -> list[MobilityCase]:
    from repro.channel.trajectory import trajectory_names

    cases: list[MobilityCase] = []
    for rate in DRIFT_RATES_DEG_S:
        for interval in SYNC_INTERVALS:
            for resync in (True, False):
                cases.append(
                    MobilityCase(
                        f"drift{rate:g}-sync{interval}-{'resync' if resync else 'static'}",
                        resync=resync,
                        sync_interval_slots=interval,
                        drift_deg_s=rate,
                    )
                )
    for name in trajectory_names():
        for resync in (True, False):
            cases.append(
                MobilityCase(
                    f"{name}-{'resync' if resync else 'static'}",
                    resync=resync,
                    trajectory=name,
                )
            )
    return cases


CASES: list[MobilityCase] = _corpus()


def build_simulator(case: MobilityCase):
    from repro.channel.dynamics import ChannelDrift
    from repro.channel.trajectory import named_trajectory
    from repro.experiments.mobility import MobileLinkSimulator
    from repro.modem.config import ModemConfig

    kwargs = {}
    if case.trajectory is not None:
        kwargs["trajectory"] = named_trajectory(case.trajectory)
    else:
        kwargs["distance_m"] = DISTANCE_M
        kwargs["drift"] = ChannelDrift(roll_rate_rad_s=float(np.deg2rad(case.drift_deg_s)))
    return MobileLinkSimulator(
        config=ModemConfig(**CONFIG),
        payload_bytes=PAYLOAD_BYTES,
        sync_interval_slots=case.sync_interval_slots,
        resync=case.resync,
        rng=SIM_SEED,
        **kwargs,
    )


def _levels_digest(out) -> str:
    h = hashlib.sha256()
    for arr in (out.levels_i, out.levels_q):
        arr = np.asarray(arr, dtype=np.int64)
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def run_case(case: MobilityCase) -> list[dict]:
    """One record per packet, in packet order."""
    sim = build_simulator(case)
    outputs = []
    receive = sim.receiver.receive

    def recording_receive(*args, **kwargs):
        outputs.append(receive(*args, **kwargs))
        return outputs[-1]

    sim.receiver.receive = recording_receive
    gen = np.random.default_rng(PACKET_SEED)
    records = []
    for _ in range(N_PACKETS):
        ber, crc_ok = sim.run_packet(rng=gen)
        out = outputs[-1]
        records.append(
            {
                "ber": float(ber).hex(),
                "crc_ok": bool(crc_ok),
                "mse": float(out.equalizer_mse).hex(),
                "offset": int(out.detection.offset),
                "detected": bool(out.detection.detected),
                "payload": out.payload.hex(),
                "levels": _levels_digest(out),
            }
        )
    assert len(outputs) == N_PACKETS
    return records
