"""Mobility-support study: channel drift versus mid-packet re-sync.

Implements the evaluation for the paper's §8 proposal: under a rolling /
range-changing tag, a single head-of-packet channel estimate goes stale
before the packet ends; sync sections (:mod:`repro.phy.resync`) and the
receiver's block-wise corrector re-fitting restore reliability up to much
higher mobility levels.

:class:`MobileLinkSimulator` stays its own harness rather than a
:class:`~repro.phy.pipeline.PacketSimulator` set-up: it re-poses the link
before each packet, sends the frame with no drawn lead-in offset, scores an
undetected packet by its decoded bytes and draws no yaw gains at build.
Folding it in would shift every noise draw and move the frozen
``sweep_trajectory`` journal.  Its receiver is the one
:class:`~repro.phy.receiver.PhyReceiver`, unhardened, so mobility packets
get the same stage spans, classified failures and streaming as every other
packet.
"""

from __future__ import annotations

import numpy as np

from repro.channel.dynamics import ChannelDrift
from repro.channel.link import OpticalLink
from repro.channel.trajectory import Trajectory
from repro.experiments.common import SweepPoint
from repro.lcm.array import LCMArray
from repro.lcm.heterogeneity import HeterogeneityModel
from repro.modem.config import ModemConfig
from repro.modem.dsm_pqam import DsmPqamModulator
from repro.obs import ensure_observer
from repro.optics.geometry import LinkGeometry
from repro.phy.receiver import PhyReceiver
from repro.phy.resync import ResyncFrameFormat
from repro.phy.transmitter import PhyTransmitter
from repro.training.offline import OfflineTrainer
from repro.utils.bits import bit_errors, bytes_to_bits
from repro.utils.rng import ensure_rng

__all__ = ["MobileLinkSimulator", "mobility_resync_sweep"]


class MobileLinkSimulator:
    """Tag + drifting link + block-resync reader (the §8 proposal)."""

    def __init__(
        self,
        config: ModemConfig | None = None,
        distance_m: float = 3.0,
        drift: ChannelDrift | None = None,
        payload_bytes: int = 48,
        sync_interval_slots: int = 64,
        resync: bool = True,
        heterogeneity: HeterogeneityModel | None = None,
        n_bases: int = 2,
        k_branches: int = 16,
        trajectory: Trajectory | None = None,
        packet_interval_s: float = 0.0,
        rng=None,
        observer=None,
    ):
        if trajectory is not None and drift is not None:
            raise ValueError("pass either drift= or trajectory=, not both")
        if packet_interval_s < 0:
            raise ValueError(f"packet_interval_s must be >= 0, got {packet_interval_s}")
        gen = ensure_rng(rng)
        self._obs = ensure_observer(observer)
        self.config = config or ModemConfig()
        self.trajectory = trajectory
        self.packet_interval_s = float(packet_interval_s)
        self.t_s = 0.0
        if trajectory is not None:
            geometry = trajectory.pose(0.0)
            link_drift: ChannelDrift | object = trajectory.window_drift(0.0)
        else:
            geometry = LinkGeometry(distance_m=distance_m)
            link_drift = drift or ChannelDrift()
        self.link = OpticalLink(geometry=geometry, drift=link_drift)
        het = heterogeneity if heterogeneity is not None else HeterogeneityModel()
        self.array = LCMArray.build(
            self.config.dsm_order,
            self.config.levels_per_axis,
            heterogeneity=het,
            rng=gen,
        )
        self.frame = ResyncFrameFormat(
            self.config,
            payload_bytes=payload_bytes,
            sync_interval_slots=sync_interval_slots,
        )
        self.transmitter = PhyTransmitter(self.frame, self.array)
        offline = OfflineTrainer(self.config)
        tables = offline.collect_condition_tables()
        bases, _ = offline.extract_bases(tables, n_bases=n_bases)
        self.receiver = PhyReceiver(
            self.frame,
            basis_tables=bases,
            k_branches=k_branches,
            hardened=False,
            observer=self._obs,
            resync=resync,
        )
        nominal = LCMArray.build(self.config.dsm_order, self.config.levels_per_axis)
        self.frame.preamble.record_reference(DsmPqamModulator(self.config, nominal))

    def run_packet(self, payload: bytes | None = None, rng=None) -> tuple[float, bool]:
        """One packet; returns (BER, crc_ok)."""
        obs = self._obs
        gen = ensure_rng(rng)
        if payload is None:
            payload = gen.integers(0, 256, self.frame.payload_bytes, dtype=np.uint8).tobytes()
        with obs.span("packet", harness="mobility") as span:
            if self.trajectory is not None:
                pose = self.trajectory.pose(self.t_s)
                self.link.geometry = pose
                self.link.drift = self.trajectory.window_drift(self.t_s)
                if obs.enabled:
                    obs.gauge("trajectory.time_s", self.t_s)
                    obs.gauge("trajectory.distance_m", pose.distance_m)
                    obs.gauge("trajectory.gain", float(self.trajectory.gain(self.t_s)[0]))
                    obs.count("trajectory.packets_total", in_fov="yes" if pose.in_fov else "no")
            with obs.span("transmit"):
                u = self.transmitter.transmit(payload)
            ts = self.config.samples_per_slot
            tail = np.full(2 * ts, u[-1], dtype=complex)
            with obs.span("channel"):
                out = self.link.transmit(np.concatenate([u, tail]), self.config.fs, gen)
            if self.trajectory is not None:
                self.t_s += (u.size + tail.size) / self.config.fs + self.packet_interval_s
            with obs.span("receive"):
                rx = self.receiver.receive(
                    out.samples, search_stop=(self.frame.guard_slots + 2) * ts
                )
            sent = bytes_to_bits(payload)
            got = bytes_to_bits(rx.payload.ljust(len(payload), b"\0")[: len(payload)])
            ber = bit_errors(sent, got) / sent.size
            if obs.enabled:
                obs.count("phy.packets_total", crc="ok" if rx.crc_ok else "fail")
                obs.count("phy.bits_total", sent.size)
                obs.observe("phy.packet_ber", ber)
                span.annotate(crc_ok=rx.crc_ok, ber=ber)
        return ber, rx.crc_ok

    def measure_ber(self, n_packets: int = 4, rng=None) -> float:
        """Mean BER over packets."""
        gen = ensure_rng(rng)
        return float(np.mean([self.run_packet(rng=gen)[0] for _ in range(n_packets)]))


def mobility_resync_sweep(
    roll_rates_deg_s: list[float] | None = None,
    distance_m: float = 3.0,
    n_packets: int = 3,
    payload_bytes: int = 48,
    sync_interval_slots: int = 32,
    rng=61,
) -> dict[str, list[SweepPoint]]:
    """BER vs roll drift rate, with and without mid-packet re-sync."""
    roll_rates_deg_s = roll_rates_deg_s or [0.0, 10.0, 20.0, 40.0]
    gen = ensure_rng(rng)
    out: dict[str, list[SweepPoint]] = {"resync": [], "static_estimate": []}
    for rate in roll_rates_deg_s:
        drift = ChannelDrift(roll_rate_rad_s=float(np.deg2rad(rate)))
        for label, resync in (("resync", True), ("static_estimate", False)):
            sim = MobileLinkSimulator(
                distance_m=distance_m,
                drift=drift,
                payload_bytes=payload_bytes,
                sync_interval_slots=sync_interval_slots,
                resync=resync,
                rng=7,
            )
            ber = sim.measure_ber(n_packets=n_packets, rng=gen)
            out[label].append(SweepPoint(x=rate, ber=ber))
    return out
