"""Mid-packet re-synchronization (the §8 mobility proposal)."""

import numpy as np
import pytest

from repro.channel.dynamics import ChannelDrift
from repro.experiments.mobility import MobileLinkSimulator
from repro.lcm.heterogeneity import HeterogeneityModel
from repro.modem.config import ModemConfig
from repro.modem.dfe import DFEDemodulator
from repro.modem.preamble import RotationCorrector
from repro.phy.frame import FrameFormat
from repro.phy.pipeline import PacketSimulator
from repro.phy.receiver import PhyReceiver
from repro.phy.resync import ResyncFrameFormat

FAST = ModemConfig(dsm_order=2, pqam_order=4, slot_s=2.0e-3, fs=10e3)


class TestFrameLayout:
    @pytest.fixture(scope="class")
    def frame(self):
        return ResyncFrameFormat(FAST, payload_bytes=16, sync_interval_slots=16)

    def test_sync_sections_counted(self, frame):
        blocks = frame.block_slot_counts()
        assert sum(blocks) == frame.payload_slots
        assert frame.n_sync_sections == len(blocks) - 1

    def test_sections_multiple_of_l(self, frame):
        assert frame.sync_interval_slots % FAST.dsm_order == 0
        assert frame.sync_slots % FAST.dsm_order == 0

    def test_sync_covers_priming(self, frame):
        assert frame.sync_slots >= FAST.tail_memory * FAST.dsm_order

    def test_total_slots_includes_syncs(self, frame):
        base = (
            frame.guard_slots
            + frame.preamble_slots
            + frame.training.n_slots
            + frame.payload_slots
        )
        assert frame.total_slots == base + frame.n_sync_sections * frame.sync_slots

    def test_frame_levels_embed_sync(self, frame):
        li, lq = frame.frame_levels(bytes(16))
        assert li.size == frame.total_slots
        # The transmitter's cached path sends the prefix, then the body.
        body_i, _ = frame.body_levels(bytes(16))
        np.testing.assert_array_equal(li, np.concatenate([frame.prefix_levels()[0], body_i]))
        # First sync section sits right after the first block.
        start = frame.payload_start_slot + frame.block_slot_counts()[0]
        sync_i, _ = frame.sync_levels
        np.testing.assert_array_equal(li[start : start + frame.sync_slots], sync_i)


class TestMobileLink:
    def test_static_channel_clean(self):
        sim = MobileLinkSimulator(
            config=FAST,
            distance_m=2.0,
            payload_bytes=12,
            sync_interval_slots=8,
            heterogeneity=HeterogeneityModel.ideal(),
            rng=1,
        )
        ber, crc_ok = sim.run_packet(rng=2)
        assert ber == 0.0
        assert crc_ok

    def test_resync_beats_static_estimate_under_drift(self):
        """The whole point: drift breaks the head-of-packet estimate."""
        drift = ChannelDrift(roll_rate_rad_s=float(np.deg2rad(25.0)))
        results = {}
        for resync in (True, False):
            sim = MobileLinkSimulator(
                distance_m=3.0,
                drift=drift,
                payload_bytes=48,
                sync_interval_slots=32,
                resync=resync,
                rng=7,
            )
            results[resync] = sim.measure_ber(n_packets=2, rng=5)
        assert results[True] < results[False]

    def test_mild_drift_fully_recovered(self):
        drift = ChannelDrift(roll_rate_rad_s=float(np.deg2rad(10.0)))
        sim = MobileLinkSimulator(
            distance_m=3.0,
            drift=drift,
            payload_bytes=48,
            sync_interval_slots=32,
            resync=True,
            rng=7,
        )
        assert sim.measure_ber(n_packets=2, rng=6) < 0.01


def _count_calls(monkeypatch) -> dict[str, int]:
    """Count the stage entry points a packet calls."""
    counts: dict[str, int] = {}
    for cls, name in [
        (PacketSimulator, "make_capture"),
        (PhyReceiver, "receive"),
        (RotationCorrector, "apply"),
        (DFEDemodulator, "demodulate"),
        (FrameFormat, "decode_payload"),
    ]:
        key = f"{cls.__name__}.{name}"
        counts[key] = 0

        def counted(*args, _original=getattr(cls, name), _key=key, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    return counts


class TestOneReceiver:
    def test_plain_frame_packet_calls_each_stage_once(self, monkeypatch):
        """A one-block frame makes the calls it made before the re-sync
        frame shared the stage sequence."""
        sim = PacketSimulator(config=FAST, payload_bytes=8, rng=7)
        counts = _count_calls(monkeypatch)
        sim.measure_ber(n_packets=1, rng=1)
        assert counts == {
            "PacketSimulator.make_capture": 1,
            "PhyReceiver.receive": 1,
            # The detector's SNR estimate, then the rotation stage.
            "RotationCorrector.apply": 2,
            "DFEDemodulator.demodulate": 1,
            "FrameFormat.decode_payload": 1,
        }

    @pytest.mark.parametrize("resync", [True, False])
    def test_resync_frame_decodes_block_by_block(self, monkeypatch, resync):
        sim = MobileLinkSimulator(
            config=FAST, payload_bytes=12, sync_interval_slots=16, resync=resync, rng=1
        )
        assert isinstance(sim.receiver, PhyReceiver)
        n_blocks = len(sim.frame.block_slot_counts())
        assert n_blocks > 1
        counts = _count_calls(monkeypatch)
        sim.run_packet(rng=2)
        assert counts["PhyReceiver.receive"] == 1
        assert counts["DFEDemodulator.demodulate"] == n_blocks
        assert counts["FrameFormat.decode_payload"] == 1
        # Detection and the rotation stage, then one per re-fitted block.
        assert counts["RotationCorrector.apply"] == (n_blocks + 1 if resync else 2)
