"""Operating-point cache through the pipeline: bit-identity and safety.

The acceptance contract of the artifact cache: ``measure_ber`` (and any
``BatchRunner`` sweep over it) produces *bit-identical* results with the
cache enabled or disabled, the transmit waveform of the cached prefix-split
path equals the one-shot path exactly, and a fault-plan hardware mutation
can never be served pre-fault artifacts (the stale-bank trap).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.link import OpticalLink
from repro.experiments.batch import BatchRunner, GridTask
from repro.faults.injectors import PixelDropout
from repro.faults.plan import FaultPlan
from repro.lcm.array import LCMArray
from repro.modem.config import ModemConfig
from repro.obs import Observer, use_observer
from repro.optics.geometry import LinkGeometry
from repro.phy.pipeline import PacketSimulator
from repro.phy.resync import ResyncFrameFormat
from repro.phy.transmitter import PhyTransmitter
from repro.utils.opcache import OpCache, fingerprint_array

FAST = ModemConfig(dsm_order=2, pqam_order=4, slot_s=2.0e-3, fs=10e3)


def make_sim(distance_m=2.0, **kwargs) -> PacketSimulator:
    defaults = dict(
        config=FAST,
        link=OpticalLink(geometry=LinkGeometry(distance_m=distance_m)),
        payload_bytes=8,
        rng=7,
    )
    defaults.update(kwargs)
    return PacketSimulator(**defaults)


def _ber_cell(task, rng):
    """Module-level so ``BatchRunner`` can pickle it into pool workers."""
    sim = PacketSimulator(
        config=FAST,
        link=OpticalLink(geometry=LinkGeometry(distance_m=task.x)),
        payload_bytes=8,
        bank_mode="nominal",
        rng=rng,
        opcache=task.scheme == "cached",
    )
    m = sim.measure_ber(n_packets=2, rng=rng)
    return {"ber": m.ber, "errs": m.n_bit_errors}


class TestBitIdentity:
    @pytest.mark.parametrize("bank_mode", ["trained", "nominal", "genie"])
    def test_measure_ber_identical_cached_vs_uncached(self, bank_mode):
        a = make_sim(bank_mode=bank_mode, opcache=False).measure_ber(n_packets=3, rng=11)
        cache = OpCache()
        b = make_sim(bank_mode=bank_mode, opcache=cache).measure_ber(n_packets=3, rng=11)
        c = make_sim(bank_mode=bank_mode, opcache=cache).measure_ber(n_packets=3, rng=11)
        assert cache.hits > 0  # the third run reused the second's artifacts
        assert a.ber == b.ber == c.ber
        assert a.n_bit_errors == b.n_bit_errors == c.n_bit_errors
        assert a.mean_snr_est_db == b.mean_snr_est_db == c.mean_snr_est_db

    def test_transmit_waveform_bitwise_equal(self):
        payload = bytes(range(8))
        uncached = make_sim(opcache=False)
        cached = make_sim(opcache=OpCache())
        for roll in (0.0, 0.37, -1.2):
            wu = uncached.transmitter.transmit(payload, roll_rad=roll)
            wc1 = cached.transmitter.transmit(payload, roll_rad=roll)  # builds
            wc2 = cached.transmitter.transmit(payload, roll_rad=roll)  # replays
            assert np.array_equal(wu, wc1)
            assert np.array_equal(wc1, wc2)

    def test_resync_frame_transmit_bitwise_equal(self):
        """The cached path sends the whole body after the prefix, sync
        sections included, not just the encoded payload."""
        config = ModemConfig()
        frame = ResyncFrameFormat(config, payload_bytes=48, sync_interval_slots=32)
        array = LCMArray.build(config.dsm_order, config.levels_per_axis)
        payload = bytes(range(48))
        uncached = PhyTransmitter(frame, array).transmit(payload, roll_rad=0.37)
        cached = PhyTransmitter(frame, array, opcache=OpCache())
        assert frame.n_sync_sections > 0
        assert uncached.size == frame.total_slots * config.samples_per_slot
        for _ in range(2):  # builds, then replays the prefix
            assert np.array_equal(cached.transmit(payload, roll_rad=0.37), uncached)

    def test_batchrunner_serial_pool_cached_identical(self):
        def strip(rows):
            return [{k: v for k, v in r.items() if k != "scheme"} for r in rows]

        tasks_c = [GridTask(scheme="cached", x=d) for d in (2.0, 4.0)]
        tasks_u = [GridTask(scheme="plain", x=d) for d in (2.0, 4.0)]
        serial = BatchRunner(_ber_cell, n_workers=1, root_seed=5).run(tasks_c)
        pooled = BatchRunner(_ber_cell, n_workers=2, root_seed=5).run(tasks_c)
        plain = BatchRunner(_ber_cell, n_workers=1, root_seed=5).run(tasks_u)
        assert serial == pooled
        assert strip(serial) == strip(plain)


class TestMetricsAndInvalidation:
    def test_cache_metrics_visible_by_kind(self):
        obs = Observer()
        cache = OpCache()
        with use_observer(obs):
            make_sim(opcache=cache)
            make_sim(opcache=cache)  # same operating point: hits
        misses = obs.metrics.get("opcache.misses", kind="unit_table")
        hits = obs.metrics.get("opcache.hits", kind="unit_table")
        assert misses is not None and misses.value >= 1
        assert hits is not None and hits.value >= 1

    def test_fault_mutation_never_reuses_stale_bank(self):
        """Gain-mutating fault plans must re-derive every array artifact."""
        cache = OpCache()
        clean = make_sim(bank_mode="genie", opcache=cache)
        plan = FaultPlan([PixelDropout(n_pixels=2)], seed=4)
        faulted = make_sim(bank_mode="genie", fault_plan=plan, opcache=cache)
        assert fingerprint_array(clean.array) != fingerprint_array(faulted.array)
        # the trap: cached faulted run must equal a cache-free faulted run
        a = faulted.measure_ber(n_packets=2, rng=9)
        b = make_sim(
            bank_mode="genie",
            fault_plan=FaultPlan([PixelDropout(n_pixels=2)], seed=4),
            opcache=False,
        ).measure_ber(n_packets=2, rng=9)
        assert a.ber == b.ber
        assert a.n_bit_errors == b.n_bit_errors

    def test_fault_plan_sweeps_prefault_entries(self):
        cache = OpCache()
        sim = make_sim(bank_mode="nominal", opcache=cache)
        sim.transmitter.transmit(bytes(8))  # populates the tx_prefix entry
        fp = fingerprint_array(sim.array)
        assert any(fp in key for kind, key in cache._entries)
        make_sim(bank_mode="nominal", fault_plan=FaultPlan([PixelDropout()], seed=1), opcache=cache)
        # pre-fault array artifacts were swept out of capacity
        assert not any(fp in key for kind, key in cache._entries)
