"""Fleet-level fault-tolerance contract: the issue's acceptance criteria.

The load-bearing drills: crash one of three readers mid-run and assert
zero permanently orphaned tags, bounded goodput degradation, and
bit-identical results for a fixed root seed — with and without metrics.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.errors import ConfigError
from repro.faults.network import (
    NetworkFaultPlan,
    ReaderCrash,
    ReaderOcclusion,
    network_scenario,
)
from repro.network import FleetConfig, FleetResult, FleetSimulator, ReaderHealth
from repro.obs import Observer

SEED = 7

#: Every float-valued ``FleetConfig`` field.
FLOAT_FIELDS = [f.name for f in dataclasses.fields(FleetConfig) if isinstance(f.default, float)]


def run_fleet(scenario: str | None = None, seed: int = SEED, **cfg) -> FleetResult:
    config = FleetConfig(**cfg)
    plan = network_scenario(scenario, config.duration_s) if scenario else None
    return FleetSimulator(config, fault_plan=plan, root_seed=seed).run()


class TestBaseline:
    def test_all_tags_associate_and_deliver(self):
        res = run_fleet()
        assert res.unassociated_tags == []
        assert res.orphaned_tags == []
        assert res.delivered > 0
        assert all(t.link.delivered > 0 for t in res.tags)

    def test_no_faults_no_transitions(self):
        res = run_fleet()
        assert res.transitions == [] and res.handoffs == 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FleetConfig(n_readers=0)
        with pytest.raises(ConfigError):
            FleetConfig(airtime_duty=0.0)
        with pytest.raises(ConfigError):
            FleetConfig(reassoc_backoff_cap_s=0.01)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_floats_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            FleetConfig(**{name: value})

    def test_infinite_span_rejected(self):
        """Each field is finite, but the deployment they span is not."""
        with pytest.raises(ConfigError, match="reader_spacing_m"):
            FleetConfig(n_readers=2, reader_spacing_m=1e308)

    def test_float_fields_cover_timing_and_backoff(self):
        assert {"duration_s", "round_interval_s", "reassoc_backoff_cap_s"} <= set(FLOAT_FIELDS)

    def test_fault_plan_must_fit_fleet(self):
        plan = NetworkFaultPlan([ReaderCrash(reader_id=5, at_s=1.0)])
        with pytest.raises(ConfigError, match="targets reader 5"):
            FleetSimulator(FleetConfig(n_readers=3), fault_plan=plan)


class TestLinksPastTheFloatRange:
    """An SNR so low that ``10 ** -exponent`` leaves the float range: the
    BER clips to 0.5 on the store path and the scalar reference alike,
    where it used to raise an unclassified ``OverflowError``."""

    @pytest.mark.parametrize(
        "config, plan",
        [
            (
                FleetConfig(n_tags=30, duration_s=10.0),
                NetworkFaultPlan(
                    [ReaderOcclusion(reader_id=0, at_s=1.0, duration_s=5.0, snr_penalty_db=1000.0)]
                ),
            ),
            (FleetConfig(n_tags=30, duration_s=10.0, reader_spacing_m=1e100), None),
        ],
        ids=["occlusion_1000db", "spacing_1e100m"],
    )
    def test_run_matches_reference(self, config, plan):
        from reference.fleet_reference import ReferenceFleetSimulator

        row = FleetSimulator(config, fault_plan=plan, root_seed=SEED).run().row()
        assert row == ReferenceFleetSimulator(config, fault_plan=plan, root_seed=SEED).run().row()
        assert row["attempts"] > 0


class TestCrashAcceptance:
    """ISSUE acceptance: seeded plan crashing 1 of 3 readers."""

    def test_zero_orphaned_tags_after_permanent_crash(self):
        res = run_fleet("reader_crash")
        assert res.readers[0].health is ReaderHealth.DOWN
        assert res.orphaned_tags == []
        assert res.unassociated_tags == []
        # Every tag ended up on a surviving reader.
        assert all(t.reader_id in (1, 2) for t in res.tags)

    def test_dropped_tags_hand_off_with_latency(self):
        res = run_fleet("reader_crash")
        moved = [t for t in res.tags if t.detaches > 0]
        assert moved, "seed must place at least one tag on reader 0"
        for t in moved:
            assert t.handoffs >= t.detaches
            assert all(lat > 0 for lat in t.handoff_latencies)
        assert len(res.handoff_log) == res.handoffs
        for _, tag_id, from_reader, to_reader, _ in res.handoff_log:
            assert from_reader == 0 and to_reader in (1, 2)

    def test_goodput_degradation_is_bounded(self):
        base = run_fleet(None)
        chaos = run_fleet("reader_crash")
        ratio = chaos.goodput_bps / base.goodput_bps
        # Losing 1/3 of the fleet costs goodput but never collapses it.
        assert 0.4 < ratio < 1.0

    def test_contract_check_passes(self):
        assert run_fleet("reader_crash").check_contract() is None

    def test_handoff_migrates_link_state(self):
        """Handoff moves the TagLinkState object itself: rate rung, ARQ
        window, hysteresis and counters are bit-for-bit what they were
        when the old reader died — never a fresh probe-rung state."""
        from repro.network.core import EventQueue

        sim = FleetSimulator(FleetConfig(), root_seed=SEED)
        sim._build()
        sim._associate_initial()
        tag = sim.tags[0]
        old_reader = tag.reader_id
        assert old_reader is not None
        # Put the link visibly mid-flight: some served frames, then a
        # failure that opens the ARQ window.
        for _ in range(6):
            tag.link.attempt_frame(50.0, sim._tag_rngs[0])
        tag.link.attempt_frame(-40.0, sim._tag_rngs[0])
        assert tag.link.pending_attempts > 0
        link_obj = tag.link
        before = tag.link.snapshot()
        # Kill the reader; heartbeat-missed detection detaches the tag.
        queue = EventQueue()
        sim.readers[old_reader].crash()
        sim._tag_check(now=10.0, queue=queue)
        assert tag.reader_id is None
        sim._reassoc_attempt(tag.tag_id, now=12.0, queue=queue)
        assert tag.reader_id is not None and tag.reader_id != old_reader
        assert tag.link is link_obj
        assert tag.link.snapshot() == before
        # Latency anchors at the last heard beacon (t=0 here: no rounds ran).
        assert tag.handoffs == 1 and tag.handoff_latencies == [12.0]


class TestBackoff:
    SHED = dict(n_readers=1, n_tags=20, queue_capacity=16)

    @pytest.mark.parametrize(
        "plan",
        [None, NetworkFaultPlan([ReaderCrash(reader_id=0, at_s=100.0, outage_s=50.0)])],
        ids=["shed", "crash_restart"],
    )
    def test_shed_tags_retry_past_the_float_range(self, plan):
        """Four shed tags retry forever: past 1,024 failures
        ``factor**attempts`` leaves the float range and the backoff stays
        at its cap, and the first 1000 s match a run that ends there."""
        long = FleetSimulator(FleetConfig(duration_s=3000.0, **self.SHED), fault_plan=plan).run()
        short = FleetSimulator(FleetConfig(duration_s=1000.0, **self.SHED), fault_plan=plan).run()
        assert long.tags.reassoc_attempts.max() > 1024
        assert [h for h in long.handoff_log if h[0] <= 1000.0] == short.handoff_log
        assert [t for t in long.transitions if t[0] <= 1000.0] == short.transitions

    def test_backoff_below_overflow_is_unchanged(self):
        cfg = FleetConfig(
            reassoc_backoff_base_s=1e-300, reassoc_backoff_factor=2.0, reassoc_backoff_cap_s=1e300
        )
        sim = FleetSimulator(cfg)
        for attempts in range(1024):
            assert sim._backoff_s(attempts) == min(
                cfg.reassoc_backoff_cap_s,
                cfg.reassoc_backoff_base_s * cfg.reassoc_backoff_factor**attempts,
            )
        assert sim._backoff_s(1023) < cfg.reassoc_backoff_cap_s
        for attempts in (1024, 1025, 10**6):
            assert sim._backoff_s(attempts) == cfg.reassoc_backoff_cap_s


class TestTagTable:
    def test_views_are_cached_live_rows(self):
        sim = FleetSimulator(FleetConfig(), fault_plan=network_scenario("reader_crash", 30.0),
                             root_seed=SEED)
        res = sim.run()
        assert res.tags is sim.tags and len(res.tags) == sim.config.n_tags
        tag = res.tags[3]
        assert res.tags[3] is tag and res.tags[-1] is res.tags[len(res.tags) - 1]
        assert tag.link is tag.link and tag.link.tag_id == 3
        assert [t.tag_id for t in res.tags] == list(range(len(res.tags)))
        # Views read the table as it is now.
        res.tags.reader[3] = -1
        assert tag.reader_id is None and 3 in res.unassociated_tags
        with pytest.raises(IndexError):
            res.tags[len(res.tags)]


class TestDeterminism:
    def test_same_seed_bit_identical_row(self):
        a = run_fleet("reader_crash").row()
        b = run_fleet("reader_crash").row()
        assert a == b

    def test_different_seeds_differ(self):
        a = run_fleet("reader_crash", seed=1).row()
        b = run_fleet("reader_crash", seed=2).row()
        assert a["timeline_digest"] != b["timeline_digest"] or a != b

    def test_observer_never_changes_results(self):
        silent = run_fleet("compound").row()
        obs = Observer(trace=False)
        config = FleetConfig()
        plan = network_scenario("compound", config.duration_s)
        loud = (
            FleetSimulator(config, fault_plan=plan, root_seed=SEED, observer=obs)
            .run()
            .row()
        )
        assert silent == loud
        assert obs.metrics.snapshot()  # ...but metrics were recorded

    def test_latency_mean_sums_tag_by_tag(self):
        """Float sums depend on order: the mean adds handoff latencies tag
        id by tag id (chronologically within a tag), not in log order."""
        res = run_fleet(None)
        res.handoff_log[:] = [(1.0, 2, 0, 1, 0.3), (2.0, 1, 0, 1, 0.2), (3.0, 0, 0, 1, 0.1)]
        assert 0.3 + 0.2 + 0.1 != 0.1 + 0.2 + 0.3
        assert res.row()["handoff_latency_mean_s"] == (0.1 + 0.2 + 0.3) / 3

    def test_outcome_digest_covers_per_tag_delivery(self):
        res = run_fleet(None)
        before = res.row()
        delivered = res.store.delivered
        delivered[0] -= 1
        delivered[1] += 1  # same totals, same timeline, different tags
        after = res.row()
        assert after["delivered"] == before["delivered"]
        assert after["timeline_digest"] == before["timeline_digest"]
        assert after["outcome_digest"] != before["outcome_digest"]

    def test_digest_covers_dynamics(self):
        base = run_fleet(None).row()
        chaos = run_fleet("reader_crash").row()
        assert base["timeline_digest"] != chaos["timeline_digest"]


class TestDegradation:
    def test_flap_recovers_reader_and_tags_return_eventually(self):
        res = run_fleet("reader_flap")
        states = [(old, new) for _, rid, old, new in (
            (t, r, o, n) for t, r, o, n in res.transitions if r == 0
        )]
        assert ("healthy", "down") in states
        assert ("down", "recovering") in states
        assert ("recovering", "healthy") in states
        assert res.orphaned_tags == []

    def test_occlusion_degrades_then_recovers_health(self):
        plan = NetworkFaultPlan(
            [ReaderOcclusion(reader_id=1, at_s=5.0, duration_s=10.0, snr_penalty_db=20.0)]
        )
        res = FleetSimulator(FleetConfig(), fault_plan=plan, root_seed=SEED).run()
        seq = [(old, new) for _, rid, old, new in res.transitions if rid == 1]
        assert seq == [("healthy", "degraded"), ("degraded", "healthy")]

    def test_occlusion_costs_goodput(self):
        base = run_fleet(None)
        occluded = run_fleet("occlusion")
        assert occluded.goodput_bps < base.goodput_bps

    def test_discovery_storm_sheds_but_serves_data(self):
        base = run_fleet(None)
        storm = run_fleet("discovery_storm")
        row = storm.row()
        assert row["shed_discovery"] > 0  # bounded queue shed the burst
        assert row["discovery_served"] > 0  # ...but served what it admitted
        # Data goodput survives (the discovery budget is capped).
        assert storm.goodput_bps > 0.7 * base.goodput_bps

    def test_overload_sheds_instead_of_orphaning(self):
        res = run_fleet(None, n_readers=2, n_tags=40, duration_s=10.0)
        row = res.row()
        assert row["shed_associations"] > 0
        assert row["unassociated_tags"] == 40 - sum(
            len(r.schedule) for r in res.readers
        )
        # Full fleet: shed tags are load shedding, not contract orphans.
        assert res.check_contract() is None


class TestScenarios:
    @pytest.mark.parametrize(
        "name",
        ["reader_crash", "reader_flap", "schedule_corruption", "discovery_storm",
         "occlusion", "compound"],
    )
    def test_every_scenario_upholds_contract(self, name):
        res = run_fleet(name)
        assert res.check_contract() is None
        assert res.delivered > 0
