"""Equivalence wall: vectorized fleet round engine vs frozen scalar spec.

The vectorized struct-of-arrays engine
(:class:`repro.network.linkstore.LinkStateStore`, served by
:class:`~repro.network.fleet.FleetSimulator`) must reproduce the frozen
scalar reference (:class:`~reference.link_reference.ReferenceTagLinkState`,
served by :class:`~reference.fleet_reference.ReferenceFleetSimulator`)
*bit for bit*: identical per-tag ``snapshot()``
dicts, identical :class:`~repro.network.linkstore.FrameOutcome` sequences in
global service order, and identical ``timeline_digest``s — under random
fleet configs, chaos plans, and the reader-crash handoff sequences, and
invariantly across worker pools and crash/resume replays.

Hypothesis drives the config/chaos space; the directed tests pin the
corners the random walk is unlikely to dwell on (budget cutoffs,
impairment toggles, the store's scalar single-tag path).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import repro.network.fleet
from repro.errors import ConfigError
from repro.experiments.network_scale import network_scale_grid
from repro.experiments.sweeps import SimulatedCrash, canonical_records
from repro.faults.network import NETWORK_SCENARIOS, network_scenario_names
from repro.network.fleet import FleetConfig, FleetSimulator
from repro.network.linkstore import LinkStateStore
from repro.mac.rate_adapt import default_profile

from reference.fleet_reference import ReferenceFleetSimulator
from reference.link_reference import ReferenceTagLinkState

SCENARIOS = [None, *network_scenario_names()]


def _run_pair(cfg, scenario, seed):
    """Run both engines on the same cell; return the two results + sims."""
    plan = None if scenario is None else NETWORK_SCENARIOS[scenario](cfg.duration_s)
    if plan is not None and plan.max_reader_id() >= cfg.n_readers:
        plan = None  # scenario does not fit this deployment; run clean
    ref_sim = ReferenceFleetSimulator(
        cfg, fault_plan=plan, root_seed=seed, record_frames=True
    )
    ref = ref_sim.run()
    vec_sim = FleetSimulator(cfg, fault_plan=plan, root_seed=seed, record_frames=True)
    vec = vec_sim.run()
    return ref_sim, ref, vec_sim, vec


def _assert_bit_identical(ref_sim, ref, vec_sim, vec):
    assert ref.row() == vec.row()  # includes the timeline_digest
    assert ref_sim.frame_log == vec_sim.frame_log
    for tag_ref, tag_vec in zip(ref.tags, vec.tags):
        assert tag_ref.link.snapshot() == tag_vec.link.snapshot()
        assert tag_ref.reader_id == tag_vec.reader_id
        assert tag_ref.handoff_latencies == tag_vec.handoff_latencies
    assert ref.transitions == vec.transitions
    assert ref.handoff_log == vec.handoff_log


class TestHypothesisWall:
    """Random configs x chaos plans x seeds: the engines may not diverge."""

    @settings(deadline=None, max_examples=20)
    @given(
        seed=st.integers(0, 2**31),
        n_readers=st.integers(1, 4),
        n_tags=st.integers(1, 40),
        duration_s=st.sampled_from([6.0, 11.0, 17.0]),
        airtime_duty=st.sampled_from([0.1, 0.35, 0.8]),
        capacity=st.integers(2, 24),
        scenario=st.sampled_from(SCENARIOS),
    )
    def test_random_fleets_bit_identical(
        self, seed, n_readers, n_tags, duration_s, airtime_duty, capacity, scenario
    ):
        cfg = FleetConfig(
            n_readers=n_readers,
            n_tags=n_tags,
            duration_s=duration_s,
            airtime_duty=airtime_duty,
            queue_capacity=capacity,
        )
        _assert_bit_identical(*_run_pair(cfg, scenario, seed))

    @settings(deadline=None, max_examples=10)
    @given(
        seed=st.integers(0, 2**31),
        raise_after=st.integers(1, 4),
        fail_threshold=st.integers(1, 4),
        recover_after=st.integers(1, 4),
    )
    def test_adaptation_knobs_bit_identical(
        self, seed, raise_after, fail_threshold, recover_after
    ):
        cfg = FleetConfig(
            n_readers=2,
            n_tags=12,
            duration_s=12.0,
            queue_capacity=8,
            raise_after=raise_after,
            fail_threshold=fail_threshold,
            recover_after=recover_after,
        )
        _assert_bit_identical(*_run_pair(cfg, "compound", seed))


class TestDirectedCorners:
    def test_every_scenario_bit_identical(self):
        cfg = FleetConfig(n_readers=3, n_tags=24, duration_s=20.0, queue_capacity=12)
        for scenario in SCENARIOS:
            _assert_bit_identical(*_run_pair(cfg, scenario, 1234))

    def test_long_schedules_bit_identical(self):
        """Schedules far longer than a round can serve: the store engine's
        budget-bounded scan sees only a window of each rotated schedule,
        the reference walks it slot by slot; they must still agree."""
        cfg = FleetConfig(
            n_readers=3,
            n_tags=9_000,
            duration_s=10.0,
            queue_capacity=9_000,
            airtime_duty=0.25,
            payload_bytes=8,
            overhead_s=0.002,
        )
        for scenario in SCENARIOS:
            ref_sim, ref, vec_sim, vec = _run_pair(cfg, scenario, 77)
            _assert_bit_identical(ref_sim, ref, vec_sim, vec)
            # ~3,000 tags per reader; a round serves a handful of them.
            assert 0 < vec.row()["frames_served"] <= cfg.n_tags * cfg.duration_s / 100

    def test_handoff_preserves_view_identity_and_state(self):
        """The crash-handoff drill, on the store engine: the link object a
        tag carries across readers is the same view, same snapshot."""
        cfg = FleetConfig(n_readers=3, n_tags=12, duration_s=25.0)
        plan = NETWORK_SCENARIOS["reader_crash"](cfg.duration_s)
        sim = FleetSimulator(cfg, fault_plan=plan, root_seed=3)
        res = sim.run()
        assert res.handoffs > 0
        for tag in res.tags:
            assert tag.link.store is res.store
            assert tag.link.snapshot() == res.store.snapshot(tag.tag_id)

    def test_store_aggregates_match_per_tag_sums(self):
        cfg = FleetConfig(n_readers=2, n_tags=16, duration_s=15.0)
        res = FleetSimulator(cfg, root_seed=9).run()
        assert isinstance(res.store, LinkStateStore)
        assert res.delivered == sum(t.link.delivered for t in res.tags)
        assert res.abandoned == sum(t.link.abandoned for t in res.tags)
        assert res.attempts == sum(t.link.attempts for t in res.tags)

    def test_fairness_metrics_in_row(self):
        cfg = FleetConfig(n_readers=2, n_tags=10, duration_s=12.0)
        ref_sim, ref, vec_sim, vec = _run_pair(cfg, None, 5)
        for res in (ref, vec):
            row = res.row()
            assert 0.0 < row["fairness_jain"] <= 1.0
            assert row["goodput_min_bps"] <= row["goodput_median_bps"]
        assert ref.row()["fairness_jain"] == vec.row()["fairness_jain"]

    def test_jain_is_one_when_nothing_delivered(self):
        # A duration shorter than one round interval: no poll rounds fire.
        cfg = FleetConfig(n_readers=1, n_tags=4, duration_s=0.5)
        res = FleetSimulator(cfg, root_seed=0).run()
        assert res.delivered == 0
        assert res.fairness_jain == 1.0
        assert res.goodput_min_bps == 0.0


class TestScalarStorePath:
    """The store's single-tag scalar path (TagLinkView.attempt_frame) must
    walk in lockstep with a standalone reference object."""

    @settings(deadline=None, max_examples=15)
    @given(
        seed=st.integers(0, 2**31),
        snr_db=st.sampled_from([2.0, 8.0, 15.0, 28.0]),
        extra=st.sampled_from([0.0, 0.2]),
        n_attempts=st.integers(1, 120),
    )
    def test_view_matches_reference_object(self, seed, snr_db, extra, n_attempts):
        import numpy as np

        profile = default_profile()
        ref = ReferenceTagLinkState(profile)
        store = LinkStateStore(profile, n_tags=3)
        view = store.view(1)  # middle tag: neighbours must stay untouched
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        for _ in range(n_attempts):
            out_ref = ref.attempt_frame(snr_db, rng_a, extra_fail_prob=extra)
            out_vec = view.attempt_frame(snr_db, rng_b, extra_fail_prob=extra)
            assert out_ref == out_vec
            assert ref.snapshot() == view.snapshot()
            assert ref.frame_airtime_s() == view.frame_airtime_s()
            assert ref.success_probability(snr_db, extra) == view.success_probability(
                snr_db, extra
            )
        for untouched in (0, 2):
            assert store.snapshot(untouched)["attempts"] == 0

    def test_store_validates_like_the_reference(self):
        profile = default_profile()
        with pytest.raises(ConfigError):
            LinkStateStore(profile, n_tags=0)
        with pytest.raises(ConfigError):
            LinkStateStore(profile, n_tags=1, payload_bytes=0)
        with pytest.raises(ConfigError):
            LinkStateStore(profile, n_tags=1, raise_after=0)
        with pytest.raises(ConfigError):
            LinkStateStore(profile, n_tags=1, fail_threshold=0)
        with pytest.raises(ConfigError):
            LinkStateStore(profile, n_tags=1, recover_after=0)


class TestBoundedScan:
    """serve_round scans a window of the rotated schedule that widens until
    the budget cuts it; forcing a tiny first window must change nothing."""

    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(0, 2**31),
        n_tags=st.integers(1, 300),
        start=st.integers(0, 600),
        budget_s=st.sampled_from([0.05, 0.3, 1.0, 4.0, 50.0]),
        used_s=st.sampled_from([0.0, 0.02, 0.4]),
        collision_prob=st.sampled_from([0.0, 0.3]),
    )
    def test_widened_window_equals_full_scan(
        self, seed, n_tags, start, budget_s, used_s, collision_prob
    ):
        import dataclasses

        import numpy as np

        from repro.network.linkstore import RoundServe
        from repro.utils.backend import make_recording_backend, use_backend

        gen = np.random.default_rng(seed)
        rungs = gen.integers(0, 8, size=n_tags)
        order = gen.permutation(n_tags)
        snr_col = gen.uniform(0.0, 30.0, size=n_tags)
        stores, results, scans = [], [], []
        # First window: a single tag (must widen) vs the whole schedule.
        for min_airtime_s in (1e9, 1e-12):
            store = LinkStateStore(default_profile(), n_tags, payload_bytes=8, overhead_s=0.002)
            store.rung[:] = rungs
            store._min_airtime_s = min_airtime_s
            rngs = [np.random.default_rng([seed, i]) for i in range(n_tags)]
            rec = make_recording_backend()
            with use_backend(rec):
                res = store.serve_round(
                    order, snr_col, 3.0, collision_prob, budget_s, used_s, rngs,
                    reader_key=0, start=start,
                )
            stores.append(store)
            results.append(res)
            scans.append(rec.xp.op_log.count("cumsum"))
        narrow, full = results
        assert scans[1] == 1
        if full.n_served > 1:
            assert scans[0] > 1  # the one-tag window had to widen
        for f in dataclasses.fields(RoundServe):
            a, b = getattr(narrow, f.name), getattr(full, f.name)
            assert np.array_equal(a, b), f.name
        for name in ("rung", "success_streak", "pending_attempts", "delivered",
                     "abandoned", "attempts", "fallback_active"):
            assert np.array_equal(getattr(stores[0], name), getattr(stores[1], name))
        # ...and both equal an independent full-schedule left fold.
        rotated = np.roll(order, -(start % n_tags))
        running = np.cumsum(
            np.concatenate(([used_s], stores[1].airtime_by_rung[rungs[rotated]]))
        )
        n_served = int(np.searchsorted(running[1:], budget_s, side="right"))
        assert full.n_served == n_served
        assert np.array_equal(full.served, rotated[:n_served])
        assert full.used_s == running[n_served]


class TestSweepInvariance:
    """timeline_digest rows: serial == pooled == crashed-and-resumed,
    with the vectorized engine doing the serving."""

    GRID = dict(
        scenarios=["reader_crash"],
        n_tags_list=[4, 8],
        duration_s=8.0,
        root_seed=11,
    )

    def test_store_rows_match_reference_rows(self, monkeypatch):
        vec = network_scale_grid(**self.GRID)
        runs = []

        class CountingReference(ReferenceFleetSimulator):
            def run(self):
                runs.append(self)
                return super().run()

        # fleet_scale_task imports FleetSimulator when it runs, so the
        # serial sweep picks up the reference subclass.
        monkeypatch.setattr(repro.network.fleet, "FleetSimulator", CountingReference)
        ref = network_scale_grid(**self.GRID)
        assert len(runs) == len(self.GRID["n_tags_list"])
        assert ref == vec

    def test_serial_pool_resume_bit_identical(self, tmp_path):
        serial = network_scale_grid(
            **self.GRID, n_workers=1, journal=tmp_path / "serial.jsonl"
        )
        pooled = network_scale_grid(
            **self.GRID, n_workers=2, journal=tmp_path / "pooled.jsonl"
        )
        assert serial == pooled
        with pytest.raises(SimulatedCrash):
            network_scale_grid(
                **self.GRID,
                journal=tmp_path / "crashed.jsonl",
                sweep={"crash_after": 1},
            )
        resumed = network_scale_grid(**self.GRID, journal=tmp_path / "crashed.jsonl")
        assert resumed == serial
        assert canonical_records(tmp_path / "serial.jsonl") == canonical_records(
            tmp_path / "crashed.jsonl"
        )
