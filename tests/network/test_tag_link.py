"""Migration-safe per-tag link state: adaptation, ARQ window, snapshots.

Driven one slot at a time through a :class:`TagLinkView` onto a
:class:`LinkStateStore` (the scalar path unit drills use); the fleet's
vectorized rounds are walled to the same transitions in
``test_linkstore_equivalence.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.mac.rate_adapt import default_profile
from repro.network.linkstore import LinkStateStore, TagLinkView


def make_link(**kwargs) -> TagLinkView:
    return LinkStateStore(default_profile(), n_tags=1, **kwargs).view(0)


class TestBasics:
    def test_starts_on_most_robust_rung(self):
        link = make_link()
        assert link.rung_index == 0
        assert link.rate_bps == min(int(r.rate_bps) for r in default_profile().rates)

    def test_airtime_shrinks_with_rate(self):
        link = make_link()
        assert link.frame_airtime_s(1_000) > link.frame_airtime_s(8_000)

    def test_validation(self):
        with pytest.raises(ConfigError):
            make_link(payload_bytes=0)
        with pytest.raises(ConfigError):
            make_link(overhead_s=-1.0)
        with pytest.raises(ConfigError):
            make_link(raise_after=0)

    def test_extra_fail_prob_scales_success(self):
        link = make_link()
        clean = link.success_probability(60.0)
        assert link.success_probability(60.0, extra_fail_prob=0.5) == pytest.approx(
            clean * 0.5
        )


class TestAdaptation:
    def test_good_link_climbs_the_ladder(self):
        link = make_link(raise_after=2)
        rng = np.random.default_rng(0)
        start = link.rate_bps
        for _ in range(20):
            link.attempt_frame(snr_db=70.0, rng=rng)
        assert link.rate_bps > start
        assert link.delivered == 20

    def test_dead_link_abandons_frames_by_arq_budget(self):
        link = make_link()
        rng = np.random.default_rng(0)
        for _ in range(12):
            link.attempt_frame(snr_db=-40.0, rng=rng)
        assert link.delivered == 0
        assert link.abandoned == 12 // link.arq.max_attempts

    def test_one_draw_per_attempt(self):
        """The whole outcome costs exactly one uniform from the tag stream."""
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        link = make_link()
        link.attempt_frame(snr_db=60.0, rng=a)
        b.random()
        assert a.random() == b.random()

    def test_fallback_then_hysteresis_blocks_early_raise(self):
        link = make_link(raise_after=1, fail_threshold=1, recover_after=3)
        rng = np.random.default_rng(0)
        # Climb one rung, then force a fallback.
        link.attempt_frame(70.0, rng)
        rung = link.rate_bps
        link.attempt_frame(-40.0, rng)
        assert link.rate_bps < rung
        assert not link.recovery_ready
        # One clean frame is not enough to raise again (recover_after=3).
        link.attempt_frame(70.0, rng)
        assert link.rate_bps < rung
        # Two more clears the hysteresis; the next success raises.
        link.attempt_frame(70.0, rng)
        link.attempt_frame(70.0, rng)
        assert link.recovery_ready


class TestSnapshot:
    def test_snapshot_is_plain_data(self):
        link = make_link()
        rng = np.random.default_rng(1)
        for _ in range(5):
            link.attempt_frame(snr_db=50.0, rng=rng)
        snap = link.snapshot()
        assert set(snap) == {
            "rate_bps",
            "pending_attempts",
            "success_streak",
            "consecutive_failures",
            "consecutive_successes",
            "recovery_ready",
            "delivered",
            "abandoned",
            "attempts",
        }
        assert snap["attempts"] == 5
