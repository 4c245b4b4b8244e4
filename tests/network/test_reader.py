"""Reader health lifecycle, admission control, and round-robin rotation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.network.reader import Reader, ReaderHealth


def make_reader(**kwargs) -> Reader:
    kwargs.setdefault("reader_id", 0)
    kwargs.setdefault("position_m", 0.0)
    return Reader(**kwargs)


class TestLifecycle:
    def test_starts_healthy_and_beaconing(self):
        r = make_reader()
        assert r.health is ReaderHealth.HEALTHY and r.beaconing

    def test_crash_silences_and_wipes_schedule(self):
        r = make_reader()
        r.admit(1), r.admit(2)
        r.pending_discovery = 5
        r.crash()
        assert r.health is ReaderHealth.DOWN
        assert not r.beaconing
        assert r.schedule.tolist() == [] and r.pending_discovery == 0

    def test_restart_recover_path(self):
        r = make_reader()
        r.crash()
        r.restart()
        assert r.health is ReaderHealth.RECOVERING and r.beaconing
        r.recovered()
        assert r.health is ReaderHealth.HEALTHY

    def test_restart_only_from_down(self):
        r = make_reader()
        r.restart()
        assert r.health is ReaderHealth.HEALTHY  # no-op

    def test_impairment_degrades_and_clears(self):
        r = make_reader()
        r.occlusion_db = 10.0
        r.settle_health()
        assert r.health is ReaderHealth.DEGRADED
        r.occlusion_db = 0.0
        r.settle_health()
        assert r.health is ReaderHealth.HEALTHY

    def test_settle_never_revives_a_down_reader(self):
        r = make_reader()
        r.crash()
        r.collision_prob = 0.5
        r.settle_health()
        assert r.health is ReaderHealth.DOWN

    def test_recovered_lands_degraded_under_active_impairment(self):
        r = make_reader()
        r.occlusion_db = 5.0
        r.crash()
        r.restart()
        r.recovered()
        assert r.health is ReaderHealth.DEGRADED


class TestAdmission:
    def test_bounded_queue_sheds_new(self):
        r = make_reader(capacity=2)
        assert r.admit(1) and r.admit(2)
        assert not r.admit(3)
        assert r.shed_associations == 1
        assert r.schedule.tolist() == [1, 2]

    def test_admit_idempotent_for_scheduled_tag(self):
        r = make_reader(capacity=1)
        assert r.admit(7)
        assert r.admit(7)
        assert r.schedule.tolist() == [7] and r.shed_associations == 0

    def test_down_reader_admits_nothing(self):
        r = make_reader()
        r.crash()
        assert not r.admit(1)

    def test_admit_many_equals_admit_one_at_a_time(self):
        bulk, one = make_reader(capacity=6), make_reader(capacity=6)
        for r in (bulk, one):
            r.admit(9)
        bulk.admit_many(np.asarray([4, 1, 7]))
        for tag_id in (4, 1, 7):
            one.admit(tag_id)
        for r in (bulk, one):
            assert r.schedule.tolist() == [9, 4, 1, 7] and r.max_queue_depth == 4
            assert r.schedule.dtype == np.int64
            assert all(r.is_member(t) for t in (9, 4, 1, 7))
        bulk.admit_many(np.empty(0, dtype=np.int64))
        assert bulk.schedule.tolist() == [9, 4, 1, 7]

    def test_admit_many_refuses_what_does_not_fit(self):
        r = make_reader(capacity=2)
        with pytest.raises(ValueError, match="cannot admit"):
            r.admit_many(np.asarray([1, 2, 3]))
        r.crash()
        with pytest.raises(ValueError, match="cannot admit"):
            r.admit_many(np.asarray([1]))
        assert r.schedule.tolist() == [] and r.shed_associations == 0

    def test_discovery_queue_bounded(self):
        r = make_reader(discovery_queue_cap=10)
        queued, shed = r.admit_discovery(25)
        assert (queued, shed) == (10, 15)
        assert r.pending_discovery == 10 and r.shed_discovery == 15

    def test_validation(self):
        with pytest.raises(ConfigError):
            make_reader(capacity=0)
        with pytest.raises(ConfigError):
            make_reader(discovery_queue_cap=-1)


class TestRotation:
    def test_service_order_rotates(self):
        r = make_reader()
        for t in (1, 2, 3):
            r.admit(t)
        assert r.service_order() == [1, 2, 3]
        r.advance_rotation(2)
        assert r.service_order() == [3, 1, 2]

    def test_drop_keeps_rotation_aligned(self):
        r = make_reader()
        for t in (1, 2, 3, 4):
            r.admit(t)
        r.advance_rotation(2)  # next is 3
        r.drop(1)  # removing an already-served tag must not skip 3
        assert r.service_order()[0] == 3

    def test_drop_to_empty(self):
        r = make_reader()
        r.admit(1)
        r.advance_rotation(1)
        r.drop(1)
        assert r.service_order() == [] and r.next_slot == 0


class TestArraySchedule:
    """The schedule is an int64 buffer plus a membership mask by tag id."""

    def test_crash_hands_lost_a_copy(self):
        r = make_reader()
        for t in (5, 2, 8):
            r.admit(t)
        r.crash()
        r.restart()
        r.admit_many(np.asarray([11, 12, 13]))
        r.admit(14)
        [(lost, _)] = r.lost
        assert lost.tolist() == [5, 2, 8]

    def test_schedule_is_read_only(self):
        r = make_reader()
        r.admit_many(np.asarray([3, 1]))
        with pytest.raises(ValueError):
            r.schedule[0] = 9
        assert r.schedule.tolist() == [3, 1] and r.is_member(3) and not r.is_member(9)

    def test_admission_past_the_mask_grows_it(self):
        r = make_reader(capacity=8)
        r.admit(2)
        assert not r.is_member(10**6) and not r.is_member(-1)
        assert r.admit(10**6)
        r.admit_many(np.asarray([3 * 10**6, 7]))
        assert r.schedule.tolist() == [2, 10**6, 3 * 10**6, 7]
        assert all(r.is_member(t) for t in (2, 7, 10**6, 3 * 10**6))
        assert not r.is_member(10**6 + 1) and not r.is_member(10**9)
        with pytest.raises(ValueError, match="non-negative"):
            r.admit(-1)
        with pytest.raises(ValueError, match="non-negative"):
            r.admit_many(np.asarray([4, -2]))
        assert r.schedule.tolist() == [2, 10**6, 3 * 10**6, 7]

    def test_drop_from_the_middle_keeps_order_membership_rotation(self):
        r = make_reader()
        r.admit_many(np.arange(1, 7))
        r.advance_rotation(4)  # next is 5
        r.drop(3)
        assert r.schedule.tolist() == [1, 2, 4, 5, 6]
        assert not r.is_member(3) and all(r.is_member(t) for t in (1, 2, 4, 5, 6))
        assert r.service_order() == [5, 6, 1, 2, 4]
        r.drop(6)  # after the rotation point: next stays 5
        assert r.service_order() == [5, 1, 2, 4]
        r.drop(99)  # not a member: nothing changes
        assert r.schedule.tolist() == [1, 2, 4, 5]
        assert r.admit(3) and r.schedule.tolist() == [1, 2, 4, 5, 3]

    def test_admission_after_crash_and_restart(self):
        r = make_reader(capacity=3)
        r.admit_many(np.asarray([4, 5, 6]))
        r.advance_rotation(2)
        r.crash()
        assert not any(r.is_member(t) for t in (4, 5, 6))
        assert r.schedule.tolist() == [] and r.next_slot == 0
        r.restart()
        assert r.admit(5) and r.admit(9)
        r.admit_many(np.asarray([4]))
        assert r.schedule.tolist() == [5, 9, 4] and r.service_order() == [5, 9, 4]
        assert not r.admit(6) and r.shed_associations == 1
        assert r.max_queue_depth == 3 and not r.is_member(6)
