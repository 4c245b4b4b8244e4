"""Shadow oracle for the fleet heartbeat.

A beacon stamps its reader's ``last_beacon`` instead of writing every
scheduled tag's ``last_heard``, and the heartbeat check looks only at the
orphans of crashed readers and the members of silent readers instead of
scanning the whole tag table.  This wall keeps the per-tag bookkeeping
alive as a shadow beside the fleet — one ``last_heard`` per tag, written on
every beacon and every admission, and the whole-table stale predicate — and
asserts at every heartbeat check that both detach the same tags and that
every tag's ``TagState.last_heard`` equals its shadow.  The fleet golden
pins end-of-run state only, and both serving engines share this
bookkeeping, so neither would see a mid-run divergence.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.faults.network import (
    NetworkFaultPlan,
    ReaderCrash,
    network_scenario,
    network_scenario_names,
)
from repro.network.core import EventQueue
from repro.network.fleet import FleetConfig, FleetSimulator
from repro.network.reader import Reader, ReaderHealth

SEED = 1234

SMALL = FleetConfig(n_readers=3, n_tags=24, duration_s=20.0, queue_capacity=12)

#: ~13 tags per reader against room for 10: admission sheds at t=0.
OVERSUBSCRIBED = FleetConfig(n_readers=3, n_tags=40, duration_s=20.0, queue_capacity=10)


class ShadowFleet(FleetSimulator):
    """A fleet that checks its heartbeat against the whole-table shadow."""

    def _build(self) -> None:
        super()._build()
        self.shadow = np.zeros(self.config.n_tags)
        self.checks = 0
        self.detached: list[int] = []

    def _poll_round(self, reader: Reader, now: float) -> None:
        if reader.beaconing:
            self.shadow[reader.schedule] = now
        super()._poll_round(reader, now)

    def _admitted(self, tag_ids, reader_ids, times) -> None:
        # One attempt's admission and a detach wave's bulk admission both
        # end here.
        super()._admitted(tag_ids, reader_ids, times)
        self.shadow[tag_ids] = times

    def _tag_check(self, now: float, queue: EventQueue) -> None:
        cfg, tags = self.config, self.tags
        deadline = cfg.heartbeat_miss_threshold * cfg.round_interval_s
        self.assert_heard()
        want = ((tags.reader >= 0) & (now - self.shadow > deadline)).nonzero()[0]
        before = tags.detaches.copy()
        super()._tag_check(now, queue)
        got = (tags.detaches != before).nonzero()[0]
        assert got.tolist() == want.tolist(), f"stale set differs at t={now}"
        assert tags.silent_since[want].tolist() == self.shadow[want].tolist()
        self.assert_heard()
        self.checks += 1
        self.detached += want.tolist()

    def assert_heard(self) -> None:
        assert [tag.last_heard for tag in self.tags] == self.shadow.tolist()


def run_shadow(config: FleetConfig, plan: NetworkFaultPlan | None) -> ShadowFleet:
    sim = ShadowFleet(config, fault_plan=plan, root_seed=SEED)
    sim.run()
    assert sim.checks == 19  # at k + 0.5 s for k = 1..19 in a 20 s run
    return sim


@pytest.mark.parametrize("scenario", [None, *network_scenario_names()])
def test_named_scenarios_match_shadow(scenario):
    plan = network_scenario(scenario, SMALL.duration_s) if scenario else None
    sim = run_shadow(SMALL, plan)
    if scenario in ("reader_crash", "reader_flap", "compound"):
        assert sim.detached


def test_oversubscribed_crash_matches_shadow():
    sim = run_shadow(OVERSUBSCRIBED, network_scenario("reader_crash", OVERSUBSCRIBED.duration_s))
    assert sim.detached and sim.tags.reassoc_attempts.max() > 0


@settings(deadline=None, max_examples=40)
@given(
    reader_id=st.integers(0, 2),
    first_s=st.floats(0.5, 8.0),
    outage_s=st.floats(0.05, 5.0),
    recovery_s=st.floats(0.0, 2.0),
    gap_s=st.floats(0.05, 6.0),
    second_outage_s=st.one_of(st.just(float("inf")), st.floats(0.05, 5.0)),
)
# Restarted before the next check (crash at 5.1, back at 5.3, check at 5.5).
@example(0, 5.1, 0.2, 0.0, 1.0, float("inf"))
def test_crash_restart_crash_matches_shadow(
    reader_id, first_s, outage_s, recovery_s, gap_s, second_outage_s
):
    """Crash, restart (maybe before the next check, while the orphans still
    point at the reader), then crash the same reader again."""
    plan = NetworkFaultPlan([
        ReaderCrash(reader_id=reader_id, at_s=first_s, outage_s=outage_s, recovery_s=recovery_s),
        ReaderCrash(reader_id=reader_id, at_s=first_s + outage_s + gap_s,
                    outage_s=second_outage_s),
    ])
    sim = run_shadow(OVERSUBSCRIBED, plan)
    assert sim.transitions


def test_silenced_live_reader_members_detach():
    """Readers that never beacon (no polls at all) keep their schedules,
    so only the member scan can find their stale tags."""
    sim = ShadowFleet(SMALL, root_seed=SEED)
    sim._build()
    sim._associate_initial()
    queue = EventQueue()
    members = {r.reader_id: list(r.schedule) for r in sim.readers}
    sim._poll_round(sim.readers[0], 1.0)
    sim._tag_check(3.5, queue)  # readers 1 and 2 silent since t=0
    assert all(r.health is ReaderHealth.HEALTHY for r in sim.readers)
    assert sim.detached == sorted(members[1] + members[2])
    # A tag re-admitted at t=3.6 has heard its admission, not t=0.
    tag_id = members[1][0]
    sim._reassoc_attempt(tag_id, 3.6, queue)
    assert sim.tags[tag_id].reader_id is not None
    n = len(sim.detached)
    sim._tag_check(4.5, queue)  # reader 0 silent since t=1.0
    assert sim.detached[n:] == sorted(members[0])
    sim._tag_check(6.7, queue)  # the re-admitted tag, silent since t=3.6
    assert sim.detached[-1] == tag_id


@settings(deadline=None, max_examples=60)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ["poll", "crash", "raw_crash", "restart", "recovered", "reassoc", "check"]
            ),
            st.integers(0, 39),
            st.floats(0.05, 2.0),
        ),
        max_size=60,
    )
)
def test_driven_handlers_match_shadow(ops):
    """Handlers called in any order, including ``Reader.crash()`` called
    directly (no fleet transition), keep ``last_heard`` and the stale set
    equal to the shadow after every step."""
    sim = ShadowFleet(OVERSUBSCRIBED, root_seed=SEED)
    sim._build()
    sim._associate_initial()
    queue = EventQueue()
    now = 0.0
    for kind, target, dt_s in ops:
        now += dt_s
        reader_id = target % len(sim.readers)
        if kind == "poll":
            sim._poll_round(sim.readers[reader_id], now)
        elif kind == "raw_crash":
            sim.readers[reader_id].crash()
        elif kind in ("crash", "restart", "recovered"):
            sim._with_transition(reader_id, now, getattr(Reader, kind))
        elif kind == "reassoc":
            sim._reassoc_attempt(target, now, queue)
        else:
            sim._tag_check(now, queue)
        sim.assert_heard()
    sim._tag_check(now + 10.0, queue)
