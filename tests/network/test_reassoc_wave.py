"""Wall: a detach wave re-associated as one array event, against one event per tag.

A heartbeat check queues the tags it detaches as one ``reassoc`` event
that admits, in one array pass, every attempt due before the next other
event (``FleetSimulator._reassoc_wave``), and falls back to the
per-attempt path where a reader's capacity binds.  This wall runs the
production fleet against :class:`~reference.fleet_reference.PerAttemptFleetSimulator`,
the same fleet with the heartbeat check that queues one event per tag,
and asserts the whole end state equal: ``row()``, transitions, handoff
log, every tag-table array, each reader's schedule, rotation, depth and
counters, and the metrics snapshot when an observer is attached.

The fleets are small and the fault plans dense: 2-4 readers, 20-400
tags, capacities from binding to ample, 1-3 reader crashes with restarts
before and after the next heartbeat check, an occlusion or corruption
window over the first wave, and backoff settings under which waves and
retries interleave.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.faults.network import (
    NetworkFaultPlan,
    ReaderCrash,
    ReaderOcclusion,
    ScheduleCorruption,
    network_scenario,
    network_scenario_names,
)
from repro.network.core import EventQueue
from repro.network.fleet import FleetConfig, FleetSimulator
from repro.obs import Observer

from reference.fleet_reference import PerAttemptFleetSimulator, fleet_end_state

SEED = 1234
DURATION_S = 20.0


def end_state(config, plan, observed: bool, simulator) -> dict:
    obs = Observer(trace=False) if observed else None
    sim = simulator(config, fault_plan=plan, root_seed=SEED, observer=obs)
    state = fleet_end_state(sim, sim.run())
    state["metrics"] = obs.metrics.snapshot() if observed else None
    return state


def assert_same_end_state(config, plan, observed: bool = False) -> dict:
    wave = end_state(config, plan, observed, FleetSimulator)
    per_attempt = end_state(config, plan, observed, PerAttemptFleetSimulator)
    for key in wave:
        assert wave[key] == per_attempt[key], key
    # Log entries stay tuples of Python scalars.
    assert {tuple(map(type, e)) for e in wave["handoff_log"]} <= {(float, int, int, int, float)}
    return wave


@st.composite
def fleets(draw):
    n_readers = draw(st.integers(2, 4), label="n_readers")
    n_tags = draw(st.integers(20, 400), label="n_tags")
    per_reader = -(-n_tags // n_readers)
    threshold = draw(st.integers(1, 3), label="heartbeat_miss_threshold")
    base = draw(st.floats(0.05, 1.0), label="backoff_base")
    config = FleetConfig(
        n_readers=n_readers,
        n_tags=n_tags,
        duration_s=DURATION_S,
        # Binding (half a reader's share) to ample (every tag).
        queue_capacity=draw(st.integers(max(1, per_reader // 2), n_tags), label="capacity"),
        heartbeat_miss_threshold=threshold,
        reassoc_backoff_base_s=base,
        reassoc_backoff_factor=draw(st.floats(1.0, 3.0), label="backoff_factor"),
        reassoc_backoff_cap_s=draw(st.floats(base, 4.0), label="backoff_cap"),
    )
    faults = [
        ReaderCrash(
            reader_id=draw(st.integers(0, n_readers - 1)),
            at_s=draw(st.floats(0.5, 12.0)),
            # Short outages restart before the next check, long ones after.
            outage_s=draw(st.one_of(st.just(math.inf), st.floats(0.05, 5.0))),
            recovery_s=draw(st.floats(0.0, 2.0)),
        )
        for _ in range(draw(st.integers(1, 3), label="n_crashes"))
    ]
    # The first crash's orphans detach at the first check `threshold`
    # rounds past their last beacon and attempt within [0.5, 1.5) backoffs.
    first_wave_s = math.floor(faults[0].at_s) + threshold + 0.5
    window = dict(
        reader_id=draw(st.integers(0, n_readers - 1)),
        at_s=first_wave_s + base * draw(st.floats(0.3, 1.7)),
        duration_s=draw(st.floats(0.01, 2.0)),
    )
    if draw(st.booleans(), label="occlusion"):
        faults.append(ReaderOcclusion(snr_penalty_db=draw(st.floats(0.5, 60.0)), **window))
    else:
        faults.append(ScheduleCorruption(collision_prob=draw(st.floats(0.05, 1.0)), **window))
    return config, NetworkFaultPlan(faults)


class TestWaveWall:
    @settings(deadline=None, max_examples=200)
    @given(fleet=fleets(), observed=st.booleans())
    @example(
        fleet=(
            FleetConfig(n_readers=3, n_tags=300, duration_s=DURATION_S, queue_capacity=110,
                        reassoc_backoff_base_s=0.3, reassoc_backoff_factor=1.0,
                        reassoc_backoff_cap_s=0.3),
            NetworkFaultPlan([
                # Restarted before the check that detaches its orphans.
                ReaderCrash(reader_id=0, at_s=5.1, outage_s=0.2, recovery_s=0.0),
                ReaderOcclusion(reader_id=1, at_s=8.7, duration_s=0.1, snr_penalty_db=30.0),
            ]),
        ),
        observed=True,
    )
    def test_random_fleets_match_per_attempt(self, fleet, observed):
        config, plan = fleet
        assert_same_end_state(config, plan, observed)


class TestDirected:
    @pytest.mark.parametrize("n_tags", [24, 40])
    @pytest.mark.parametrize("capacity", [5, 10, 12])
    @pytest.mark.parametrize("scenario", network_scenario_names())
    def test_named_scenarios(self, scenario, capacity, n_tags):
        config = FleetConfig(n_readers=3, n_tags=n_tags, duration_s=DURATION_S,
                             queue_capacity=capacity)
        assert_same_end_state(config, network_scenario(scenario, DURATION_S))

    def test_binding_capacity_takes_both_paths(self):
        """A wave larger than the room left: the leading attempts are
        admitted in bulk, the rest one by one, and the end state still
        matches."""
        bulk: list[tuple[int, int]] = []

        class Spy(FleetSimulator):
            def _admit_in_bulk(self, tag_ids, times):
                n = super()._admit_in_bulk(tag_ids, times)
                bulk.append((n, tag_ids.size))
                return n

        config = FleetConfig(n_readers=3, n_tags=400, duration_s=DURATION_S,
                             queue_capacity=150)
        plan = network_scenario("reader_crash", DURATION_S)
        Spy(config, fault_plan=plan, root_seed=SEED).run()
        assert any(0 < n < size for n, size in bulk)
        wave = assert_same_end_state(config, plan, observed=True)
        assert wave["row"]["shed_associations"] > 0 and wave["row"]["handoffs"] > 0

    def test_wave_is_one_event(self):
        """The crash wave is queued once and popped once per window, yet
        ``events_processed`` counts every attempt."""
        config = FleetConfig(n_readers=3, n_tags=300, duration_s=DURATION_S,
                             queue_capacity=300)
        plan = network_scenario("reader_crash", DURATION_S)
        pops = {"wave": 0, "reassoc": 0}

        class Counting(FleetSimulator):
            def _dispatch(self, event, queue):
                if event.kind == "reassoc":
                    pops["wave" if "wave" in event.payload else "reassoc"] += 1
                super()._dispatch(event, queue)

        row = Counting(config, fault_plan=plan, root_seed=SEED).run().row()
        assert pops == {"wave": 1, "reassoc": 0}
        assert row["handoffs"] > 1
        assert row == assert_same_end_state(config, plan)["row"]

    def test_wave_keys_continue_the_sequence(self):
        """Pushes after a wave is queued get the seqs they got when the
        wave was one push per tag."""
        sim = FleetSimulator(FleetConfig(n_readers=3, n_tags=60), root_seed=SEED)
        sim._build()
        sim._associate_initial()
        for reader in sim.readers[1:]:
            sim._poll_round(reader, 9.0)
        reader = sim.readers[0]
        members = sorted(reader.schedule)
        reader.crash()
        queue = EventQueue()
        sim._tag_check(now=10.0, queue=queue)
        assert len(queue) == 1
        wave = queue.pop().payload["wave"]
        assert sorted(wave.tag_ids.tolist()) == members
        assert sorted(wave.seqs.tolist()) == list(range(len(members)))
        assert np.all(np.diff(wave.times) >= 0)
        assert queue.push(11.0, "x").seq == len(members)
