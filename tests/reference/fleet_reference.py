"""The fleet served through the frozen scalar per-tag link path.

:class:`ReferenceFleetSimulator` runs the same timeline as
:class:`~repro.network.fleet.FleetSimulator` — events, association,
heartbeats and handoff bookkeeping are inherited — but attaches one
:class:`~reference.link_reference.ReferenceTagLinkState` per tag and serves
each round one Python call per slot.  The equivalence wall
(``tests/network/test_linkstore_equivalence.py``), the fleet golden and
``benchmarks/bench_fleet_scale.py`` compare the vectorized store path
against it bit for bit.

It also re-associates a detach wave one event per tag:
:class:`PerTagCheckMixin` holds the heartbeat check as it was before waves
became one array event, and :class:`PerAttemptFleetSimulator` is the
production fleet with only that check swapped in, which
``tests/network/test_reassoc_wave.py`` and ``bench_fleet_scale.py
--failover`` compare the wave against.

The serve loop and the check are part of the executable spec: do not
optimise them.
"""

from __future__ import annotations

from repro.network.core import EventQueue
from repro.network.fleet import FleetResult, FleetSimulator, TagTable
from repro.network.reader import Reader

from reference.link_reference import ReferenceTagLinkState

__all__ = [
    "PerAttemptFleetSimulator",
    "PerTagCheckMixin",
    "ReferenceFleetSimulator",
    "fleet_end_state",
]

_TAG_ARRAYS = (
    "reader", "heard_floor", "silent_since", "prev_reader", "reassoc_attempts",
    "detaches", "orphans",
)
_READER_FIELDS = (
    "health", "next_slot", "max_queue_depth", "pending_discovery",
    "last_beacon", "frames_served", "airtime_s", "shed_associations",
    "shed_discovery", "discovery_served",
)


def fleet_end_state(sim: FleetSimulator, result: FleetResult) -> dict:
    """What a run leaves behind, comparable with ``==``: ``row()``, the
    transition and handoff logs, every tag-table array (as bytes, so
    floats compare bit for bit) and each reader's schedule and counters."""
    tags = sim.tags
    tags.take_orphans()
    return {
        "row": result.row(),
        "transitions": result.transitions,
        "handoff_log": result.handoff_log,
        "tags": {name: getattr(tags, name).tobytes() for name in _TAG_ARRAYS},
        "readers": [
            {"schedule": r.schedule.tolist(), **{f: getattr(r, f) for f in _READER_FIELDS}}
            for r in sim.readers
        ],
    }


class PerTagCheckMixin:
    """The heartbeat check that queues one ``reassoc`` event per stale tag."""

    def _tag_check(self, now: float, queue: EventQueue) -> None:
        """Heartbeat-missed detection, in tag-id order.

        The stale set comes from the orphans and silent readers only
        (:meth:`TagTable.silent`); the detach writes are array assignments
        over it and the whole wave's backoff jitters are one bulk draw, one
        per tag from its own stream.  Only the schedule drop, the observer
        count and the push stay per stale tag.
        """
        cfg = self.config
        tags = self.tags
        stale = tags.silent(now, cfg.heartbeat_miss_threshold * cfg.round_interval_s)
        if not stale.size:
            return
        # Reader lost: detach and start re-association.
        lost = tags.reader[stale]
        tags.silent_since[stale] = tags.heard_floor[stale]
        tags.prev_reader[stale] = lost
        tags.reader[stale] = -1
        tags.reassoc_attempts[stale] = 0
        tags.detaches[stale] += 1  # stale ids are distinct
        jitter = 0.5 + self._tag_rngs.random_each(stale)  # in [0.5, 1.5)
        times = (now + self._backoff_s(0) * jitter).tolist()
        for tag_id, reader_id, t in zip(stale.tolist(), lost.tolist(), times):  # tag-id order
            self.readers[reader_id].drop(tag_id)
            if self.obs.enabled:
                self.obs.count("network.detach_total")
            if t <= cfg.duration_s:
                queue.push(t, "reassoc", tag_id=tag_id)


class PerAttemptFleetSimulator(PerTagCheckMixin, FleetSimulator):
    """The production fleet, re-associating each detached tag as its own event."""


class ReferenceFleetSimulator(PerTagCheckMixin, FleetSimulator):
    """A :class:`FleetSimulator` whose tags carry scalar link objects and
    whose detach waves are one event per tag."""

    def _build(self) -> None:
        super()._build()
        cfg = self.config
        self._links = [
            ReferenceTagLinkState(
                self.profile,
                payload_bytes=cfg.payload_bytes,
                overhead_s=cfg.overhead_s,
                raise_after=cfg.raise_after,
                fail_threshold=cfg.fail_threshold,
                recover_after=cfg.recover_after,
            )
            for _ in range(cfg.n_tags)
        ]
        self.tags = TagTable(
            self.tags.position_m, self._links.__getitem__, self.handoff_log, self.readers
        )

    def run(self) -> FleetResult:
        """Run, then present the scalar links' counters through the result's
        store, which every aggregate and ``row()`` read."""
        result = super().run()
        for counter in ("delivered", "abandoned", "attempts"):
            getattr(result.store, counter)[:] = [
                getattr(link, counter) for link in self._links
            ]
        return result

    def _serve(self, reader: Reader, used: float, budget_s: float):
        """Frozen scalar data service — one Python call per served slot."""
        served = 0
        for tag_id in reader.service_order():
            link = self._links[tag_id]
            airtime = link.frame_airtime_s()
            if used + airtime > budget_s:
                break
            snr = float(self._snr[tag_id, reader.reader_id]) - reader.occlusion_db
            outcome = link.attempt_frame(
                snr, self._tag_rngs[tag_id], extra_fail_prob=reader.collision_prob
            )
            used += outcome.airtime_s
            served += 1
            if self.record_frames:
                self.frame_log.append(outcome)
            if self.obs.enabled:
                label = "delivered" if outcome.delivered else (
                    "abandoned" if outcome.abandoned else "retry"
                )
                self.obs.count(
                    "network.frames_total", outcome=label, reader=str(reader.reader_id)
                )
        return served, used
