"""One reader in the fleet: health lifecycle, TDMA schedule, admission.

The health state machine is the fault-tolerance contract's backbone::

    HEALTHY <-> DEGRADED        (occlusion / schedule corruption)
    any     ->  DOWN            (crash)
    DOWN    ->  RECOVERING      (restart: beacon on air, re-admitting)
    RECOVERING -> HEALTHY       (recovery timer expires)

A DOWN reader is invisible — no beacon, no service; its schedule state is
lost with the process.  A RECOVERING reader beacons and admits tags but
serves data at a reduced airtime budget.  DEGRADED readers serve normally
but their links carry the occlusion SNR penalty and/or corruption
collision probability.

Admission control is a bounded queue with a deterministic shed policy:
the schedule holds at most ``capacity`` tags and the discovery backlog at
most ``discovery_queue_cap`` requests; arrivals beyond either bound are
shed immediately (shed-new) and counted — overload degrades goodput
gracefully instead of collapsing the schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.errors import ConfigError

__all__ = ["Reader", "ReaderHealth"]


class ReaderHealth(str, Enum):
    """Lifecycle states of a reader."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DOWN = "down"
    RECOVERING = "recovering"


@dataclass
class Reader:
    """Reader state: identity, geometry, health, schedule, counters."""

    reader_id: int
    position_m: float
    capacity: int = 16
    discovery_queue_cap: int = 64

    health: ReaderHealth = ReaderHealth.HEALTHY
    #: Associated tag ids, in admission order (the TDMA schedule).
    schedule: list[int] = field(default_factory=list)
    #: Membership mirror of :attr:`schedule` so admission checks are O(1)
    #: — a 100k-tag association wave is otherwise quadratic in the list.
    _members: set[int] = field(default_factory=set, repr=False, compare=False)
    #: Cached ndarray mirror of :attr:`schedule` (None = stale), so the
    #: per-round beacon/serve paths never rebuild a big array per round.
    _sched_arr: np.ndarray | None = field(default=None, repr=False, compare=False)
    #: Round-robin rotation offset so budget-limited rounds are fair.
    next_slot: int = 0
    #: Pending discovery requests (admission queue for joins/storms).
    pending_discovery: int = 0
    #: Occlusion penalty on every link through this reader (dB).
    occlusion_db: float = 0.0
    #: Extra per-frame collision probability while schedule is corrupted.
    collision_prob: float = 0.0
    #: When this reader last beaconed (-inf: never).  Every member of the
    #: schedule heard it, so one float stands in for a per-tag write.
    last_beacon: float = -math.inf
    #: Schedules lost to crashes, each with the last beacon before that
    #: crash, kept until the fleet's bookkeeping takes them.
    lost: list[tuple[np.ndarray, float]] = field(
        default_factory=list, repr=False, compare=False
    )

    # ------------------------------------------------------------- counters
    frames_served: int = 0
    airtime_s: float = 0.0
    shed_associations: int = 0
    shed_discovery: int = 0
    discovery_served: int = 0
    max_queue_depth: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigError("reader capacity must be >= 1")
        if self.discovery_queue_cap < 0:
            raise ConfigError("discovery_queue_cap must be >= 0")
        self._members = set(self.schedule)

    # --------------------------------------------------------------- health

    @property
    def beaconing(self) -> bool:
        """Whether tags can hear this reader at all."""
        return self.health is not ReaderHealth.DOWN

    @property
    def impaired(self) -> bool:
        """Whether an occlusion or corruption impairment is active."""
        return self.occlusion_db > 0.0 or self.collision_prob > 0.0

    def settle_health(self) -> None:
        """Re-derive HEALTHY/DEGRADED from active impairments.

        Never touches DOWN/RECOVERING — those are lifecycle states owned
        by crash/restart events, not impairment bookkeeping.
        """
        if self.health in (ReaderHealth.DOWN, ReaderHealth.RECOVERING):
            return
        self.health = ReaderHealth.DEGRADED if self.impaired else ReaderHealth.HEALTHY

    def crash(self) -> None:
        """Process death: schedule state is lost with the process.

        The lost schedule and the last beacon its members heard go to
        :attr:`lost`, for the fleet to turn those tags into orphans."""
        if self.schedule:
            self.lost.append((self.schedule_array(), self.last_beacon))
        self.health = ReaderHealth.DOWN
        self.schedule.clear()
        self._members.clear()
        self._sched_arr = None
        self.next_slot = 0
        self.pending_discovery = 0

    def restart(self) -> None:
        """Back on air, re-admitting, at reduced service."""
        if self.health is ReaderHealth.DOWN:
            self.health = ReaderHealth.RECOVERING

    def recovered(self) -> None:
        """Recovery timer expired; settle into HEALTHY/DEGRADED."""
        if self.health is ReaderHealth.RECOVERING:
            self.health = ReaderHealth.HEALTHY
            self.settle_health()

    # ------------------------------------------------------------ admission

    def admit(self, tag_id: int) -> bool:
        """Bounded-queue admission: shed-new beyond ``capacity``."""
        if not self.beaconing:
            return False
        if tag_id in self._members:
            return True
        if len(self.schedule) >= self.capacity:
            self.shed_associations += 1
            return False
        self.schedule.append(tag_id)
        self._members.add(tag_id)
        self._sched_arr = None
        self.max_queue_depth = max(self.max_queue_depth, len(self.schedule))
        return True

    def admit_many(self, tag_ids: np.ndarray) -> None:
        """Admit distinct non-member tags in order, as ``admit`` one at a
        time would when every one of them fits (the caller checks room)."""
        if not tag_ids.size:
            return
        if not self.beaconing or len(self.schedule) + tag_ids.size > self.capacity:
            raise ValueError(f"reader {self.reader_id} cannot admit {tag_ids.size} tags")
        ids = tag_ids.tolist()
        self.schedule.extend(ids)
        self._members.update(ids)
        self._sched_arr = None
        self.max_queue_depth = max(self.max_queue_depth, len(self.schedule))

    def is_member(self, tag_id: int) -> bool:
        """Whether ``tag_id`` is on the schedule (O(1))."""
        return tag_id in self._members

    def drop(self, tag_id: int) -> None:
        """Remove a tag from the schedule (detach / handoff away)."""
        if tag_id in self._members:
            idx = self.schedule.index(tag_id)
            self.schedule.remove(tag_id)
            self._members.discard(tag_id)
            self._sched_arr = None
            if idx < self.next_slot:
                self.next_slot -= 1
            if self.schedule:
                self.next_slot %= len(self.schedule)
            else:
                self.next_slot = 0

    def admit_discovery(self, n_requests: int) -> tuple[int, int]:
        """Queue discovery requests up to the cap; shed the rest.

        Returns ``(queued, shed)``."""
        room = max(self.discovery_queue_cap - self.pending_discovery, 0)
        queued = min(n_requests, room)
        shed = n_requests - queued
        self.pending_discovery += queued
        self.shed_discovery += shed
        return queued, shed

    # ----------------------------------------------------------- scheduling

    def service_order(self) -> list[int]:
        """This round's schedule, rotated so unserved tags go first next
        time (deterministic round-robin fairness under airtime budget)."""
        n = len(self.schedule)
        if n == 0:
            return []
        start = self.next_slot % n
        return self.schedule[start:] + self.schedule[:start]

    def schedule_array(self) -> np.ndarray:
        """The schedule as an int64 ndarray (cached until mutated)."""
        if self._sched_arr is None:
            self._sched_arr = np.asarray(self.schedule, dtype=np.int64)
        return self._sched_arr

    def advance_rotation(self, n_served: int) -> None:
        """Rotate the service origin past the tags served this round."""
        if self.schedule:
            self.next_slot = (self.next_slot + n_served) % len(self.schedule)
