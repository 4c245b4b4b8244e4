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

The schedule is one int64 buffer, grown by doubling up to ``capacity``,
plus a membership mask indexed by tag id: admitting a whole wave is one
slice write and one mask scatter, and a million-tag schedule holds no
Python object per tag.
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

    #: The schedule is ``_buf[:_n]``; the buffer grows by doubling.
    _buf: np.ndarray = field(init=False, repr=False, compare=False)
    _n: int = field(init=False, repr=False, compare=False)
    #: ``_member[t]``: tag ``t`` is on the schedule (False past the end).
    _member: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigError("reader capacity must be >= 1")
        if self.discovery_queue_cap < 0:
            raise ConfigError("discovery_queue_cap must be >= 0")
        self._buf = np.empty(0, dtype=np.int64)
        self._n = 0
        self._member = np.zeros(0, dtype=bool)

    @property
    def schedule(self) -> np.ndarray:
        """Associated tag ids in admission order (the TDMA schedule).

        A read-only int64 view of the buffer, valid until the next
        admission, drop or crash: copy it to keep it."""
        view = self._buf[: self._n]
        view.flags.writeable = False
        return view

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
        if self._n:
            lost = self.schedule.copy()
            self.lost.append((lost, self.last_beacon))
            self._member[lost] = False
        self.health = ReaderHealth.DOWN
        self._n = 0
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
        if self.is_member(tag_id):
            return True
        if self._n >= self.capacity:
            self.shed_associations += 1
            return False
        self._reserve(self._n + 1, tag_id, tag_id)
        self._buf[self._n] = tag_id
        self._member[tag_id] = True
        self._n += 1
        self.max_queue_depth = max(self.max_queue_depth, self._n)
        return True

    def admit_many(self, tag_ids: np.ndarray) -> None:
        """Admit distinct non-member tags in order, as ``admit`` one at a
        time would when every one of them fits (the caller checks room)."""
        if not tag_ids.size:
            return
        n = self._n + tag_ids.size
        if not self.beaconing or n > self.capacity:
            raise ValueError(f"reader {self.reader_id} cannot admit {tag_ids.size} tags")
        self._reserve(n, int(tag_ids.min()), int(tag_ids.max()))
        self._buf[self._n : n] = tag_ids
        self._member[tag_ids] = True
        self._n = n
        self.max_queue_depth = max(self.max_queue_depth, n)

    def _reserve(self, n: int, low_id: int, top_id: int) -> None:
        """Grow the buffer to hold ``n`` tags and the mask to index ``top_id``."""
        if low_id < 0:
            raise ValueError(f"tag ids must be non-negative, got {low_id}")
        if n > self._buf.size:
            buf = np.empty(min(max(n, 2 * self._buf.size), self.capacity), dtype=np.int64)
            buf[: self._n] = self._buf[: self._n]
            self._buf = buf
        if top_id >= self._member.size:
            mask = np.zeros(max(top_id + 1, 2 * self._member.size), dtype=bool)
            mask[: self._member.size] = self._member
            self._member = mask

    def is_member(self, tag_id: int) -> bool:
        """Whether ``tag_id`` is on the schedule (O(1))."""
        return 0 <= tag_id < self._member.size and bool(self._member[tag_id])

    def drop(self, tag_id: int) -> None:
        """Remove a tag from the schedule (detach / handoff away)."""
        if not self.is_member(tag_id):
            return
        sched = self._buf[: self._n]
        idx = int(np.flatnonzero(sched == tag_id)[0])
        sched[idx:-1] = sched[idx + 1 :]
        self._n -= 1
        self._member[tag_id] = False
        if idx < self.next_slot:
            self.next_slot -= 1
        self.next_slot = self.next_slot % self._n if self._n else 0

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
        if not self._n:
            return []
        sched = self.schedule
        start = self.next_slot % self._n
        return sched[start:].tolist() + sched[:start].tolist()

    def advance_rotation(self, n_served: int) -> None:
        """Rotate the service origin past the tags served this round."""
        if self._n:
            self.next_slot = (self.next_slot + n_served) % self._n
