"""Multi-reader fleet simulator: tags, readers, chaos — deterministically.

This is the network layer's integration point.  A :class:`FleetSimulator`
hosts ``n_readers`` readers and ``n_tags`` tags on one discrete-event
timeline (:mod:`repro.network.core`), drives per-tag link adaptation
through a struct-of-arrays :class:`~repro.network.linkstore.LinkStateStore`,
and plays a :class:`~repro.faults.network.NetworkFaultPlan` against the
deployment.

The fault-tolerance contract it implements:

* **Heartbeat-missed detection** — a tag that has not heard its reader's
  beacon for ``heartbeat_miss_threshold`` round intervals detaches and
  starts re-association.
* **Seeded-exponential-backoff re-association** — retry delays are drawn
  from the *tag's own* SeedSequence stream, so recovery timing is a pure
  function of the root seed.
* **Handoff without state loss** — the tag's link state (rate rung, ARQ
  window, watchdog hysteresis) migrates untouched to the new reader; only
  discovery latency is paid.
* **Admission control / load shedding** — bounded schedules and discovery
  queues shed deterministically (shed-new) instead of collapsing.
* **Graceful degradation** — a RECOVERING reader serves at a reduced
  airtime duty; DEGRADED readers serve with SNR/collision impairments.

Determinism: every random draw comes from an index-derived per-entity
stream (:func:`~repro.network.core.spawn_streams`); event ties resolve by
scheduling order; metrics never touch RNG.  A run is therefore a pure
function of ``(config, fault_plan, root_seed)`` — the property the
handoff-determinism and sweep bit-identity tests pin.

A reader's whole round is one
:meth:`~repro.network.linkstore.LinkStateStore.serve_round` kernel call
(tags ride along as :class:`~repro.network.linkstore.TagLinkView` windows,
so handoff just migrates the link object).  It draws exactly one uniform
per served slot from the served tag's own stream, in service order, so it
is *bit-identical* to the frozen scalar per-tag path — same per-tag
snapshots, same ``FrameOutcome`` sequences, same ``timeline_digest`` —
which ``tests/network/test_linkstore_equivalence.py`` enforces against a
test-side subclass that overrides :meth:`FleetSimulator._serve` with that
path.

The per-tag association bookkeeping is kept in a
:class:`TagTable` of parallel arrays so a run's cost follows the tags it
touches, not ``n_tags``; ``sim.tags[i]`` is a :class:`TagState` view over
one row, built on first access.  A beacon writes one time on its reader,
not one per scheduled tag, and the heartbeat check looks only at tags that
can have gone silent: orphans of a crashed reader, and the members of a
reader that has stopped beaconing.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, FailureReason, FailureStage
from repro.faults.network import NetworkFaultPlan
from repro.mac.rate_adapt import LinkProfile, default_profile
from repro.network.core import Event, EventQueue, spawn_streams
from repro.network.linkstore import FrameOutcome, LinkStateStore, TagLinkView
from repro.network.reader import Reader, ReaderHealth
from repro.obs import Observer, ensure_observer
from repro.optics.retroreflector import LinkBudget
from repro.utils.opcache import fingerprint

__all__ = ["FleetConfig", "FleetResult", "FleetSimulator", "TagState"]

#: Minimum tag-reader distance fed to the link budget (tags directly under
#: a luminaire still see a finite SNR, not a singularity).
_MIN_DISTANCE_M = 0.5


@dataclass(frozen=True)
class FleetConfig:
    """Deployment geometry, MAC timing, and fault-tolerance knobs."""

    n_readers: int = 3
    n_tags: int = 12
    duration_s: float = 30.0
    #: TDMA round cadence per reader; also the beacon (heartbeat) period.
    round_interval_s: float = 1.0
    reader_spacing_m: float = 3.0

    # Fault-tolerance contract.
    heartbeat_miss_threshold: int = 3
    reassoc_backoff_base_s: float = 0.25
    reassoc_backoff_factor: float = 2.0
    reassoc_backoff_cap_s: float = 2.0

    # Admission control.
    queue_capacity: int = 16
    discovery_queue_cap: int = 64
    discovery_budget_frac: float = 0.25
    discovery_cost_s: float = 0.005

    # Service model.
    airtime_duty: float = 0.5
    recovering_duty_factor: float = 0.5
    payload_bytes: int = 32
    overhead_s: float = 0.01
    raise_after: int = 3
    fail_threshold: int = 3
    recover_after: int = 3

    def __post_init__(self) -> None:
        # Every float is range-checked with comparisons that NaN fails
        # (all of them are False for NaN) and that stop short of inf.
        if self.n_readers < 1:
            raise ConfigError("n_readers must be >= 1")
        if self.n_tags < 1:
            raise ConfigError("n_tags must be >= 1")
        if not 0 < self.duration_s < math.inf:
            raise ConfigError("duration_s must be positive and finite")
        if not 0 < self.round_interval_s < math.inf:
            raise ConfigError("round_interval_s must be positive and finite")
        if not 0 < self.reader_spacing_m < math.inf:
            raise ConfigError("reader_spacing_m must be positive and finite")
        if self.heartbeat_miss_threshold < 1:
            raise ConfigError("heartbeat_miss_threshold must be >= 1")
        if not 0 < self.reassoc_backoff_base_s < math.inf:
            raise ConfigError("reassoc_backoff_base_s must be positive and finite")
        if not 1.0 <= self.reassoc_backoff_factor < math.inf:
            raise ConfigError("reassoc_backoff_factor must be >= 1 and finite")
        if not self.reassoc_backoff_base_s <= self.reassoc_backoff_cap_s < math.inf:
            raise ConfigError("reassoc_backoff_cap_s must be >= base and finite")
        if not 0.0 < self.airtime_duty <= 1.0:
            raise ConfigError("airtime_duty must be in (0, 1]")
        if not 0.0 < self.recovering_duty_factor <= 1.0:
            raise ConfigError("recovering_duty_factor must be in (0, 1]")
        if not 0.0 <= self.discovery_budget_frac <= 1.0:
            raise ConfigError("discovery_budget_frac must be in [0, 1]")
        if not 0 < self.discovery_cost_s < math.inf:
            raise ConfigError("discovery_cost_s must be positive and finite")
        if not math.isfinite(self.overhead_s):
            raise ConfigError("overhead_s must be finite")

    @property
    def span_m(self) -> float:
        """Deployment extent: readers at ``(i + 0.5) * spacing``."""
        return self.n_readers * self.reader_spacing_m


class TagState:
    """Fleet-side view of one tag: placement, association, link state.

    A live ``__slots__`` view over one row of the fleet's :class:`TagTable`:
    it is built on first access and cached, so ``sim.tags[i] is
    sim.tags[i]`` and ``tag.link is tag.link``, and every read reflects the
    table as it is now.  Handoff counts and latencies come from the fleet's
    handoff log.
    """

    __slots__ = ("_table", "tag_id", "link")

    def __init__(self, table: TagTable, tag_id: int, link: TagLinkView):
        self._table = table
        self.tag_id = tag_id
        #: The migration-safe link state: a window onto the fleet's store.
        self.link = link

    @property
    def position_m(self) -> float:
        return float(self._table.position_m[self.tag_id])

    @property
    def reader_id(self) -> int | None:
        """Current reader, or None while detached / re-associating."""
        reader = int(self._table.reader[self.tag_id])
        return None if reader < 0 else reader

    @property
    def last_heard(self) -> float:
        """Last time this tag heard its reader's beacon."""
        table = self._table
        table.take_orphans()
        heard = float(table.heard_floor[self.tag_id])
        reader_id = int(table.reader[self.tag_id])
        if reader_id >= 0 and table.readers[reader_id].is_member(self.tag_id):
            heard = max(heard, table.readers[reader_id].last_beacon)
        return heard

    @property
    def silent_since(self) -> float | None:
        """When the (now lost) reader was last heard — handoff latency anchor."""
        since = float(self._table.silent_since[self.tag_id])
        return None if math.isnan(since) else since

    @property
    def prev_reader(self) -> int:
        """The reader lost most recently (-1: never associated)."""
        return int(self._table.prev_reader[self.tag_id])

    @property
    def reassoc_attempts(self) -> int:
        return int(self._table.reassoc_attempts[self.tag_id])

    @property
    def detaches(self) -> int:
        return int(self._table.detaches[self.tag_id])

    @property
    def handoffs(self) -> int:
        return len(self._table.handoff_latencies(self.tag_id))

    @property
    def handoff_latencies(self) -> list[float]:
        return list(self._table.handoff_latencies(self.tag_id))


class TagTable:
    """The fleet's per-tag state as parallel arrays; tag id indexes each.

    Indexing or iterating yields cached :class:`TagState` views, built on
    first touch — a million-tag run pays for the rows someone looks at,
    not for a million objects.  ``reader`` is -1 and ``silent_since`` NaN
    where the scalar view reads None.

    A beacon reaches every member of its reader's schedule, so the table
    stores one time per tag and lets the reader's ``last_beacon`` stand in
    for the rest: ``heard_floor`` is a member's admission time and every
    other tag's last heard beacon, and a member has heard the later of the
    two.  Tags whose reader crashed under them are *orphans* until the
    heartbeat detaches them; the crash freezes what each one heard.
    """

    def __init__(self, position_m: np.ndarray, link_of, handoff_log: list, readers: list):
        n = position_m.shape[0]
        self.position_m = position_m
        self.reader = np.full(n, -1, dtype=np.int64)
        #: A member's admission time, any other tag's last heard beacon;
        #: ``TagState.last_heard`` is the only reading of "last heard".
        self.heard_floor = np.zeros(n, dtype=np.float64)
        self.silent_since = np.full(n, np.nan, dtype=np.float64)
        self.prev_reader = np.full(n, -1, dtype=np.int64)
        self.reassoc_attempts = np.zeros(n, dtype=np.int64)
        self.detaches = np.zeros(n, dtype=np.int64)
        #: The simulator's append-only ``(time, tag_id, from, to, latency)``
        #: log (the same list object), indexed by tag on demand.
        self.handoff_log = handoff_log
        self.readers = readers
        #: Orphan tag ids, in no particular order.
        self.orphans = np.empty(0, dtype=np.int64)
        self._link_of = link_of
        self._views: dict[int, TagState] = {}
        self._latencies: dict[int, list[float]] = {}
        self._indexed = 0

    def __len__(self) -> int:
        return self.position_m.shape[0]

    def __getitem__(self, tag_id: int) -> TagState:
        n = len(self)
        index = operator.index(tag_id)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(f"tag {tag_id} out of range ({n} tags)")
        view = self._views.get(index)
        if view is None:
            view = self._views[index] = TagState(self, index, self._link_of(index))
        return view

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def take_orphans(self) -> None:
        """Freeze what each member of a crashed schedule heard; orphan them."""
        for reader in self.readers:
            for ids, beacon in reader.lost:
                self.heard_floor[ids] = np.maximum(self.heard_floor[ids], beacon)
                self.orphans = np.concatenate([self.orphans, ids])
            reader.lost.clear()

    def silent(self, now: float, deadline: float) -> np.ndarray:
        """Associated tags that heard nothing for over ``deadline``, by id.

        Only orphans and the members of a reader silent for over
        ``deadline`` can qualify, since a member has heard at least its
        reader's last beacon.  The stale rows' ``heard_floor`` is brought
        up to what they heard, as they are about to leave their schedules.
        """
        self.take_orphans()
        parts = []
        if self.orphans.size:
            gone = now - self.heard_floor[self.orphans] > deadline
            parts.append(self.orphans[gone])
            self.orphans = self.orphans[~gone]
        for reader in self.readers:
            if reader.schedule and now - reader.last_beacon > deadline:
                ids = reader.schedule_array()
                heard = np.maximum(self.heard_floor[ids], reader.last_beacon)
                stale = now - heard > deadline
                self.heard_floor[ids[stale]] = heard[stale]
                parts.append(ids[stale])
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(parts))

    def handoff_latencies(self, tag_id: int) -> list[float]:
        """One tag's handoff latencies, in time order (do not mutate)."""
        log = self.handoff_log
        for _, tid, _, _, latency in log[self._indexed :]:
            self._latencies.setdefault(tid, []).append(latency)
        self._indexed = len(log)
        return self._latencies.get(tag_id, [])


@dataclass
class FleetResult:
    """Everything a fleet run produced, plus a flat ``row()`` for sweeps."""

    config: FleetConfig
    root_seed: int
    fault_names: list[str]
    tags: TagTable
    readers: list[Reader]
    #: Reader health transitions: ``(time, reader_id, old, new)``.
    transitions: list[tuple[float, int, str, str]]
    #: Handoffs: ``(time, tag_id, from_reader, to_reader, latency_s)``.
    handoff_log: list[tuple[float, int, int, int, float]]
    events_processed: int
    #: The struct-of-arrays link store the run served through.
    store: LinkStateStore

    # ------------------------------------------------------------ aggregates

    def _per_tag(self, counter: str) -> np.ndarray:
        """One link counter per tag id (int64, length ``n_tags``)."""
        return getattr(self.store, counter)

    @property
    def delivered(self) -> int:
        return int(self._per_tag("delivered").sum())

    @property
    def abandoned(self) -> int:
        return int(self._per_tag("abandoned").sum())

    @property
    def attempts(self) -> int:
        return int(self._per_tag("attempts").sum())

    def per_tag_delivered(self) -> np.ndarray:
        """Delivered-frame count per tag id (int64, length ``n_tags``)."""
        return self._per_tag("delivered").copy()

    @property
    def fairness_jain(self) -> float:
        """Jain fairness index over per-tag delivered frames.

        ``(sum x)^2 / (n * sum x^2)`` in [1/n, 1]; defined as 1.0 (perfect
        fairness, vacuously) when nothing was delivered at all.  Computed
        from exact integer counts, so it is worker-invariant.
        """
        x = self.per_tag_delivered()
        total = int(x.sum())
        if total == 0:
            return 1.0
        return float(total) ** 2 / (len(x) * float((x * x).sum()))

    def _goodput_scale_bps(self) -> float:
        return self.config.payload_bytes * 8 / self.config.duration_s

    @property
    def goodput_min_bps(self) -> float:
        """The worst-served tag's goodput — the fairness floor."""
        return float(self.per_tag_delivered().min()) * self._goodput_scale_bps()

    @property
    def goodput_median_bps(self) -> float:
        """Median per-tag goodput (typical tag, robust to stragglers)."""
        return float(np.median(self.per_tag_delivered())) * self._goodput_scale_bps()

    @property
    def goodput_bps(self) -> float:
        """Aggregate delivered payload rate over the whole run."""
        bits = self.delivered * self.config.payload_bytes * 8
        return bits / self.config.duration_s

    @property
    def handoffs(self) -> int:
        return len(self.handoff_log)

    @property
    def unassociated_tags(self) -> list[int]:
        """Tags without a reader when the run ended."""
        return (self.tags.reader < 0).nonzero()[0].tolist()

    @property
    def orphaned_tags(self) -> list[int]:
        """The contract violation: tags left unassociated at end of run
        while at least one HEALTHY reader had schedule room.  Tags shed by
        a *full* fleet are load shedding (bounded overload), not orphans —
        the invariant is "no tag starves while capacity exists"."""
        if not any(
            r.health is ReaderHealth.HEALTHY and len(r.schedule) < r.capacity
            for r in self.readers
        ):
            return []
        return self.unassociated_tags

    def check_contract(self) -> FailureReason | None:
        """Classified violation of the no-orphans invariant, or None."""
        orphans = self.orphaned_tags
        if orphans:
            return FailureReason(
                FailureStage.NETWORK,
                "orphaned_tags",
                f"{len(orphans)} tag(s) permanently orphaned with a "
                f"HEALTHY reader available: {orphans}",
            )
        return None

    def row(self) -> dict:
        """Flat JSON-safe scalars — the sweep/journal record for this run.

        Includes a ``timeline_digest`` fingerprint of the transition and
        handoff logs so bit-identity tests can compare full dynamics, not
        just endpoint counters, across worker counts and resume, and an
        ``outcome_digest`` of every tag's delivered/abandoned/attempts
        counters, which the timeline does not see."""
        # Tag-id-major, chronological within a tag (a stable sort): the
        # float sum below depends on this order.
        by_tag = sorted(self.handoff_log, key=operator.itemgetter(1))
        latencies = [entry[4] for entry in by_tag]
        return {
            "n_readers": self.config.n_readers,
            "n_tags": self.config.n_tags,
            "duration_s": self.config.duration_s,
            "root_seed": self.root_seed,
            "faults": ",".join(self.fault_names),
            "delivered": self.delivered,
            "abandoned": self.abandoned,
            "attempts": self.attempts,
            "goodput_bps": self.goodput_bps,
            "airtime_s": sum(r.airtime_s for r in self.readers),
            "frames_served": sum(r.frames_served for r in self.readers),
            "handoffs": self.handoffs,
            "detaches": int(self.tags.detaches.sum()),
            "handoff_latency_mean_s": (
                float(sum(latencies) / len(latencies)) if latencies else 0.0
            ),
            "handoff_latency_max_s": float(max(latencies)) if latencies else 0.0,
            "shed_associations": sum(r.shed_associations for r in self.readers),
            "shed_discovery": sum(r.shed_discovery for r in self.readers),
            "discovery_served": sum(r.discovery_served for r in self.readers),
            "fairness_jain": self.fairness_jain,
            "goodput_min_bps": self.goodput_min_bps,
            "goodput_median_bps": self.goodput_median_bps,
            "orphaned_tags": len(self.orphaned_tags),
            "unassociated_tags": len(self.unassociated_tags),
            "transitions": len(self.transitions),
            "events_processed": self.events_processed,
            "timeline_digest": fingerprint(self.transitions, self.handoff_log),
            "outcome_digest": fingerprint(
                self._per_tag("delivered"),
                self._per_tag("abandoned"),
                self._per_tag("attempts"),
            ),
        }


class FleetSimulator:
    """N readers x M tags under a seeded chaos plan, bit-reproducibly.

    Parameters
    ----------
    config:
        Deployment + contract knobs.
    fault_plan:
        Network-level chaos to play against the fleet (default: none).
    root_seed:
        Root of the SeedSequence tree; the *only* source of randomness.
    profile / budget:
        PHY rate ladder and distance->SNR model shared by every link.
    observer:
        Metrics sink; ``None`` means the no-op singleton.  Metrics are
        side-band only — enabling them never changes a single bit of the
        simulation (no RNG draws, no control flow).
    record_frames:
        When True, every served slot's :class:`FrameOutcome` is appended
        to :attr:`frame_log` in global service order — the per-frame
        evidence the equivalence tests compare.  Off by default (a
        million-tag run should not grow a Python list per slot).
    """

    def __init__(
        self,
        config: FleetConfig | None = None,
        fault_plan: NetworkFaultPlan | None = None,
        root_seed: int = 0,
        profile: LinkProfile | None = None,
        budget: LinkBudget | None = None,
        observer: Observer | None = None,
        record_frames: bool = False,
    ):
        self.config = config if config is not None else FleetConfig()
        self.fault_plan = fault_plan if fault_plan is not None else NetworkFaultPlan()
        if self.fault_plan.max_reader_id() >= self.config.n_readers:
            raise ConfigError(
                f"fault plan targets reader {self.fault_plan.max_reader_id()} "
                f"but the fleet has only {self.config.n_readers} readers"
            )
        self.root_seed = int(root_seed)
        self.profile = profile if profile is not None else default_profile()
        self.budget = budget if budget is not None else LinkBudget.wide_fov()
        self.obs = ensure_observer(observer)
        self.record_frames = bool(record_frames)
        #: Served slots in global service order (only when record_frames).
        self.frame_log: list[FrameOutcome] = []

    # ----------------------------------------------------------------- setup

    def _build(self) -> None:
        cfg = self.config
        self._tag_rngs, self._reader_rngs, self._fault_rng, deploy = spawn_streams(
            self.root_seed, cfg.n_tags, cfg.n_readers
        )
        self.readers = [
            Reader(
                reader_id=i,
                position_m=(i + 0.5) * cfg.reader_spacing_m,
                capacity=cfg.queue_capacity,
                discovery_queue_cap=cfg.discovery_queue_cap,
            )
            for i in range(cfg.n_readers)
        ]
        positions = deploy.uniform(0.0, cfg.span_m, size=cfg.n_tags)
        self._store = LinkStateStore(
            self.profile,
            cfg.n_tags,
            payload_bytes=cfg.payload_bytes,
            overhead_s=cfg.overhead_s,
            raise_after=cfg.raise_after,
            fail_threshold=cfg.fail_threshold,
            recover_after=cfg.recover_after,
        )
        # Static SNR matrix: geometry never changes mid-run; impairments
        # (occlusion dB) are applied per-frame on top.  One broadcast
        # snr_db call over the distance matrix (log10 vectorizes
        # elementwise-exact, so this matches the per-pair scalar build).
        reader_pos = np.asarray([r.position_m for r in self.readers])
        dist = np.maximum(
            np.abs(positions[:, None] - reader_pos[None, :]), _MIN_DISTANCE_M
        )
        self._snr = np.asarray(self.budget.snr_db(dist), dtype=np.float64)
        self.frame_log = []
        self.transitions: list[tuple[float, int, str, str]] = []
        self.handoff_log: list[tuple[float, int, int, int, float]] = []
        # Authoritative association bookkeeping, as arrays.
        self.tags = TagTable(positions, self._store.view, self.handoff_log, self.readers)
        self._events_processed = 0
        #: Per-reader discovery service cost (a storm can override it).
        self._discovery_cost = [cfg.discovery_cost_s] * cfg.n_readers

    def _schedule(self, queue: EventQueue) -> None:
        """Fixed-layout upfront schedule: faults, then rounds, then checks.

        Everything is pushed before the loop starts, in a deterministic
        order, so equal-time ties always resolve the same way: fault
        events fire before the poll round at the same instant."""
        cfg = self.config
        for t, kind, payload in self.fault_plan.events():
            if t <= cfg.duration_s:
                queue.push(t, kind, **payload)
        n_rounds = int(math.floor(cfg.duration_s / cfg.round_interval_s))
        for k in range(1, n_rounds + 1):
            t = k * cfg.round_interval_s
            for r in self.readers:
                queue.push(t, "poll_round", reader_id=r.reader_id)
        for k in range(1, n_rounds + 1):
            t = (k + 0.5) * cfg.round_interval_s
            if t <= cfg.duration_s:
                queue.push(t, "tag_check")

    def _associate_initial(self) -> None:
        """Best-SNR admission in tag-id order at t=0; shed tags enter the
        re-association loop immediately (their backoff starts at zero
        attempts, drawn from their own stream in the event loop)."""
        if self._associate_initial_batch():
            return
        for tag_id in range(self.config.n_tags):
            self._try_associate(tag_id, now=0.0, initial=True)
        self.tags.silent_since[self.tags.reader < 0] = 0.0

    def _associate_initial_batch(self) -> bool:
        """Whole-fleet t=0 admission in one argmax, when no queue fills.

        At t=0 every reader is HEALTHY and unimpaired (fault events have
        not fired — they are dispatched after association), so each tag's
        candidate order is ``(-snr, reader_id)`` and ``argmax`` over the
        static SNR matrix reproduces the sequential greedy pick exactly —
        *provided no reader overflows*, since then admission never sheds
        and later tags never spill to their second choice.  If any reader
        would overflow, fall back to the sequential path (returns False).
        """
        best = np.argmax(self._snr, axis=1)  # ties -> lowest reader id
        counts = np.bincount(best, minlength=len(self.readers))
        if any(
            int(counts[r.reader_id]) > r.capacity for r in self.readers
        ):
            return False
        for reader in self.readers:
            ids = (best == reader.reader_id).nonzero()[0]  # tag-id order
            reader.schedule.extend(ids.tolist())
            reader._members.update(reader.schedule)
            reader._sched_arr = None
            reader.max_queue_depth = max(reader.max_queue_depth, len(reader.schedule))
        self.tags.reader[:] = best
        return True

    # -------------------------------------------------------------- run loop

    def run(self) -> FleetResult:
        """Execute the timeline; returns the full :class:`FleetResult`."""
        self._build()
        queue = EventQueue()
        self._schedule(queue)
        self._associate_initial()
        # Shed tags from initial association retry via the event loop.
        for tag_id in (self.tags.reader < 0).nonzero()[0].tolist():
            self._schedule_reassoc(tag_id, 0, now=0.0, queue=queue)
        while len(queue):
            event = queue.pop()
            if event.time > self.config.duration_s:
                continue
            self._dispatch(event, queue)
            self._events_processed += 1
        result = FleetResult(
            config=self.config,
            root_seed=self.root_seed,
            fault_names=self.fault_plan.names,
            tags=self.tags,
            readers=self.readers,
            transitions=self.transitions,
            handoff_log=self.handoff_log,
            events_processed=self._events_processed,
            store=self._store,
        )
        if self.obs.enabled:
            self.obs.gauge("network.orphaned_tags", len(result.orphaned_tags))
            self.obs.gauge("network.unassociated_tags", len(result.unassociated_tags))
            for r in self.readers:
                self.obs.gauge(
                    "network.reader_queue_depth", len(r.schedule), reader=str(r.reader_id)
                )
                self.obs.gauge(
                    "network.reader_airtime_s", r.airtime_s, reader=str(r.reader_id)
                )
        return result

    def _dispatch(self, event: Event, queue: EventQueue) -> None:
        kind, p, now = event.kind, event.payload, event.time
        if kind == "poll_round":
            self._poll_round(self.readers[p["reader_id"]], now)
        elif kind == "tag_check":
            self._tag_check(now, queue)
        elif kind == "reassoc":
            self._reassoc_attempt(p["tag_id"], now, queue)
        elif kind == "reader_crash":
            self._with_transition(p["reader_id"], now, Reader.crash)
        elif kind == "reader_restart":
            self._with_transition(p["reader_id"], now, Reader.restart)
        elif kind == "reader_recovered":
            self._with_transition(p["reader_id"], now, Reader.recovered)
        elif kind == "corruption_start":
            self._impair(p["reader_id"], now, collision_prob=p["collision_prob"])
        elif kind == "corruption_end":
            self._impair(p["reader_id"], now, collision_prob=0.0)
        elif kind == "occlusion_start":
            self._impair(p["reader_id"], now, occlusion_db=p["snr_penalty_db"])
        elif kind == "occlusion_end":
            self._impair(p["reader_id"], now, occlusion_db=0.0)
        elif kind == "discovery_storm":
            self._discovery_storm(p, now)
        else:  # pragma: no cover - schedule bug, not reachable from API
            raise RuntimeError(f"unknown event kind {kind!r}")

    # ------------------------------------------------------------- handlers

    def _with_transition(self, reader_id: int, now: float, action) -> None:
        reader = self.readers[reader_id]
        old = reader.health
        action(reader)
        if reader.health is not old:
            self.transitions.append((now, reader_id, old.value, reader.health.value))
            if self.obs.enabled:
                self.obs.count(
                    "network.reader_transitions_total",
                    reader=str(reader_id),
                    to=reader.health.value,
                )

    def _impair(self, reader_id: int, now: float, **fields) -> None:
        def apply(reader: Reader) -> None:
            for name, value in fields.items():
                setattr(reader, name, value)
            reader.settle_health()

        self._with_transition(reader_id, now, apply)

    def _discovery_storm(self, payload: dict, now: float) -> None:
        reader = self.readers[payload["reader_id"]]
        self._discovery_cost[reader.reader_id] = payload["request_cost_s"]
        queued, shed = reader.admit_discovery(payload["n_requests"])
        if self.obs.enabled:
            self.obs.count(
                "network.discovery_requests_total",
                queued,
                reader=str(reader.reader_id),
                outcome="queued",
            )
            if shed:
                self.obs.count(
                    "network.shed_total", shed, kind="discovery", reader=str(reader.reader_id)
                )
        del now

    def _poll_round(self, reader: Reader, now: float) -> None:
        """One TDMA round: beacon, serve discovery backlog, serve data."""
        if not reader.beaconing:
            return
        cfg = self.config
        budget_s = cfg.airtime_duty * cfg.round_interval_s
        if reader.health is ReaderHealth.RECOVERING:
            budget_s *= cfg.recovering_duty_factor
        # Beacon: every scheduled tag hears its heartbeat (the tag table
        # reads it off the reader, so no per-tag write).
        reader.last_beacon = now
        used = 0.0
        # Discovery backlog first, capped so a storm cannot starve data.
        if reader.pending_discovery:
            cost = self._discovery_cost[reader.reader_id]
            disc_budget = cfg.discovery_budget_frac * budget_s
            n = min(reader.pending_discovery, int(disc_budget / cost))
            reader.pending_discovery -= n
            reader.discovery_served += n
            used += n * cost
        # Data slots, round-robin from the rotation point, until budget.
        served, used = self._serve(reader, used, budget_s)
        reader.advance_rotation(served)
        reader.frames_served += served
        reader.airtime_s += used

    def _serve(self, reader: Reader, used: float, budget_s: float):
        """Vectorized data service: the whole round is one kernel call.

        Returns ``(slots served, airtime used)``.  ``network.frames_total``
        is emitted as one batched count per (reader, outcome) per round —
        same totals and labels as a per-slot count, without a per-slot
        observer call.
        """
        if not reader.schedule:
            return 0, used
        rid = reader.reader_id
        res = self._store.serve_round(
            reader.schedule_array(),
            self._snr[:, rid],
            reader.occlusion_db,
            reader.collision_prob,
            budget_s,
            used,
            self._tag_rngs,
            reader_key=rid,
            start=reader.next_slot,
        )
        n_served = res.n_served
        if self.record_frames and n_served:
            ladder = self._store.ladder
            ok = res.ok.tolist()
            abandoned = res.abandoned.tolist()
            rungs = res.rung.tolist()
            airtimes = res.airtime_s.tolist()
            for i in range(n_served):
                self.frame_log.append(
                    FrameOutcome(
                        delivered=ok[i],
                        abandoned=abandoned[i],
                        rate_bps=ladder[rungs[i]],
                        airtime_s=airtimes[i],
                    )
                )
        if self.obs.enabled and n_served:
            counts = (
                ("delivered", res.n_delivered),
                ("abandoned", res.n_abandoned),
                ("retry", res.n_retry),
            )
            for label, n in counts:
                if n:
                    self.obs.count(
                        "network.frames_total", n, outcome=label, reader=str(rid)
                    )
        return n_served, res.used_s

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

    def _backoff_s(self, attempts: int) -> float:
        """Nominal re-association backoff after ``attempts`` failures."""
        cfg = self.config
        try:
            growth = cfg.reassoc_backoff_factor**attempts
        except OverflowError:  # factor**attempts past the float range
            return cfg.reassoc_backoff_cap_s
        return min(cfg.reassoc_backoff_cap_s, cfg.reassoc_backoff_base_s * growth)

    def _schedule_reassoc(
        self, tag_id: int, attempts: int, now: float, queue: EventQueue
    ) -> None:
        """Seeded exponential backoff from the tag's own stream."""
        jitter = 0.5 + self._tag_rngs[tag_id].random()  # in [0.5, 1.5)
        t = now + self._backoff_s(attempts) * jitter
        if t <= self.config.duration_s:
            queue.push(t, "reassoc", tag_id=tag_id)

    def _reassoc_attempt(self, tag_id: int, now: float, queue: EventQueue) -> None:
        tags = self.tags
        if tags.reader[tag_id] >= 0:
            return
        if self._try_associate(tag_id, now):
            return
        attempts = int(tags.reassoc_attempts[tag_id]) + 1
        tags.reassoc_attempts[tag_id] = attempts
        self._schedule_reassoc(tag_id, attempts, now, queue)

    def _try_associate(self, tag_id: int, now: float, initial: bool = False) -> bool:
        """Admit at the best-SNR beaconing reader; handoff bookkeeping.

        Candidate order is ``(-effective_snr, reader_id)`` — fully
        deterministic.  The tag's link state is untouched: handoff
        migrates it."""
        snr = self._snr[tag_id].tolist()
        candidates = sorted(
            (r for r in self.readers if r.beaconing),
            key=lambda r: (-(snr[r.reader_id] - r.occlusion_db), r.reader_id),
        )
        for reader in candidates:
            if reader.admit(tag_id):
                tags = self.tags
                tags.reader[tag_id] = reader.reader_id
                tags.heard_floor[tag_id] = now
                if not initial:
                    since = float(tags.silent_since[tag_id])
                    latency = now - (now if math.isnan(since) else since)
                    self.handoff_log.append(
                        (now, tag_id, int(tags.prev_reader[tag_id]), reader.reader_id, latency)
                    )
                    if self.obs.enabled:
                        self.obs.count("network.handoffs_total")
                        self.obs.observe("network.handoff_latency_s", latency)
                tags.silent_since[tag_id] = math.nan
                return True
        if self.obs.enabled and not initial:
            self.obs.count("network.reassoc_failures_total")
        return False
