"""Network-level fault injectors: how a *fleet* gets hurt.

The capture/tag-stage injectors in :mod:`repro.faults.injectors` hurt one
link; these hurt the deployment around it — a reader process dying and
restarting, its TDMA schedule getting corrupted, a burst of bogus discovery
requests, or a persistent occlusion of a reader's field of view.  Each
injector is a declarative, timed event source the fleet simulator
(:mod:`repro.network.fleet`) schedules onto its discrete-event timeline;
composition and seeding follow the :class:`~repro.faults.plan.FaultPlan`
idiom (a seeded plan produces the same realisation every run).

The impairment terms these injectors set — a reader's ``occlusion_db``
SNR penalty and ``collision_prob`` extra failure probability — are
consumed as *vector inputs* by the fleet's round engine: the vectorized
:meth:`~repro.network.linkstore.LinkStateStore.serve_round` broadcasts
them over the whole served schedule (occlusion keys a cached per-rung
success row; collision multiplies the probability vector), which is
bit-identical to the frozen scalar path applying them per slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError

__all__ = [
    "DiscoveryStorm",
    "NETWORK_SCENARIOS",
    "NetworkFault",
    "NetworkFaultPlan",
    "ReaderCrash",
    "ReaderOcclusion",
    "ScheduleCorruption",
    "network_scenario",
    "network_scenario_names",
]


@dataclass(frozen=True)
class NetworkFault:
    """Base class: one timed network-level impairment.

    ``at_s`` is the simulation time the fault fires.  Subclasses add their
    own geometry (target reader, duration, severity).  The fleet simulator
    translates each fault into timeline events via its ``events()`` hook.
    """

    at_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.at_s >= 0:  # NaN fails too
            raise ConfigError("fault time must be non-negative")

    @property
    def name(self) -> str:
        """Stable identifier used in logs and scenario listings."""
        return type(self).__name__

    def events(self) -> list[tuple[float, str, dict]]:
        """(time, kind, payload) timeline events this fault contributes."""
        raise NotImplementedError


@dataclass(frozen=True)
class ReaderCrash(NetworkFault):
    """A reader process dies at ``at_s`` and stays DOWN for ``outage_s``;
    restart takes a further ``recovery_s`` in the RECOVERING state (beacon
    back on air, re-admitting tags) before the reader is HEALTHY again.

    ``outage_s=inf`` models a permanent loss (no restart)."""

    reader_id: int = 0
    outage_s: float = 5.0
    recovery_s: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.reader_id < 0:
            raise ConfigError("reader_id must be non-negative")
        if not self.outage_s > 0:
            raise ConfigError("outage_s must be positive")
        if not self.recovery_s >= 0:
            raise ConfigError("recovery_s must be non-negative")

    def events(self) -> list[tuple[float, str, dict]]:
        out = [(self.at_s, "reader_crash", {"reader_id": self.reader_id})]
        if self.outage_s != float("inf"):
            t_up = self.at_s + self.outage_s
            out.append((t_up, "reader_restart", {"reader_id": self.reader_id}))
            out.append(
                (t_up + self.recovery_s, "reader_recovered", {"reader_id": self.reader_id})
            )
        return out


@dataclass(frozen=True)
class ScheduleCorruption(NetworkFault):
    """The reader's TDMA schedule state is corrupted for ``duration_s``:
    slot assignments collide, so each served frame additionally fails with
    probability ``collision_prob`` (drawn from the reader's seeded RNG).
    The reader runs DEGRADED until the corruption clears."""

    reader_id: int = 0
    duration_s: float = 5.0
    collision_prob: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.reader_id < 0:
            raise ConfigError("reader_id must be non-negative")
        if not self.duration_s > 0:
            raise ConfigError("duration_s must be positive")
        if not 0.0 < self.collision_prob <= 1.0:
            raise ConfigError("collision_prob must be in (0, 1]")

    def events(self) -> list[tuple[float, str, dict]]:
        return [
            (
                self.at_s,
                "corruption_start",
                {"reader_id": self.reader_id, "collision_prob": self.collision_prob},
            ),
            (self.at_s + self.duration_s, "corruption_end", {"reader_id": self.reader_id}),
        ]


@dataclass(frozen=True)
class DiscoveryStorm(NetworkFault):
    """A burst of ``n_requests`` bogus/replayed discovery requests hits a
    reader at once (a mis-seeded tag population, a reflective surface, an
    attacker).  Each queued request costs the reader ``request_cost_s`` of
    discovery airtime; requests beyond the reader's admission queue are
    shed immediately — the storm must degrade data goodput boundedly, not
    collapse the schedule."""

    reader_id: int = 0
    n_requests: int = 100
    request_cost_s: float = 0.005

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.reader_id < 0:
            raise ConfigError("reader_id must be non-negative")
        if self.n_requests < 1:
            raise ConfigError("n_requests must be >= 1")
        if not self.request_cost_s > 0:
            raise ConfigError("request_cost_s must be positive")

    def events(self) -> list[tuple[float, str, dict]]:
        return [
            (
                self.at_s,
                "discovery_storm",
                {
                    "reader_id": self.reader_id,
                    "n_requests": self.n_requests,
                    "request_cost_s": self.request_cost_s,
                },
            )
        ]


@dataclass(frozen=True)
class ReaderOcclusion(NetworkFault):
    """Persistent occlusion of a reader's FoV (a parked forklift, a new
    shelf): every link through this reader loses ``snr_penalty_db`` for
    ``duration_s`` (``inf`` = permanent) and the reader runs DEGRADED."""

    reader_id: int = 0
    duration_s: float = 10.0
    snr_penalty_db: float = 12.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.reader_id < 0:
            raise ConfigError("reader_id must be non-negative")
        if not self.duration_s > 0:
            raise ConfigError("duration_s must be positive")
        if not self.snr_penalty_db > 0:  # NaN fails too
            raise ConfigError("snr_penalty_db must be positive")

    def events(self) -> list[tuple[float, str, dict]]:
        out = [
            (
                self.at_s,
                "occlusion_start",
                {"reader_id": self.reader_id, "snr_penalty_db": self.snr_penalty_db},
            )
        ]
        if self.duration_s != float("inf"):
            out.append(
                (self.at_s + self.duration_s, "occlusion_end", {"reader_id": self.reader_id})
            )
        return out


@dataclass
class NetworkFaultPlan:
    """An ordered, optionally seeded composition of network faults.

    ``seed`` feeds any stochastic realisation the simulator performs on
    behalf of the plan (e.g. corruption collision draws), independent of
    the fleet's own traffic RNG — the same separation
    :class:`~repro.faults.plan.FaultPlan` keeps at the link layer.
    """

    faults: list[NetworkFault] = field(default_factory=list)
    seed: int | None = None

    def __post_init__(self) -> None:
        for f in self.faults:
            if not isinstance(f, NetworkFault):
                raise ConfigError(f"{f!r} is not a NetworkFault")

    @property
    def names(self) -> list[str]:
        """Fault names, in plan order."""
        return [f.name for f in self.faults]

    def events(self) -> list[tuple[float, str, dict]]:
        """Every fault's timeline events, time-sorted (plan order breaks
        ties, so composition is deterministic)."""
        out: list[tuple[int, float, str, dict]] = []
        for order, fault in enumerate(self.faults):
            for t, kind, payload in fault.events():
                out.append((order, t, kind, payload))
        out.sort(key=lambda e: (e[1], e[0]))
        return [(t, kind, payload) for _, t, kind, payload in out]

    def max_reader_id(self) -> int:
        """Highest reader index any fault targets (-1 when untargeted)."""
        ids = [getattr(f, "reader_id", -1) for f in self.faults]
        return max(ids, default=-1)


#: Named chaos scenarios: the standard fleet robustness matrix.  Factories
#: take the fleet duration so fault timing scales with the run.
NETWORK_SCENARIOS: dict[str, "callable"] = {
    # One of the readers dies mid-run and never comes back: every tag it
    # served must hand off.
    "reader_crash": lambda duration_s: NetworkFaultPlan(
        [ReaderCrash(reader_id=0, at_s=duration_s * 0.25, outage_s=float("inf"))]
    ),
    # A reader blinks: crash + restart; its tags may hand off and return.
    "reader_flap": lambda duration_s: NetworkFaultPlan(
        [
            ReaderCrash(
                reader_id=0,
                at_s=duration_s * 0.25,
                outage_s=duration_s * 0.25,
                recovery_s=duration_s * 0.05,
            )
        ]
    ),
    # TDMA slot state corrupted for the middle third of the run.
    "schedule_corruption": lambda duration_s: NetworkFaultPlan(
        [
            ScheduleCorruption(
                reader_id=0, at_s=duration_s / 3, duration_s=duration_s / 3, collision_prob=0.6
            )
        ]
    ),
    # A discovery-request storm slams reader 0 a quarter of the way in.
    "discovery_storm": lambda duration_s: NetworkFaultPlan(
        [DiscoveryStorm(reader_id=0, at_s=duration_s * 0.25, n_requests=200)]
    ),
    # A forklift parks in front of reader 0 for the rest of the run.
    "occlusion": lambda duration_s: NetworkFaultPlan(
        [
            ReaderOcclusion(
                reader_id=0, at_s=duration_s * 0.25, duration_s=float("inf"), snr_penalty_db=15.0
            )
        ]
    ),
    # Compound chaos: storm, then a crash while reader 1 is occluded.
    "compound": lambda duration_s: NetworkFaultPlan(
        [
            DiscoveryStorm(reader_id=1, at_s=duration_s * 0.15, n_requests=120),
            ReaderOcclusion(
                reader_id=1,
                at_s=duration_s * 0.2,
                duration_s=duration_s * 0.5,
                snr_penalty_db=10.0,
            ),
            ReaderCrash(reader_id=0, at_s=duration_s * 0.35, outage_s=float("inf")),
        ]
    ),
}


def network_scenario_names() -> list[str]:
    """Every named network chaos scenario, sorted for stable parametrisation."""
    return sorted(NETWORK_SCENARIOS)


def network_scenario(name: str, duration_s: float, seed: int | None = 0) -> NetworkFaultPlan:
    """Build a named chaos scenario scaled to a run duration, seeded."""
    try:
        factory = NETWORK_SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown network scenario {name!r}; pick from {network_scenario_names()}"
        ) from None
    plan = factory(duration_s)
    plan.seed = seed
    return plan
