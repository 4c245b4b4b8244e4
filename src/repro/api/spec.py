"""The v2 :class:`ScenarioSpec`: shared link fields + nested knob groups.

v1 was a single flat dataclass; every kind's private knobs shared one
namespace, and a knob set on the wrong kind was silently ignored.  v2
keeps the six fields every harness reads (``kind``, ``rate_bps``,
``distance_m``, ``payload_bytes``, ``k_branches``, ``seed``) at the top
level and moves everything else into per-kind groups::

    from repro.api import PhyKnobs, ScenarioSpec, TrajectoryKnobs

    ScenarioSpec(kind="packet", distance_m=3.0, phy=PhyKnobs(roll_deg=25.0))
    ScenarioSpec(kind="trajectory",
                 trajectory=TrajectoryKnobs("drive_by_reader",
                                            packet_interval_s=0.02))

A knob group the active kind does not read is a validation error
(reported alongside every other violation), where v1 silently accepted
it; v1's flat knob keywords (``ScenarioSpec(roll_deg=25.0)``) are unknown
keywords, a ``TypeError``.  ``describe()`` output is byte-identical to v1
for every v1 kind, so no sweep-journal fingerprint moves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.knobs import (
    MacKnobs,
    MobilityKnobs,
    PhyKnobs,
    StreamKnobs,
    TrajectoryKnobs,
)
from repro.channel.trajectory import Trajectory
from repro.obs import ensure_observer

__all__ = ["KIND_GROUPS", "SCENARIO_KINDS", "ScenarioSpec"]

#: Scenario families the facade can run (each maps to one harness).
SCENARIO_KINDS = ("packet", "mobility", "trajectory", "arq", "watchdog", "stream")

#: Which knob groups each kind consumes.  Anything else is rejected.
KIND_GROUPS: dict[str, tuple[str, ...]] = {
    "packet": ("phy",),
    "stream": ("phy", "stream"),
    "mobility": ("mobility",),
    "trajectory": ("trajectory",),
    "arq": ("mac",),
    "watchdog": ("mac",),
}

_GROUP_TYPES = {
    "phy": PhyKnobs,
    "mobility": MobilityKnobs,
    "trajectory": TrajectoryKnobs,
    "mac": MacKnobs,
    "stream": StreamKnobs,
}

_SHARED_FIELDS = ("kind", "rate_bps", "distance_m", "payload_bytes", "k_branches", "seed")
_GROUP_FIELDS = tuple(_GROUP_TYPES)


@dataclass(frozen=True, init=False)
class ScenarioSpec:
    """A validated, self-describing experimental condition (v2 shape).

    Shared fields apply to every kind; per-kind knobs live in the nested
    groups (:data:`KIND_GROUPS` says which kind reads which).  Unknown
    keywords are a ``TypeError``; every value violation — the spec's own,
    each group's, and any knob aimed at an inactive group — is collected
    and raised as one ``ValueError``.
    """

    kind: str = "packet"
    rate_bps: float = 8000.0
    distance_m: float = 2.0
    payload_bytes: int = 24
    k_branches: int = 16
    seed: int = 7
    phy: PhyKnobs | None = None
    mobility: MobilityKnobs | None = None
    trajectory: TrajectoryKnobs | None = None
    mac: MacKnobs | None = None
    stream: StreamKnobs | None = None

    def __init__(
        self,
        kind: str = "packet",
        *,
        rate_bps: float = 8000.0,
        distance_m: float = 2.0,
        payload_bytes: int = 24,
        k_branches: int = 16,
        seed: int = 7,
        phy: PhyKnobs | None = None,
        mobility: MobilityKnobs | None = None,
        trajectory: TrajectoryKnobs | Trajectory | str | None = None,
        mac: MacKnobs | None = None,
        stream: StreamKnobs | None = None,
    ):
        problems: list[str] = []
        if kind not in SCENARIO_KINDS:
            problems.append(f"kind {kind!r} not in {SCENARIO_KINDS}")
        active = KIND_GROUPS.get(kind, ())

        # v2 convenience: kind="trajectory" accepts a bare trajectory
        # (preset name or Trajectory object) where the group would go.
        if isinstance(trajectory, (str, Trajectory)):
            trajectory = TrajectoryKnobs(trajectory=trajectory)

        groups: dict[str, object | None] = {
            "phy": phy,
            "mobility": mobility,
            "trajectory": trajectory,
            "mac": mac,
            "stream": stream,
        }
        for name, value in groups.items():
            if value is None:
                continue
            expected = _GROUP_TYPES[name]
            if not isinstance(value, expected):
                problems.append(
                    f"{name} must be {expected.__name__}, got {type(value).__name__}"
                )
                groups[name] = None
            elif name not in active:
                problems.append(f"{name} knobs are not available for kind={kind!r}")
                groups[name] = None

        for name in active:
            if groups[name] is None:
                groups[name] = _GROUP_TYPES[name]()

        # ----------------------------------------------------- validation
        if rate_bps <= 0:
            problems.append("rate_bps must be positive")
        if distance_m <= 0:
            problems.append("distance_m must be positive")
        if payload_bytes < 1:
            problems.append("payload_bytes must be >= 1")
        if k_branches < 1:
            problems.append("k_branches must be >= 1")
        for name in active:
            group = groups[name]
            if group is not None:
                problems.extend(group.problems())
        if kind in ("arq", "watchdog"):
            mac_group = groups["mac"]
            if mac_group is not None and mac_group.success_probability is None:
                problems.append(f"kind={kind!r} requires success_probability")
        if problems:
            raise ValueError("invalid ScenarioSpec: " + "; ".join(problems))

        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rate_bps", rate_bps)
        object.__setattr__(self, "distance_m", distance_m)
        object.__setattr__(self, "payload_bytes", payload_bytes)
        object.__setattr__(self, "k_branches", k_branches)
        object.__setattr__(self, "seed", seed)
        for name in _GROUP_FIELDS:
            object.__setattr__(self, name, groups[name])

    # ------------------------------------------------------------ describe

    def describe(self) -> dict:
        """The spec as a JSON-ready dict (the report's ``scenario`` block).

        Only the fields that matter for :attr:`kind` are included, so two
        specs describing the same physical condition render identically.
        For every v1 kind the output is byte-identical to the v1 flat
        spec's — frozen sweep-journal fingerprints do not move.
        """
        base = {"kind": self.kind, "seed": self.seed}
        if self.kind in ("packet", "mobility", "stream"):
            base.update(
                rate_bps=self.rate_bps,
                distance_m=self.distance_m,
                payload_bytes=self.payload_bytes,
                k_branches=self.k_branches,
            )
        if self.kind in ("packet", "stream"):
            phy = self.phy
            base.update(
                roll_deg=phy.roll_deg,
                yaw_deg=phy.yaw_deg,
                bank_mode=phy.bank_mode,
                ambient=phy.ambient,
            )
            # Polarization-ladder knobs appear only off the default rung:
            # every pre-ladder describe() fingerprint stays byte-identical.
            if phy.fidelity != "malus":
                base.update(
                    fidelity=phy.fidelity,
                    spectrum=phy.spectrum,
                    extinction_db=phy.extinction_db,
                    temperature_c=phy.temperature_c,
                )
        if self.kind == "stream":
            stream = self.stream
            base.update(
                chunk_samples=stream.chunk_samples,
                max_buffered_samples=stream.max_buffered_samples,
            )
        if self.kind == "mobility":
            mob = self.mobility
            base.update(
                roll_rate_deg_s=mob.roll_rate_deg_s,
                sync_interval_slots=mob.sync_interval_slots,
                resync=mob.resync,
            )
        if self.kind == "trajectory":
            base.update(
                rate_bps=self.rate_bps,
                payload_bytes=self.payload_bytes,
                k_branches=self.k_branches,
            )
            base.update(self.trajectory.describe())
        if self.kind in ("arq", "watchdog"):
            mac = self.mac
            base.update(
                success_probability=mac.success_probability,
                max_attempts=mac.max_attempts,
            )
            if self.kind == "watchdog":
                base["fail_threshold"] = mac.fail_threshold
        return base

    def replace(self, **changes) -> "ScenarioSpec":
        """A copy with shared fields or knob groups changed (re-validated)."""
        current: dict = {name: getattr(self, name) for name in _SHARED_FIELDS}
        current.update({name: getattr(self, name) for name in _GROUP_FIELDS})
        for key, value in changes.items():
            if key not in current:
                raise TypeError(f"ScenarioSpec.replace() got unknown field {key!r}")
            current[key] = value
        # Changing kind drops groups the new kind does not read.
        active = KIND_GROUPS.get(current["kind"], ())
        for name in _GROUP_FIELDS:
            if name not in active and name not in changes:
                current[name] = None
        return ScenarioSpec(**current)

    # --------------------------------------------------------------- build

    def build(self, observer=None):
        """The underlying harness object for this spec's kind."""
        observer = ensure_observer(observer)
        if self.kind in ("packet", "stream"):
            from repro.experiments.common import make_simulator
            from repro.optics.ambient import AMBIENT_PRESETS

            phy = self.phy
            return make_simulator(
                rate_bps=self.rate_bps,
                distance_m=self.distance_m,
                roll_deg=phy.roll_deg,
                yaw_deg=phy.yaw_deg,
                ambient=AMBIENT_PRESETS[phy.ambient] if phy.ambient else None,
                payload_bytes=self.payload_bytes,
                bank_mode=phy.bank_mode,
                k_branches=self.k_branches,
                rng=self.seed,
                observer=observer,
                fidelity=phy.fidelity,
                polarization=phy.polarization_config(),
            )
        if self.kind == "mobility":
            import numpy as np

            from repro.channel.dynamics import ChannelDrift
            from repro.experiments.mobility import MobileLinkSimulator

            mob = self.mobility
            return MobileLinkSimulator(
                distance_m=self.distance_m,
                drift=ChannelDrift(
                    roll_rate_rad_s=float(np.deg2rad(mob.roll_rate_deg_s))
                ),
                payload_bytes=self.payload_bytes,
                sync_interval_slots=mob.sync_interval_slots,
                resync=mob.resync,
                k_branches=self.k_branches,
                rng=self.seed,
                observer=observer,
            )
        if self.kind == "trajectory":
            from repro.experiments.mobility import MobileLinkSimulator

            traj = self.trajectory
            return MobileLinkSimulator(
                trajectory=traj.resolve(),
                payload_bytes=self.payload_bytes,
                sync_interval_slots=traj.sync_interval_slots,
                resync=traj.resync,
                k_branches=self.k_branches,
                packet_interval_s=traj.packet_interval_s,
                rng=self.seed,
                observer=observer,
            )
        if self.kind == "arq":
            from repro.mac.arq import StopAndWaitARQ

            return StopAndWaitARQ(max_attempts=self.mac.max_attempts)
        # watchdog
        from repro.mac.watchdog import LinkWatchdog

        return LinkWatchdog(fail_threshold=self.mac.fail_threshold, observer=observer)
