"""ScenarioSpec v2: nested knob groups, fingerprints, knob rejection.

The api_redesign wall.  Three contracts pinned here:

1. **Fingerprint freeze** — ``describe()`` for every v1 kind must be
   byte-identical to the flat v1 spec's output (the frozen JSON strings
   below were captured from the pre-redesign implementation), so no
   sweep-journal fingerprint moves.
2. **No flat knobs** — v1's flat knob keywords are unknown keywords (a
   ``TypeError``); knobs are passed only in their groups, silently.
3. **Cross-kind knob rejection** — a knob group the active kind does not
   read is a *validation error* (v1 silently ignored such knobs),
   aggregated with every other violation.
"""

from __future__ import annotations

import dataclasses
import json
import warnings

import pytest

from repro.api import (
    KIND_GROUPS,
    MacKnobs,
    MobilityKnobs,
    PhyKnobs,
    SCENARIO_KINDS,
    ScenarioSpec,
    Session,
    StreamKnobs,
    TrajectoryKnobs,
    named_scenario,
    scenario_catalog_names,
)
from repro.channel.trajectory import Trajectory, Waypoint


# Captured verbatim from the v1 flat ScenarioSpec (pre-redesign).  These
# strings are the regression contract: key order and values included.
V1_FINGERPRINTS = {
    "packet_default": (
        dict(),
        '{"kind": "packet", "seed": 7, "rate_bps": 8000.0, "distance_m": 2.0,'
        ' "payload_bytes": 24, "k_branches": 16, "roll_deg": 0.0, "yaw_deg": 0.0,'
        ' "bank_mode": "trained", "ambient": null}',
    ),
    "packet_full": (
        dict(
            kind="packet",
            rate_bps=4000.0,
            distance_m=3.5,
            payload_bytes=16,
            k_branches=8,
            seed=13,
            phy=PhyKnobs(roll_deg=10.0, yaw_deg=20.0, bank_mode="nominal", ambient="day"),
        ),
        '{"kind": "packet", "seed": 13, "rate_bps": 4000.0, "distance_m": 3.5,'
        ' "payload_bytes": 16, "k_branches": 8, "roll_deg": 10.0, "yaw_deg": 20.0,'
        ' "bank_mode": "nominal", "ambient": "day"}',
    ),
    "mobility": (
        dict(
            kind="mobility",
            distance_m=2.5,
            payload_bytes=12,
            k_branches=4,
            seed=21,
            mobility=MobilityKnobs(
                roll_rate_deg_s=25.0, sync_interval_slots=32, resync=False
            ),
        ),
        '{"kind": "mobility", "seed": 21, "rate_bps": 8000.0, "distance_m": 2.5,'
        ' "payload_bytes": 12, "k_branches": 4, "roll_rate_deg_s": 25.0,'
        ' "sync_interval_slots": 32, "resync": false}',
    ),
    "arq": (
        dict(kind="arq", seed=3, mac=MacKnobs(success_probability=0.7, max_attempts=5)),
        '{"kind": "arq", "seed": 3, "success_probability": 0.7, "max_attempts": 5}',
    ),
    "watchdog": (
        dict(
            kind="watchdog",
            seed=4,
            mac=MacKnobs(success_probability=0.4, max_attempts=6, fail_threshold=2),
        ),
        '{"kind": "watchdog", "seed": 4, "success_probability": 0.4,'
        ' "max_attempts": 6, "fail_threshold": 2}',
    ),
    "stream": (
        dict(
            kind="stream",
            payload_bytes=8,
            seed=9,
            phy=PhyKnobs(roll_deg=5.0),
            stream=StreamKnobs(chunk_samples=512, max_buffered_samples=4096),
        ),
        '{"kind": "stream", "seed": 9, "rate_bps": 8000.0, "distance_m": 2.0,'
        ' "payload_bytes": 8, "k_branches": 16, "roll_deg": 5.0, "yaw_deg": 0.0,'
        ' "bank_mode": "trained", "ambient": null, "chunk_samples": 512,'
        ' "max_buffered_samples": 4096}',
    ),
}


class TestFingerprintFreeze:
    @pytest.mark.parametrize("case", sorted(V1_FINGERPRINTS))
    def test_describe_byte_identical_to_v1(self, case):
        kwargs, frozen = V1_FINGERPRINTS[case]
        assert json.dumps(ScenarioSpec(**kwargs).describe()) == frozen

    def test_trajectory_describe_embeds_full_geometry(self):
        d = named_scenario("drive_by_reader").describe()
        assert d["kind"] == "trajectory"
        assert "distance_m" not in d  # the path, not a scalar, sets range
        assert d["trajectory"]["name"] == "drive_by_reader"
        assert [wp["x_m"] for wp in d["trajectory"]["waypoints"]] == [6.0, 6.0, 6.0]
        assert d["packet_interval_s"] == 0.02
        # Stable under re-construction (journal identity).
        assert json.dumps(d) == json.dumps(named_scenario("drive_by_reader").describe())


class TestMigrationShim:
    """What is left of the v1 migration: groups only, and silently."""

    def test_nested_construction_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ScenarioSpec(kind="packet", phy=PhyKnobs(roll_deg=25.0))
            ScenarioSpec(kind="arq", mac=MacKnobs(success_probability=0.5))

    def test_unknown_kwarg_is_type_error(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'warp'"):
            ScenarioSpec(kind="packet", warp=9)


class TestCrossKindRejection:
    """Knobs outside the active kind's group are errors."""

    @pytest.mark.parametrize(
        ("kind", "knob", "owner"),
        [
            ("arq", {"roll_rate_deg_s": 10.0}, "MobilityKnobs"),
            ("packet", {"chunk_samples": 64}, "StreamKnobs"),
            ("mobility", {"success_probability": 0.5}, "MacKnobs"),
            ("trajectory", {"roll_deg": 5.0}, "PhyKnobs"),
            ("watchdog", {"packet_interval_s": 0.1}, "TrajectoryKnobs"),
            ("stream", {"roll_rate_deg_s": 1.0}, "MobilityKnobs"),
            ("packet", {"sync_interval_slots": 8}, "MobilityKnobs or TrajectoryKnobs"),
        ],
    )
    def test_flat_knob_for_inactive_group_rejected(self, kind, knob, owner):
        """A bare v1 knob keyword is an unknown keyword, whichever group
        (``owner``) it belongs in and whichever kind is active."""
        extra = {"mac": MacKnobs(success_probability=0.5)} if kind in ("arq", "watchdog") else {}
        (name,) = knob
        with pytest.raises(TypeError, match=f"unexpected keyword argument {name!r}"):
            ScenarioSpec(kind=kind, **extra, **knob)

    @pytest.mark.parametrize(
        ("kind", "group"),
        [
            ("packet", {"mac": MacKnobs(success_probability=0.5)}),
            ("arq", {"phy": PhyKnobs()}),
            ("mobility", {"trajectory": TrajectoryKnobs()}),
            ("trajectory", {"mobility": MobilityKnobs()}),
        ],
    )
    def test_inactive_group_object_rejected(self, kind, group):
        extra = {"mac": MacKnobs(success_probability=0.5)} if kind == "arq" else {}
        with pytest.raises(ValueError, match=f"not available for kind='{kind}'"):
            ScenarioSpec(kind=kind, **extra, **group)

    def test_wrong_group_type_rejected(self):
        with pytest.raises(ValueError, match="phy must be PhyKnobs, got MacKnobs"):
            ScenarioSpec(kind="packet", phy=MacKnobs())

    def test_all_violations_aggregated(self):
        with pytest.raises(ValueError) as err:
            ScenarioSpec(
                kind="arq",
                rate_bps=-1.0,
                payload_bytes=0,
                stream=StreamKnobs(chunk_samples=16),
            )
        msg = str(err.value)
        assert msg.startswith("invalid ScenarioSpec: ")
        for fragment in (
            "rate_bps must be positive",
            "payload_bytes must be >= 1",
            "stream knobs are not available for kind='arq'",
            "kind='arq' requires success_probability",
        ):
            assert fragment in msg

    def test_group_problems_surface_through_spec(self):
        with pytest.raises(ValueError, match="bank_mode 'psychic'"):
            ScenarioSpec(kind="packet", phy=PhyKnobs(bank_mode="psychic"))
        with pytest.raises(ValueError, match="trajectory 'mars_rover' not in"):
            ScenarioSpec(kind="trajectory", trajectory="mars_rover")


class TestTrajectoryKind:
    def test_bare_string_becomes_knob_group(self):
        spec = ScenarioSpec(kind="trajectory", trajectory="drive_by_reader")
        assert isinstance(spec.trajectory, TrajectoryKnobs)
        assert spec.trajectory.resolve().name == "drive_by_reader"

    def test_bare_trajectory_object_accepted(self):
        path = Trajectory(
            name="bench", waypoints=(Waypoint(x_m=1.0), Waypoint(x_m=2.0))
        )
        spec = ScenarioSpec(kind="trajectory", trajectory=path)
        assert spec.trajectory.resolve() is path

    def test_session_run_returns_trajectory_summary(self):
        spec = ScenarioSpec(
            kind="trajectory",
            payload_bytes=6,
            k_branches=8,
            seed=5,
            trajectory=TrajectoryKnobs("drive_by_reader", packet_interval_s=0.02),
        )
        report = Session(spec).run(n_packets=3)
        summary = report.summary
        assert set(summary) >= {
            "ber",
            "crc_ok_rate",
            "goodput_bps",
            "n_packets",
            "sim_time_s",
            "trajectory",
            "trajectory_duration_s",
        }
        assert summary["n_packets"] == 3
        assert summary["trajectory"] == "drive_by_reader"
        assert summary["sim_time_s"] > 0.0
        # Deterministic under the spec's seed.
        assert Session(spec).run(n_packets=3).summary == summary


class TestReplace:
    def test_replace_swaps_shared_fields_and_groups(self):
        spec = named_scenario("drive_by_reader")
        bumped = spec.replace(seed=99)
        assert bumped.seed == 99
        assert bumped.trajectory == spec.trajectory
        retuned = spec.replace(
            trajectory=dataclasses.replace(spec.trajectory, packet_interval_s=0.5)
        )
        assert retuned.trajectory.packet_interval_s == 0.5
        assert retuned.trajectory.trajectory == spec.trajectory.trajectory
        with pytest.raises(TypeError, match="unknown field 'packet_interval_s'"):
            spec.replace(packet_interval_s=0.5)

    def test_replace_kind_change_drops_stale_groups(self):
        spec = ScenarioSpec(kind="packet", phy=PhyKnobs(roll_deg=10.0))
        arq = spec.replace(kind="arq", mac=MacKnobs(success_probability=0.6))
        assert arq.phy is None
        assert arq.mac.success_probability == 0.6

    def test_replace_unknown_field_is_type_error(self):
        with pytest.raises(TypeError, match="unknown field 'warp'"):
            ScenarioSpec().replace(warp=1)


class TestCatalog:
    def test_kind_tables_cover_every_kind(self):
        assert set(KIND_GROUPS) == set(SCENARIO_KINDS)
        assert "trajectory" in SCENARIO_KINDS

    def test_catalog_names_and_unknown(self):
        assert scenario_catalog_names() == sorted(scenario_catalog_names())
        assert len(scenario_catalog_names()) >= 4
        with pytest.raises(ValueError, match="unknown scenario"):
            named_scenario("lunar_lander")

    @pytest.mark.parametrize("name", sorted(scenario_catalog_names()))
    def test_catalog_entries_valid_and_runnable(self, name):
        spec = named_scenario(name)
        assert spec.kind == "trajectory"
        assert spec.trajectory.resolve().name == name
        summary = Session(spec).run(n_packets=2).summary
        assert summary["n_packets"] == 2
        assert 0.0 <= summary["ber"] <= 1.0
