"""Network-level fault injectors: validation, event emission, scenarios."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.faults.network import (
    NETWORK_SCENARIOS,
    DiscoveryStorm,
    NetworkFaultPlan,
    ReaderCrash,
    ReaderOcclusion,
    ScheduleCorruption,
    network_scenario,
    network_scenario_names,
)


class TestValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            ReaderCrash(at_s=-1.0)

    def test_bad_fields_rejected(self):
        with pytest.raises(ConfigError):
            ReaderCrash(reader_id=-1)
        with pytest.raises(ConfigError):
            ReaderCrash(outage_s=0.0)
        with pytest.raises(ConfigError):
            ScheduleCorruption(collision_prob=0.0)
        with pytest.raises(ConfigError):
            ScheduleCorruption(collision_prob=1.5)
        with pytest.raises(ConfigError):
            DiscoveryStorm(n_requests=0)
        with pytest.raises(ConfigError):
            ReaderOcclusion(snr_penalty_db=0.0)

    def test_nan_penalty_rejected(self):
        """A NaN penalty has no place in the fleet's best-reader order."""
        with pytest.raises(ConfigError, match="snr_penalty_db"):
            ReaderOcclusion(snr_penalty_db=float("nan"))

    @pytest.mark.parametrize(
        "fault, field",
        [
            (ReaderCrash, "at_s"),
            (ReaderCrash, "outage_s"),
            (ReaderCrash, "recovery_s"),
            (ScheduleCorruption, "duration_s"),
            (DiscoveryStorm, "request_cost_s"),
            (ReaderOcclusion, "duration_s"),
        ],
    )
    def test_nan_time_field_rejected(self, fault, field):
        """Every comparison with NaN is false, so each bound is written to
        fail on it; a NaN cost once crashed the fleet unclassified."""
        with pytest.raises(ConfigError):
            fault(**{field: float("nan")})

    def test_infinite_durations_stay_valid(self):
        """``inf`` is a permanent outage or occlusion, not an error."""
        ReaderCrash(outage_s=float("inf"), recovery_s=float("inf"))
        ReaderOcclusion(duration_s=float("inf"))

    def test_plan_rejects_non_faults(self):
        with pytest.raises(ConfigError):
            NetworkFaultPlan([object()])


class TestEvents:
    def test_crash_emits_full_lifecycle(self):
        fault = ReaderCrash(reader_id=1, at_s=2.0, outage_s=3.0, recovery_s=0.5)
        kinds = [(t, k) for t, k, _ in fault.events()]
        assert kinds == [
            (2.0, "reader_crash"),
            (5.0, "reader_restart"),
            (5.5, "reader_recovered"),
        ]

    def test_permanent_crash_never_restarts(self):
        fault = ReaderCrash(reader_id=0, at_s=1.0, outage_s=float("inf"))
        assert [k for _, k, _ in fault.events()] == ["reader_crash"]

    def test_corruption_and_occlusion_bracket(self):
        c = ScheduleCorruption(reader_id=2, at_s=1.0, duration_s=4.0, collision_prob=0.3)
        assert [k for _, k, _ in c.events()] == ["corruption_start", "corruption_end"]
        assert c.events()[0][2]["collision_prob"] == 0.3
        o = ReaderOcclusion(reader_id=2, at_s=1.0, duration_s=float("inf"))
        assert [k for _, k, _ in o.events()] == ["occlusion_start"]

    def test_plan_events_time_sorted_with_plan_order_ties(self):
        plan = NetworkFaultPlan(
            [
                DiscoveryStorm(reader_id=1, at_s=5.0),
                ReaderCrash(reader_id=0, at_s=5.0, outage_s=float("inf")),
                ReaderOcclusion(reader_id=2, at_s=1.0, duration_s=float("inf")),
            ]
        )
        kinds = [k for _, k, _ in plan.events()]
        assert kinds == ["occlusion_start", "discovery_storm", "reader_crash"]

    def test_max_reader_id(self):
        plan = NetworkFaultPlan(
            [ReaderCrash(reader_id=0, at_s=1.0), DiscoveryStorm(reader_id=4, at_s=1.0)]
        )
        assert plan.max_reader_id() == 4
        assert NetworkFaultPlan().max_reader_id() == -1


class TestScenarios:
    def test_names_sorted_and_complete(self):
        assert network_scenario_names() == sorted(NETWORK_SCENARIOS)

    @pytest.mark.parametrize("name", sorted(NETWORK_SCENARIOS))
    def test_every_scenario_builds_and_scales(self, name):
        plan = network_scenario(name, duration_s=20.0, seed=3)
        assert plan.seed == 3
        assert plan.faults
        assert all(0 <= t for t, _, _ in plan.events())
        assert plan.events()[0][0] <= 20.0

    def test_unknown_scenario_classified(self):
        with pytest.raises(ConfigError, match="unknown network scenario"):
            network_scenario("nope", 10.0)
