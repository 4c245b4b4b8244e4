"""The unified run API: ScenarioSpec validation, Session runs, CLI."""

import json

import numpy as np
import pytest

from repro import MetricsRegistry, Observer, RunReport, ScenarioSpec, Session
from repro.api import MacKnobs, PhyKnobs
from repro.obs import validate_run_report


class TestScenarioSpec:
    def test_defaults_valid(self):
        spec = ScenarioSpec()
        assert spec.kind == "packet"

    def test_unknown_keyword_rejected(self):
        with pytest.raises(TypeError):
            ScenarioSpec(paylod_bytes=24)  # the typo make_simulator used to eat

    def test_all_violations_reported_at_once(self):
        with pytest.raises(ValueError) as exc:
            ScenarioSpec(kind="arq", mac=MacKnobs(max_attempts=0), distance_m=-1.0)
        msg = str(exc.value)
        assert "success_probability" in msg
        assert "max_attempts" in msg
        assert "distance_m" in msg

    def test_ambient_preset_names_validated(self):
        with pytest.raises(ValueError):
            ScenarioSpec(phy=PhyKnobs(ambient="noon_on_mars"))
        ScenarioSpec(phy=PhyKnobs(ambient="day"))  # known preset

    def test_describe_is_kind_specific_and_json_ready(self):
        d = ScenarioSpec(kind="watchdog", mac=MacKnobs(success_probability=0.4)).describe()
        assert d["kind"] == "watchdog"
        assert "fail_threshold" in d
        assert "roll_deg" not in d
        json.dumps(d)

    def test_replace_revalidates(self):
        spec = ScenarioSpec(distance_m=3.0)
        assert spec.replace(distance_m=5.0).distance_m == 5.0
        with pytest.raises(ValueError):
            spec.replace(distance_m=-2.0)


class TestSession:
    def test_packet_run_emits_validated_report(self):
        report = Session(ScenarioSpec(distance_m=2.0, payload_bytes=8)).run(n_packets=2)
        assert isinstance(report, RunReport)
        validate_run_report(json.loads(report.to_json()))
        assert report.summary["n_packets"] == 2
        # The acceptance bar: per-stage spans and a rich metric surface.
        assert {"preamble", "rotation", "training", "equalize"} <= report.span_names()
        assert len(report.metric_names()) >= 10

    def test_arq_and_watchdog_kinds(self):
        arq = Session(
            ScenarioSpec(kind="arq", mac=MacKnobs(success_probability=0.6))
        ).run(n_packets=40)
        assert arq.summary["delivered"] + arq.summary["gave_up"] == 40
        assert "arq.attempts_total" in arq.metric_names()
        dog = Session(
            ScenarioSpec(kind="watchdog", mac=MacKnobs(success_probability=0.2))
        ).run(n_packets=20)
        assert dog.summary["final_rate_bps"] > 0
        assert "mac.watchdog.actions_total" in dog.metric_names()

    def test_runs_are_deterministic(self):
        spec = ScenarioSpec(distance_m=2.0, payload_bytes=8)
        a = Session(spec).run(n_packets=2)
        b = Session(spec).run(n_packets=2)
        assert a.summary["ber"] == b.summary["ber"]

    def test_explicit_observer_is_used(self):
        obs = Observer(metrics=MetricsRegistry())
        Session(ScenarioSpec(payload_bytes=8), observer=obs).run(n_packets=1)
        assert "phy.packets_total" in obs.metrics.names()

    def test_rejects_non_spec(self):
        with pytest.raises(TypeError):
            Session({"kind": "packet"})


class TestBatchObserver:
    def test_pool_and_serial_merge_identical_counters(self):
        from repro.experiments.fig18 import emulated_ber_vs_snr_batched

        def run(n_workers):
            obs = Observer(trace=False)
            out = emulated_ber_vs_snr_batched(
                rates_bps=[8000],
                snrs_db=[20, 40],
                n_symbols=32,
                n_packets=1,
                n_workers=n_workers,
                observer=obs,
            )
            return out, obs.metrics

        out1, m1 = run(1)
        out2, m2 = run(2)
        assert [p.ber for p in out1[8000.0]] == [p.ber for p in out2[8000.0]]
        assert m1.get("dfe.symbols_total").value == m2.get("dfe.symbols_total").value
        assert m1.get("batch.cells_total").value == m2.get("batch.cells_total").value == 2


class TestCli:
    def test_simulate_trace_and_metrics_out(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs import load_run_report

        out_path = tmp_path / "run.json"
        code = main([
            "simulate", "--distance", "2.0", "--packets", "1",
            "--payload", "8", "--trace", "--metrics-out", str(out_path),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "stage trace:" in printed
        assert "equalize" in printed
        report = load_run_report(out_path)  # schema-validates on load
        assert {"preamble", "rotation", "training", "equalize"} <= report.span_names()
        assert len(report.metric_names()) >= 10

    def test_sweep_metrics_out(self, tmp_path):
        from repro.cli import main
        from repro.obs import load_run_report

        out_path = tmp_path / "sweep.json"
        assert main(["sweep", "fig16b", "--metrics-out", str(out_path)]) == 0
        report = load_run_report(out_path)
        assert report.meta["kind"] == "sweep"
        assert "phy.packets_total" in report.metric_names()


class TestOverheadGuard:
    def test_disabled_observer_does_not_perturb_results(self):
        """NULL observer path is bit-identical to an enabled run's physics."""
        spec_seed = 9
        from repro.phy.pipeline import PacketSimulator

        plain = PacketSimulator(payload_bytes=8, rng=3).run_packet(rng=spec_seed)
        observed = PacketSimulator(payload_bytes=8, rng=3, observer=Observer()).run_packet(
            rng=spec_seed
        )
        assert plain.ber == observed.ber
        assert np.isclose(plain.snr_est_db, observed.snr_est_db, equal_nan=True)
