"""Fast-LC material presets and the rate-scaling helper."""

import numpy as np
import pytest

from repro.lcm.response import LCParams, LCResponseModel
from repro.modem.config import ModemConfig


class TestPresets:
    def test_cots_is_default(self):
        assert LCParams.cots_tn() == LCParams()

    def test_ferroelectric_scale(self):
        p = LCParams.ferroelectric()
        base = LCParams()
        ratio = p.tau_discharge / base.tau_discharge
        assert ratio == pytest.approx(20e-6 / 3.5e-3)

    def test_ccn47_is_fastest(self):
        assert LCParams.ccn47().tau_discharge < LCParams.ferroelectric().tau_discharge

    def test_scaled_pulse_shape_preserved(self):
        """A faster material traces the same pulse on a compressed clock."""
        scale = 1e-2
        slow = LCResponseModel(LCParams())
        fast = LCResponseModel(LCParams().scaled(scale))
        p_slow = slow.pulse_response(1, 8, 0.5e-3, 40e3)
        p_fast = fast.pulse_response(1, 8, 0.5e-3 * scale, 40e3 / scale)
        np.testing.assert_allclose(p_fast, p_slow, atol=1e-9)


class TestConfigScaling:
    def test_rate_scales_inversely(self):
        cfg = ModemConfig().scaled_to_material(0.01)
        assert cfg.rate_bps == pytest.approx(800_000.0)

    def test_demodulation_geometry_unchanged(self):
        base = ModemConfig()
        cfg = base.scaled_to_material(1e-3)
        assert cfg.samples_per_slot == base.samples_per_slot
        assert cfg.samples_per_symbol == base.samples_per_symbol

    def test_ferroelectric_reaches_mbps(self):
        scale = 20e-6 / 3.5e-3
        cfg = ModemConfig().scaled_to_material(scale)
        assert cfg.rate_bps > 1e6

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            ModemConfig().scaled_to_material(0.0)

    def test_fast_material_decodes(self):
        """The full modem stack runs unchanged on ferroelectric timing."""
        from repro.experiments.fig18 import emulated_packet_ber
        from repro.modem.references import ReferenceBank

        scale = 20e-6 / 3.5e-3
        cfg = ModemConfig(dsm_order=2, pqam_order=4, slot_s=2e-3, fs=10e3).scaled_to_material(scale)
        bank = ReferenceBank.nominal(cfg, params=LCParams.ferroelectric())
        assert emulated_packet_ber(cfg, snr_db=35.0, n_symbols=32, rng=1, bank=bank) == 0.0


class TestParamValidation:
    """Non-physical LC constants are refused at construction."""

    @pytest.mark.parametrize("name", ["tau_charge", "tau_stress", "tau_plateau", "tau_discharge"])
    @pytest.mark.parametrize("value", [0.0, -1e-4, float("nan"), float("inf")])
    def test_time_constants_finite_positive(self, name, value):
        with pytest.raises(ValueError, match=name):
            LCParams(**{name: value})

    @pytest.mark.parametrize("value", [0.0, -0.1, 1.5, float("nan"), float("inf")])
    def test_psi_gate_in_unit_interval(self, value):
        with pytest.raises(ValueError, match="psi_gate"):
            LCParams(psi_gate=value)

    @pytest.mark.parametrize("name", ["leak", "charge_softness"])
    @pytest.mark.parametrize("value", [-1e-3, float("nan"), float("inf")])
    def test_rates_finite_non_negative(self, name, value):
        with pytest.raises(ValueError, match=name):
            LCParams(**{name: value})

    def test_edges_accepted(self):
        p = LCParams(psi_gate=1.0, leak=0.0, charge_softness=0.0)
        drive = np.array([[1, 0, 0, 1, 0]], dtype=np.uint8)
        assert np.isfinite(LCResponseModel(p).simulate(drive, 5e-4, 4e4)).all()

    @pytest.mark.parametrize("factor", [0.0, -2.0, float("nan"), float("inf")])
    def test_scaled_rejects_bad_factor(self, factor):
        with pytest.raises(ValueError, match="scale factor"):
            LCParams().scaled(factor)

    def test_presets_and_thermal_scaling_construct(self):
        from repro.lcm.dispersion import LCDispersionModel

        for preset in (LCParams.cots_tn, LCParams.ferroelectric, LCParams.ccn47):
            assert isinstance(preset(), LCParams)
        for temperature_c in (-10.0, 0.0, 25.0, 40.0, 60.0):
            model = LCDispersionModel(temperature_c=temperature_c)
            for base in (LCParams(), LCParams.ferroelectric(), LCParams.ccn47()):
                assert isinstance(model.scaled_params(base), LCParams)
