"""Operating-point arithmetic and rate presets."""

import pytest

from repro.modem.config import ModemConfig, RATE_PRESETS, preset_for_rate


class TestDerived:
    def test_paper_default(self):
        cfg = ModemConfig()
        assert cfg.dsm_order == 8
        assert cfg.pqam_order == 16
        assert cfg.slot_s == pytest.approx(0.5e-3)
        assert cfg.levels_per_axis == 4
        assert cfg.bits_per_symbol == 4
        assert cfg.rate_bps == pytest.approx(8000.0)
        assert cfg.symbol_duration_s == pytest.approx(4e-3)

    def test_samples_per_slot(self):
        assert ModemConfig().samples_per_slot == 20
        assert ModemConfig().samples_per_symbol == 160

    def test_describe_mentions_rate(self):
        assert "8 Kbps" in ModemConfig().describe()

    def test_with_rate_updates(self):
        cfg = ModemConfig().with_rate(pqam_order=64)
        assert cfg.pqam_order == 64
        assert cfg.rate_bps == pytest.approx(12000.0)


class TestValidation:
    def test_odd_power_pqam_rejected(self):
        with pytest.raises(ValueError):
            ModemConfig(pqam_order=8)

    def test_non_power_pqam_rejected(self):
        with pytest.raises(ValueError):
            ModemConfig(pqam_order=12)

    def test_small_pqam_rejected(self):
        with pytest.raises(ValueError):
            ModemConfig(pqam_order=2)

    def test_zero_dsm_rejected(self):
        with pytest.raises(ValueError):
            ModemConfig(dsm_order=0)

    def test_low_fs_rejected(self):
        with pytest.raises(ValueError):
            ModemConfig(fs=1000.0)

    def test_bad_tail_rejected(self):
        with pytest.raises(ValueError):
            ModemConfig(tail_memory=0)

    @pytest.mark.parametrize("name", ["slot_s", "fs"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), float("-inf")])
    def test_non_finite_timing_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            ModemConfig(**{name: value})

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 0.0])
    def test_non_finite_material_scale_rejected(self, value):
        with pytest.raises(ValueError, match="time_scale must be positive"):
            ModemConfig().scaled_to_material(value)


class TestPresets:
    def test_all_presets_hit_their_rate(self):
        for rate, cfg in RATE_PRESETS.items():
            assert cfg.rate_bps == pytest.approx(rate)

    def test_all_presets_keep_4ms_symbol(self):
        """The power-invariance argument requires W = 4 ms everywhere."""
        for cfg in RATE_PRESETS.values():
            assert cfg.symbol_duration_s == pytest.approx(4e-3)

    def test_preset_lookup(self):
        assert preset_for_rate(8000).pqam_order == 16

    def test_unknown_rate_raises(self):
        with pytest.raises(ValueError):
            preset_for_rate(3333)

    def test_paper_headline_rates_present(self):
        for rate in (1000, 4000, 8000, 16000, 32000):
            assert rate in RATE_PRESETS
