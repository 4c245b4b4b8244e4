"""Rate/coding selection from the profiled database."""

import pytest

from repro.mac.rate_adapt import CodingOption, LinkProfile, RateOption, default_profile


class TestRateOption:
    def test_ber_at_threshold_is_one_percent(self):
        r = RateOption(8000, threshold_db=26.0)
        assert r.ber(26.0) == pytest.approx(0.01)

    def test_waterfall_slope(self):
        r = RateOption(8000, threshold_db=26.0, waterfall_db=3.0)
        assert r.ber(29.0) == pytest.approx(0.001)

    def test_ber_capped_at_half(self):
        r = RateOption(8000, threshold_db=26.0)
        assert r.ber(-100.0) == 0.5

    def test_ber_past_the_float_range_is_half(self):
        """``10 ** 340`` overflows a Python float; the clip gives 0.5."""
        r = RateOption(8000, threshold_db=26.0)
        assert r.ber(-1000.0) == 0.5 and r.ber(-1e300) == 0.5


class TestCodingOption:
    def test_uncoded_success(self):
        c = CodingOption(255, 255)
        assert c.t == 0
        assert c.block_success(0.0) == pytest.approx(1.0)
        assert c.block_success(0.01) < 0.1

    def test_coding_improves_success(self):
        p = 1e-3
        raw = CodingOption(255, 255).block_success(p)
        coded = CodingOption(255, 223).block_success(p)
        assert coded > raw

    def test_lower_rate_more_robust(self):
        p = 8e-3
        light = CodingOption(255, 251).block_success(p)
        heavy = CodingOption(255, 127).block_success(p)
        assert heavy > light

    def test_code_rate(self):
        assert CodingOption(255, 251).code_rate == pytest.approx(251 / 255)

    def test_paper_one_sixty_fourth(self):
        """RS(255,251) costs ~1/64 of peak throughput (paper Fig 18b)."""
        assert 1 - CodingOption(255, 251).code_rate == pytest.approx(1 / 64, rel=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            CodingOption(255, 0)
        with pytest.raises(ValueError):
            CodingOption(300, 100)


class TestLinkProfile:
    @pytest.fixture(scope="class")
    def profile(self) -> LinkProfile:
        return default_profile()

    def test_best_choice_monotone_in_snr(self, profile):
        g = [profile.best_choice(snr).goodput_bps for snr in (5, 15, 25, 35, 45, 55, 65)]
        assert all(a <= b + 1e-6 for a, b in zip(g, g[1:]))

    def test_high_snr_picks_high_rate(self, profile):
        assert profile.best_choice(65.0).rate.rate_bps >= 16000

    def test_low_snr_picks_low_rate(self, profile):
        assert profile.best_choice(2.0).rate.rate_bps <= 2000

    def test_goodput_never_exceeds_raw_rate(self, profile):
        for snr in (10, 30, 50):
            c = profile.best_choice(snr)
            assert c.goodput_bps <= c.rate.rate_bps

    def test_mid_snr_prefers_coding(self, profile):
        """Near a rate's threshold, coded beats raw (the Fig 18b story)."""
        rate = profile.rates[-1]
        snr = rate.threshold_db + 1.0
        raw = profile.goodput(rate, CodingOption(255, 255), snr)
        coded = profile.goodput(rate, CodingOption(255, 223), snr)
        assert coded > raw

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            LinkProfile(rates=[])
