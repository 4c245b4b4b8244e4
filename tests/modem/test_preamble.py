"""Preamble detection, timing precision, rotation correction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.awgn import add_awgn
from repro.modem.dsm_pqam import DsmPqamModulator
from repro.modem.preamble import Preamble, RotationCorrector


@pytest.fixture(scope="module")
def preamble(fast_config, fast_array):
    p = Preamble(fast_config, n_slots=16)
    p.record_reference(DsmPqamModulator(fast_config, fast_array))
    return p


def received_with_offset(preamble, fast_config, fast_array, offset, rotation=1.0 + 0j, scale=1.0, dc=0.0 + 0j):
    modulator = DsmPqamModulator(fast_config, fast_array)
    li, lq = preamble.levels
    clean = modulator.waveform_for_levels(li, lq)
    lead = np.full(offset, clean[0])
    tail = np.full(3 * fast_config.samples_per_slot, clean[-1])
    x = np.concatenate([lead, clean, tail])
    return (x * rotation * scale) + dc


class TestRotationCorrector:
    def test_apply(self):
        c = RotationCorrector(a=2.0 + 0j, b=0.0 + 0j, c=1.0 + 0j)
        np.testing.assert_allclose(c.apply(np.array([1.0 + 1.0j])), [3.0 + 2.0j])

    def test_estimated_roll(self):
        roll = np.deg2rad(25.0)
        # Received = e^{2j roll} * ref, so a (mapping back) = e^{-2j roll}.
        c = RotationCorrector(a=np.exp(-2j * roll), b=0j, c=0j)
        assert c.estimated_roll_rad() == pytest.approx(roll)


class TestDetection:
    def test_exact_offset(self, preamble, fast_config, fast_array):
        for offset in (0, 7, 33, 60):
            x = received_with_offset(preamble, fast_config, fast_array, offset)
            det = preamble.detect(x, search_stop=80)
            assert det.offset == offset
            assert det.detected

    def test_rotation_recovered(self, preamble, fast_config, fast_array):
        roll = np.deg2rad(30.0)
        x = received_with_offset(
            preamble, fast_config, fast_array, 10, rotation=np.exp(2j * roll)
        )
        det = preamble.detect(x, search_stop=40)
        assert det.detected
        assert det.corrector.estimated_roll_rad() == pytest.approx(roll, abs=0.02)

    @settings(max_examples=10, deadline=None)
    @given(
        roll_deg=st.floats(min_value=-80, max_value=80),
        scale=st.floats(min_value=0.2, max_value=3.0),
        dc=st.floats(min_value=-0.5, max_value=0.5),
    )
    def test_correction_restores_reference(
        self, preamble, fast_config, fast_array, roll_deg, scale, dc
    ):
        rot = np.exp(2j * np.deg2rad(roll_deg)) * scale
        x = received_with_offset(
            preamble, fast_config, fast_array, 5, rotation=rot, dc=dc + 0.3j * dc
        )
        det = preamble.detect(x, search_stop=20)
        corrected = det.corrector.apply(x[det.offset : det.offset + preamble.n_samples])
        err = np.sqrt(np.mean(np.abs(corrected - preamble.reference) ** 2))
        assert err < 0.02

    def test_detection_under_noise(self, preamble, fast_config, fast_array):
        x = received_with_offset(preamble, fast_config, fast_array, 21)
        noisy = add_awgn(x, 25.0, reference_power=1.0, rng=1)
        det = preamble.detect(noisy, search_stop=60)
        assert abs(det.offset - 21) <= 1
        assert det.detected

    def test_snr_estimate_tracks_truth(self, preamble, fast_config, fast_array):
        x = received_with_offset(preamble, fast_config, fast_array, 0)
        noisy = add_awgn(x, 30.0, reference_power=1.0, rng=2)
        det = preamble.detect(noisy, search_stop=10)
        assert det.snr_db == pytest.approx(30.0, abs=4.0)

    def test_noise_only_not_detected(self, preamble, fast_config):
        rng = np.random.default_rng(3)
        x = rng.normal(size=preamble.n_samples + 100) + 1j * rng.normal(
            size=preamble.n_samples + 100
        )
        det = preamble.detect(x, search_stop=90)
        assert not det.detected

    def test_short_input_rejected(self, preamble):
        with pytest.raises(ValueError):
            preamble.detect(np.zeros(10, dtype=complex))

    def test_missing_reference_rejected(self, fast_config):
        p = Preamble(fast_config, n_slots=16)
        with pytest.raises(RuntimeError):
            p.detect(np.zeros(10_000, dtype=complex))


class TestNonFiniteSamples:
    """Channel damage (NaN/inf samples) costs a window +inf instead of
    reaching ``lstsq``, whose SVD fails on it."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_damaged_window_costs_inf_intact_ones_unchanged(
        self, preamble, fast_config, fast_array, value
    ):
        x = received_with_offset(preamble, fast_config, fast_array, 20)
        k = preamble.n_samples
        intact = [preamble.offset_cost(x, off) for off in range(0, 40, 3)]
        x[30] = value
        damaged = [preamble.offset_cost(x, off) for off in range(0, 40, 3)]
        for off, before, after in zip(range(0, 40, 3), intact, damaged):
            if off <= 30 < off + k:
                assert after == np.inf
            else:
                assert after == before

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_detect_skips_damaged_windows(self, preamble, fast_config, fast_array, value):
        x = received_with_offset(preamble, fast_config, fast_array, 33)
        clean = preamble.detect(x, search_stop=60)
        # Damage before the true start: only earlier candidates see it.
        x[20] = value
        det = preamble.detect(x, search_stop=60)
        assert det.detected and det.offset == clean.offset == 33
        assert det.normalised_cost == clean.normalised_cost

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_no_finite_window_is_an_undetected_placeholder(
        self, preamble, fast_config, fast_array, value
    ):
        x = received_with_offset(preamble, fast_config, fast_array, 10)
        x[70] = value  # inside every candidate window of offsets 0..60
        det = preamble.detect(x, search_stop=60)
        assert not det.detected
        assert det.normalised_cost == np.inf and det.snr_db == -np.inf
        assert det.corrector == RotationCorrector(1.0 + 0.0j, 0.0j, 0.0j)


class TestConstruction:
    def test_minimum_length_enforced(self, fast_config):
        with pytest.raises(ValueError):
            Preamble(fast_config, n_slots=2)

    def test_reference_length_validated(self, fast_config):
        p = Preamble(fast_config, n_slots=16)
        with pytest.raises(ValueError):
            p.install_reference(np.zeros(7, dtype=complex))

    def test_levels_are_corners(self, fast_config):
        p = Preamble(fast_config, n_slots=16)
        li, lq = p.levels
        m = fast_config.levels_per_axis
        assert set(np.unique(li)) <= {0, m - 1}
        assert set(np.unique(lq)) <= {0, m - 1}
