"""Golden equivalence: vectorized engine vs the frozen reference integrator.

The vectorized two-pass engine in :mod:`repro.lcm.response` must agree with
the executable specification :class:`ReferenceLCResponseModel` to within
1e-12 on every path — uniform and non-uniform tick grids, homogeneous and
per-pixel time scales, all-charge / all-discharge / mixed drive patterns,
segment-resumed state.  In practice agreement is *bitwise* (the engine
evaluates the identical ufunc sequences), and the tests assert that where
it holds by construction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lcm.response import (
    LCParams,
    LCResponseModel,
    is_uniform_tick_grid,
    tick_sample_boundaries,
)

from reference.response_reference import ReferenceLCResponseModel

TOL = 1e-12


def _random_case(rng, n_pixels, n_ticks, scaled_params=False, time_scale=False):
    params = LCParams()
    if scaled_params:
        params = LCParams().scaled(0.7 + 0.6 * rng.random())
    model = LCResponseModel(params)
    ref = ReferenceLCResponseModel(params)
    drive = rng.integers(0, 2, size=(n_pixels, n_ticks)).astype(np.uint8)
    phi0 = rng.random(n_pixels)
    psi0 = rng.random(n_pixels)
    scale = 0.8 + 0.4 * rng.random(n_pixels) if time_scale else None
    return model, ref, drive, phi0, psi0, scale


class TestGoldenEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("time_scale", [False, True])
    def test_random_drives_uniform_grid(self, seed, time_scale):
        rng = np.random.default_rng(seed)
        n_pixels = int(rng.integers(1, 18))
        n_ticks = int(rng.integers(1, 70))
        model, ref, drive, phi0, psi0, scale = _random_case(
            rng, n_pixels, n_ticks, scaled_params=bool(seed % 2), time_scale=time_scale
        )
        tick_s, fs = 1e-4, 4e5  # 40 samples/tick, exactly uniform
        assert is_uniform_tick_grid(n_ticks, tick_s, fs)
        got = model.simulate(drive, tick_s, fs, phi0=phi0, psi0=psi0, time_scale=scale)
        want = ref.simulate(drive, tick_s, fs, phi0=phi0, psi0=psi0, time_scale=scale)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= TOL
        # the fast path replays the identical arithmetic: agreement is exact
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("fs", [37501.0, 93333.0])
    def test_non_uniform_grid_falls_back_bitwise(self, fs):
        rng = np.random.default_rng(17)
        model, ref, drive, phi0, psi0, scale = _random_case(rng, 9, 41, time_scale=True)
        tick_s = 1e-4
        assert not is_uniform_tick_grid(41, tick_s, fs)
        got = model.simulate(drive, tick_s, fs, phi0=phi0, psi0=psi0, time_scale=scale)
        want = ref.simulate(drive, tick_s, fs, phi0=phi0, psi0=psi0, time_scale=scale)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("fill", [0, 1])
    def test_all_on_and_all_off(self, fill):
        params = LCParams()
        model = LCResponseModel(params)
        ref = ReferenceLCResponseModel(params)
        drive = np.full((7, 25), fill, dtype=np.uint8)
        rng = np.random.default_rng(3)
        phi0, psi0 = rng.random(7), rng.random(7)
        got = model.simulate(drive, 1e-4, 4e5, phi0=phi0, psi0=psi0)
        want = ref.simulate(drive, 1e-4, 4e5, phi0=phi0, psi0=psi0)
        assert np.array_equal(got, want)

    def test_return_state_matches_and_resumes(self):
        """End state equals the reference's, and split == whole simulation."""
        rng = np.random.default_rng(29)
        model, ref, drive, phi0, psi0, scale = _random_case(rng, 11, 48, time_scale=True)
        out_a, (phi_a, psi_a) = model.simulate(
            drive, 1e-4, 4e5, phi0=phi0, psi0=psi0,
            time_scale=scale, return_state=True,
        )
        out_b, (phi_b, psi_b) = ref.simulate(
            drive, 1e-4, 4e5, phi0=phi0, psi0=psi0,
            time_scale=scale, return_state=True,
        )
        assert np.array_equal(out_a, out_b)
        assert np.array_equal(phi_a, phi_b)
        assert np.array_equal(psi_a, psi_b)
        # resume: first 20 ticks, then the remaining 28 from the saved state
        head, (phi_m, psi_m) = model.simulate(
            drive[:, :20], 1e-4, 4e5, phi0=phi0, psi0=psi0,
            time_scale=scale, return_state=True,
        )
        tail = model.simulate(
            drive[:, 20:], 1e-4, 4e5, phi0=phi_m, psi0=psi_m,
            time_scale=scale,
        )
        assert np.array_equal(np.concatenate([head, tail], axis=1), out_a)

    def test_zero_ticks_and_zero_state(self):
        model = LCResponseModel(LCParams())
        ref = ReferenceLCResponseModel(LCParams())
        drive = np.zeros((3, 0), dtype=np.uint8)
        got = model.simulate(drive, 1e-4, 4e5)
        want = ref.simulate(drive, 1e-4, 4e5)
        assert got.shape == want.shape == (3, 0)
        drive = np.ones((3, 10), dtype=np.uint8)
        assert np.array_equal(
            model.simulate(drive, 1e-4, 4e5), ref.simulate(drive, 1e-4, 4e5)
        )


class TestBoundaryRounding:
    """Regression: prorated boundaries are exact, monotone, positive-span."""

    @pytest.mark.parametrize(
        "tick_s,fs",
        [
            (1.3e-4, 1e4),       # 1.3 samples/tick: rounding-sensitive
            (1e-4, 10001.0),     # barely more than 1 sample/tick
            (7.77e-5, 33333.0),  # awkward irrational-ish ratio
            (1e-4, 4e5),         # exactly uniform
            (2.5e-5, 123457.0),  # non-integer, large tick count below
        ],
    )
    def test_spans_positive_and_monotone(self, tick_s, fs):
        for n_ticks in (1, 2, 7, 97, 1000):
            b = tick_sample_boundaries(n_ticks, tick_s, fs)
            assert b.shape == (n_ticks + 1,)
            assert b[0] == 0
            spans = np.diff(b)
            assert (spans >= 1).all(), (tick_s, fs, n_ticks, spans.min())
            assert b[-1] == int(round(n_ticks * tick_s * fs))

    def test_fs_too_low_raises(self):
        with pytest.raises(ValueError, match="fs too low"):
            tick_sample_boundaries(10, 1e-4, 5000.0)  # 0.5 samples/tick

    def test_zero_ticks(self):
        b = tick_sample_boundaries(0, 1e-4, 4e5)
        assert b.shape == (1,) and b[0] == 0

    def test_uniform_grid_predicate(self):
        assert is_uniform_tick_grid(40, 1e-4, 4e5)
        assert not is_uniform_tick_grid(40, 1e-4, 37501.0)
        assert not is_uniform_tick_grid(40, 1e-4, 5000.0)
