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
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.lcm.array import LCMArray
from repro.lcm.heterogeneity import HeterogeneityModel
from repro.lcm.response import (
    LCParams,
    LCResponseModel,
    is_uniform_tick_grid,
    tick_sample_boundaries,
)

from repro.modem.config import RATE_PRESETS, ModemConfig
from repro.modem.dsm_pqam import DsmPqamModulator
from repro.phy.frame import FrameFormat

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


# ---------------------------------------------------------------------------
# Real DSM drives: the schedules transmit() actually simulates.

#: Every rate preset, plus the streaming benchmark's operating point.
DSM_POINTS = {
    **{f"{rate}bps": cfg for rate, cfg in RATE_PRESETS.items()},
    "stream": ModemConfig(dsm_order=2, pqam_order=4, slot_s=2.0e-3, fs=10e3, tail_memory=2),
}


def _dsm_case(config: ModemConfig, payload_bytes: int, seed: int):
    """A heterogeneous tag's modulator, frame and one random payload."""
    array = LCMArray.build(
        groups_per_channel=config.dsm_order,
        levels_per_group=config.levels_per_axis,
        heterogeneity=HeterogeneityModel(),
        rng=seed,
    )
    modulator = DsmPqamModulator(config, array)
    frame = FrameFormat(config, payload_bytes=payload_bytes)
    payload = np.random.default_rng(seed).integers(0, 256, payload_bytes, dtype=np.uint8).tobytes()
    return array, modulator, frame, payload


def _assert_prefix_body_resume(config, array, modulator, frame, payload, scale):
    """Whole frame vs the reference, and prefix-then-body vs the whole frame.

    The cut sits where ``PhyTransmitter``'s cached prefix ends, and the body
    resumes from the prefix's end state, as ``transmit`` does.
    """
    params = array.params
    model, ref = LCResponseModel(params), ReferenceLCResponseModel(params)
    tick_s, fs = config.slot_s, config.fs
    whole = modulator.drive_for_levels(*frame.frame_levels(payload))
    assert is_uniform_tick_grid(whole.shape[1], tick_s, fs)
    want, (phi_w, psi_w) = ref.simulate(whole, tick_s, fs, time_scale=scale, return_state=True)
    got, (phi_g, psi_g) = model.simulate(whole, tick_s, fs, time_scale=scale, return_state=True)
    assert np.array_equal(got, want)
    assert np.array_equal(phi_g, phi_w) and np.array_equal(psi_g, psi_w)

    prefix = modulator.drive_for_levels(*frame.prefix_levels())
    body = modulator.drive_for_levels(*frame.body_levels(payload))
    head, (phi_m, psi_m) = model.simulate(prefix, tick_s, fs, time_scale=scale, return_state=True)
    tail = model.simulate(body, tick_s, fs, phi0=phi_m, psi0=psi_m, time_scale=scale)
    assert np.array_equal(np.concatenate([head, tail], axis=1), want)


class TestDsmDriveEquivalence:
    """Frame drives from ``drive_for_levels``, bit for bit against the reference."""

    @pytest.mark.parametrize("point", sorted(DSM_POINTS))
    @pytest.mark.parametrize("scaled", [True, False], ids=["per-pixel-scale", "scale-none"])
    def test_frame_and_prefix_body_resume(self, point, scaled):
        config = DSM_POINTS[point]
        array, modulator, frame, payload = _dsm_case(config, payload_bytes=4, seed=11)
        scale = array._time_scales if scaled else None
        _assert_prefix_body_resume(config, array, modulator, frame, payload, scale)

    def test_rows_above_the_gate(self):
        """Start every pixel stressed above the gate: the plateau lane runs."""
        config = DSM_POINTS["8000bps"]
        array, modulator, frame, payload = _dsm_case(config, payload_bytes=4, seed=3)
        params = array.params
        drive = modulator.drive_for_levels(*frame.body_levels(payload))
        rng = np.random.default_rng(5)
        n = drive.shape[0]
        phi0 = rng.random(n)
        psi0 = params.psi_gate + (1.0 - params.psi_gate) * rng.random(n)
        for scale in (array._time_scales, None):
            got = LCResponseModel(params).simulate(
                drive, config.slot_s, config.fs, phi0=phi0, psi0=psi0, time_scale=scale
            )
            want = ReferenceLCResponseModel(params).simulate(
                drive, config.slot_s, config.fs, phi0=phi0, psi0=psi0, time_scale=scale
            )
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("fill", [0, 1])
    def test_single_tick(self, fill):
        rng = np.random.default_rng(fill)
        params = LCParams()
        drive = np.full((6, 1), fill, dtype=np.uint8)
        phi0, psi0 = rng.random(6), rng.random(6)
        scale = 0.8 + 0.4 * rng.random(6)
        for ts in (scale, None):
            got = LCResponseModel(params).simulate(drive, 5e-4, 4e4, phi0=phi0, psi0=psi0, time_scale=ts)
            want = ReferenceLCResponseModel(params).simulate(
                drive, 5e-4, 4e4, phi0=phi0, psi0=psi0, time_scale=ts
            )
            assert got.shape == (6, 20)
            assert np.array_equal(got, want)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        point=st.sampled_from(sorted(DSM_POINTS)),
        payload_bytes=st.integers(1, 6),
        seed=st.integers(0, 2**16),
        scaled=st.booleans(),
        stressed=st.booleans(),
        cut=st.integers(0, 10**6),
    )
    def test_property(self, point, payload_bytes, seed, scaled, stressed, cut):
        """Any point, payload, scale and start state; a cut at any tick resumes."""
        config = DSM_POINTS[point]
        array, modulator, frame, payload = _dsm_case(config, payload_bytes, seed)
        params = array.params
        tick_s, fs = config.slot_s, config.fs
        drive = modulator.drive_for_levels(*frame.body_levels(payload))
        n_pixels, n_ticks = drive.shape
        rng = np.random.default_rng(seed)
        phi0 = rng.random(n_pixels)
        psi0 = rng.random(n_pixels)
        if stressed:
            psi0 = params.psi_gate + (1.0 - params.psi_gate) * psi0
        scale = array._time_scales if scaled else None
        model, ref = LCResponseModel(params), ReferenceLCResponseModel(params)
        want = ref.simulate(drive, tick_s, fs, phi0=phi0, psi0=psi0, time_scale=scale)
        assert np.array_equal(
            model.simulate(drive, tick_s, fs, phi0=phi0, psi0=psi0, time_scale=scale), want
        )
        k = cut % (n_ticks + 1)
        head, (phi_m, psi_m) = model.simulate(
            drive[:, :k], tick_s, fs, phi0=phi0, psi0=psi0, time_scale=scale, return_state=True
        )
        tail = model.simulate(drive[:, k:], tick_s, fs, phi0=phi_m, psi0=psi_m, time_scale=scale)
        assert np.array_equal(np.concatenate([head, tail], axis=1), want)


class TestDriveForLevels:
    """The one-operation-per-group schedule equals the per-slot construction."""

    @staticmethod
    def _per_slot(modulator, levels_i, levels_q):
        array, cfg = modulator.array, modulator.config
        drive = np.zeros((array.n_pixels, levels_i.size), dtype=np.uint8)
        for channel, levels in (("I", levels_i), ("Q", levels_q)):
            for group in array.groups_on(channel):
                rows = array.pixel_slice(group)
                for n in range(group.index, levels.size, cfg.dsm_order):
                    drive[rows, n] = group.level_to_drive(int(levels[n]))
        return drive

    @pytest.mark.parametrize("point", sorted(DSM_POINTS))
    def test_matches_level_to_drive(self, point):
        config = DSM_POINTS[point]
        array, modulator, frame, payload = _dsm_case(config, payload_bytes=4, seed=2)
        m = config.levels_per_axis
        rng = np.random.default_rng(4)
        for n_slots in (0, 1, config.dsm_order - 1, 3 * config.dsm_order + 1):
            levels_i, levels_q = rng.integers(0, m, n_slots), rng.integers(0, m, n_slots)
            got = modulator.drive_for_levels(levels_i, levels_q)
            assert got.dtype == np.uint8
            assert np.array_equal(got, self._per_slot(modulator, levels_i, levels_q))
        levels_i, levels_q = frame.frame_levels(payload)
        assert np.array_equal(
            modulator.drive_for_levels(levels_i, levels_q),
            self._per_slot(modulator, levels_i, levels_q),
        )

    @pytest.mark.parametrize("point", sorted(DSM_POINTS))
    def test_out_of_range_levels_raise(self, point):
        config = DSM_POINTS[point]
        _, modulator, _, _ = _dsm_case(config, payload_bytes=1, seed=0)
        m = config.levels_per_axis
        ok = np.zeros(2 * config.dsm_order, dtype=int)
        for bad in (-1, m):
            wrong = ok.copy()
            wrong[-1] = bad
            with pytest.raises(ValueError, match="levels must lie in"):
                modulator.drive_for_levels(wrong, ok)
            with pytest.raises(ValueError, match="levels must lie in"):
                modulator.drive_for_levels(ok, wrong)
