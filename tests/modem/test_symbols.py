"""PQAM constellation mapping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.gray import gray_map
from repro.modem.symbols import PQAMConstellation
from repro.utils.bits import int_to_bits


@pytest.fixture(scope="module", params=[4, 16, 64, 256])
def constellation(request) -> PQAMConstellation:
    return PQAMConstellation(request.param)


class TestGeometry:
    def test_levels_per_axis(self):
        assert PQAMConstellation(16).levels_per_axis == 4
        assert PQAMConstellation(256).levels_per_axis == 16

    def test_amplitudes_span_unit_interval(self, constellation):
        amps = constellation.axis_amplitudes
        assert amps[0] == pytest.approx(-1.0)
        assert amps[-1] == pytest.approx(1.0)
        assert np.all(np.diff(amps) > 0)

    def test_point_count(self, constellation):
        assert constellation.constellation_points().size == constellation.order

    def test_min_distance(self):
        assert PQAMConstellation(16).min_distance() == pytest.approx(2.0 / 3.0)

    def test_amplitude_quantisation_round_trip(self, constellation):
        for k in range(constellation.levels_per_axis):
            amp = constellation.level_to_amplitude(k)
            assert constellation.amplitude_to_level(amp) == k

    def test_noisy_amplitude_snaps_to_nearest(self):
        c = PQAMConstellation(16)
        assert c.amplitude_to_level(-0.95) == 0
        assert c.amplitude_to_level(0.4) == 2

    def test_amplitude_clipped(self):
        c = PQAMConstellation(16)
        assert c.amplitude_to_level(5.0) == 3
        assert c.amplitude_to_level(-5.0) == 0


class TestBits:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_round_trip(self, constellation, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, 4 * constellation.bits_per_symbol, dtype=np.uint8)
        li, lq = constellation.bits_to_levels(bits)
        back = constellation.levels_to_bits(li, lq)
        np.testing.assert_array_equal(back, bits)

    def test_table_lookup_equals_per_slot_expansion(self, constellation):
        """Every level pair maps to the Gray labels' MSB-first bits."""
        m, b = constellation.levels_per_axis, constellation.bits_per_axis
        li, lq = (a.ravel() for a in np.meshgrid(np.arange(m), np.arange(m), indexing="ij"))
        expected = np.concatenate(
            [
                np.concatenate([int_to_bits(int(gray_map(m)[i]), b), int_to_bits(int(gray_map(m)[q]), b)])
                for i, q in zip(li, lq)
            ]
        )
        got = constellation.levels_to_bits(li, lq)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, expected)

    def test_mismatched_level_shapes_rejected(self, constellation):
        with pytest.raises(ValueError):
            constellation.levels_to_bits(np.zeros(3, dtype=int), np.zeros(2, dtype=int))

    def test_wrong_bit_count_rejected(self, constellation):
        with pytest.raises(ValueError):
            constellation.bits_to_levels(np.ones(constellation.bits_per_symbol + 1, dtype=np.uint8))

    def test_gray_neighbours_one_bit(self, constellation):
        """Adjacent levels on one axis differ in exactly one payload bit."""
        m = constellation.levels_per_axis
        if m < 4:
            pytest.skip("trivial for binary axes")
        for k in range(m - 1):
            a = constellation.levels_to_bits(np.array([k]), np.array([0]))
            b = constellation.levels_to_bits(np.array([k + 1]), np.array([0]))
            assert int(np.sum(a != b)) == 1

    def test_symbol_index_round_trip(self, constellation):
        for idx in range(constellation.order):
            i, q = constellation.split_symbol_index(idx)
            assert constellation.symbol_index(i, q) == idx

    def test_bad_symbol_index(self, constellation):
        with pytest.raises(ValueError):
            constellation.split_symbol_index(constellation.order)

    def test_random_levels_in_range(self, constellation):
        li, lq = constellation.random_levels(100, rng=1)
        assert li.min() >= 0 and li.max() < constellation.levels_per_axis
        assert lq.min() >= 0 and lq.max() < constellation.levels_per_axis


def test_invalid_orders_rejected():
    for bad in (2, 8, 32, 12):
        with pytest.raises(ValueError):
            PQAMConstellation(bad)
