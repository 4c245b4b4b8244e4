"""Data scrambler (DC-stress avoidance)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.coding.scrambler import Scrambler


class TestInvolution:
    @given(st.binary(min_size=0, max_size=128))
    def test_descramble_inverts(self, data):
        s = Scrambler()
        assert s.descramble(s.scramble(data)) == data

    def test_bits_involution(self):
        s = Scrambler()
        bits = np.random.default_rng(0).integers(0, 2, 77, dtype=np.uint8)
        np.testing.assert_array_equal(s.descramble_bits(s.scramble_bits(bits)), bits)


class TestWhitening:
    def test_breaks_constant_runs(self):
        """An all-zero payload must not stay all-zero on the air."""
        s = Scrambler()
        out = np.unpackbits(np.frombuffer(s.scramble(bytes(64)), dtype=np.uint8))
        ones = out.mean()
        assert 0.3 < ones < 0.7

    def test_longest_run_bounded(self):
        s = Scrambler()
        bits = np.unpackbits(np.frombuffer(s.scramble(bytes(256)), dtype=np.uint8))
        longest = max(
            len(run) for run in "".join(map(str, bits)).replace("1", " 1").split()
        ) if bits.size else 0
        assert longest < 32


class TestKeying:
    def test_same_seed_same_keystream(self):
        assert Scrambler(seed=0x123).scramble(b"x" * 16) == Scrambler(seed=0x123).scramble(b"x" * 16)

    def test_different_seed_different_keystream(self):
        assert Scrambler(seed=0x123).scramble(b"x" * 16) != Scrambler(seed=0x124).scramble(b"x" * 16)

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            Scrambler(seed=0)


class TestKeystreamCache:
    def test_returned_keystream_is_a_fresh_array(self):
        s = Scrambler()
        first = s.keystream(64)
        expected = first.copy()
        first ^= 1
        np.testing.assert_array_equal(s.keystream(64), expected)

    def test_cached_keystream_is_the_lfsr_prefix(self):
        s = Scrambler(seed=0x123)
        long = s.keystream(300)
        np.testing.assert_array_equal(s.keystream(100), long[:100])
        np.testing.assert_array_equal(Scrambler(seed=0x123).keystream(300), long)

