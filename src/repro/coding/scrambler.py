"""Additive (synchronous) data scrambler.

Paper §4.3.1, footnote 4: the receiver corrects DC offset, while *"the
transmitter's DC stress should be avoided with appropriate data scrambler
applied"* — driving an LCM with long constant runs both stresses the liquid
crystal and starves the online channel estimator of transitions.  We XOR the
payload with an m-sequence keystream; descrambling is the same operation.
"""

from __future__ import annotations

import numpy as np

from repro.utils.bits import bits_to_bytes, bytes_to_bits
from repro.utils.mseq import LFSR

__all__ = ["Scrambler"]


class Scrambler:
    """Synchronous XOR scrambler keyed by an LFSR seed.

    The same ``(order, seed)`` pair must be configured at both ends; the
    keystream restarts at each call, which matches per-packet scrambling in
    the RetroTurbo frame format.
    """

    def __init__(self, order: int = 15, seed: int = 0x5A5):
        self.order = order
        self.seed = seed
        if not 1 <= seed < (1 << order):
            raise ValueError(f"seed must fit in {order} bits and be nonzero")
        self._keystreams: dict[int, np.ndarray] = {}

    def keystream(self, n_bits: int) -> np.ndarray:
        """First ``n_bits`` bits of the keystream (a fresh array).

        The LFSR runs once per length; later calls copy the cached bits.
        """
        if n_bits not in self._keystreams:
            self._keystreams[n_bits] = LFSR(self.order, seed=self.seed).run(n_bits)
        return self._keystreams[n_bits].copy()

    def scramble_bits(self, bits: np.ndarray) -> np.ndarray:
        """XOR a bit array with the keystream (involutive)."""
        bits = np.asarray(bits, dtype=np.uint8)
        return bits ^ self.keystream(bits.size)

    # XOR with the same keystream undoes itself.
    descramble_bits = scramble_bits

    def scramble(self, data: bytes) -> bytes:
        """Scramble a byte string."""
        return bits_to_bytes(self.scramble_bits(bytes_to_bits(data)))

    descramble = scramble
