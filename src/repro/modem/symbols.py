"""PQAM constellation: level geometry and Gray bit mapping.

A P-order PQAM symbol is a pair of PAM levels ``(kI, kQ)``, each from
``sqrt(P)`` equally spaced amplitudes in [-1, +1] on its polarization axis
(paper §4.2.2: charge ``rho`` of the I-LCM and ``rho'`` of the Q-LCM).
Levels are labelled with a Gray code per axis so a nearest-neighbour
decision error costs one bit (paper §5.1's remark on Gray-coded PAM).
"""

from __future__ import annotations

import numpy as np

from repro.coding.gray import gray_map, gray_unmap

__all__ = ["PQAMConstellation"]


class PQAMConstellation:
    """Bit <-> level <-> constellation-point mapping for P-order PQAM."""

    def __init__(self, pqam_order: int):
        p = pqam_order
        if p < 4 or (p & (p - 1)) or (p.bit_length() - 1) % 2:
            raise ValueError("PQAM order must be an even power of two >= 4")
        self.order = p
        self.levels_per_axis = 1 << ((p.bit_length() - 1) // 2)
        self.bits_per_axis = self.levels_per_axis.bit_length() - 1
        self.bits_per_symbol = 2 * self.bits_per_axis
        # Gray label for each level index, and its inverse.
        self._gray = gray_map(self.levels_per_axis)
        self._ungray = gray_unmap(self.levels_per_axis)
        # Row k: the MSB-first Gray bits of level k.
        shifts = np.arange(self.bits_per_axis - 1, -1, -1)
        self._gray_bits = ((self._gray[:, None] >> shifts) & 1).astype(np.uint8)
        m = self.levels_per_axis
        self.axis_amplitudes = (2.0 * np.arange(m) / (m - 1)) - 1.0 if m > 1 else np.zeros(1)

    # -------------------------------------------------------------- levels

    def level_to_amplitude(self, level: np.ndarray | int):
        """Normalised axis amplitude in [-1, 1] for a level index."""
        out = self.axis_amplitudes[np.asarray(level)]
        return float(out) if np.ndim(out) == 0 else out

    def amplitude_to_level(self, amplitude: np.ndarray | float):
        """Nearest level index for a (possibly noisy) axis amplitude."""
        m = self.levels_per_axis
        amp = np.asarray(amplitude, dtype=float)
        idx = np.round((amp + 1.0) * (m - 1) / 2.0).astype(int)
        out = np.clip(idx, 0, m - 1)
        return int(out) if out.ndim == 0 else out

    def point(self, level_i: int, level_q: int) -> complex:
        """Constellation point for a level pair."""
        return complex(self.level_to_amplitude(level_i), self.level_to_amplitude(level_q))

    def constellation_points(self) -> np.ndarray:
        """All P points as a complex array (I-major order)."""
        amps = self.axis_amplitudes
        return (amps[:, None] + 1j * amps[None, :]).ravel()

    def min_distance(self) -> float:
        """Minimum Euclidean distance between constellation points."""
        m = self.levels_per_axis
        return 2.0 / (m - 1) if m > 1 else 2.0

    # ---------------------------------------------------------------- bits

    def bits_to_levels(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map a bit array onto per-slot level pairs ``(kI, kQ)``.

        Bit count must be a multiple of ``bits_per_symbol``; within each
        symbol the first half of the bits selects the I level (as a Gray
        label) and the second half the Q level.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.size % self.bits_per_symbol:
            raise ValueError(
                f"bit count {bits.size} not a multiple of {self.bits_per_symbol}"
            )
        n_symbols = bits.size // self.bits_per_symbol
        grouped = bits.reshape(n_symbols, self.bits_per_symbol)
        b = self.bits_per_axis
        weights = 1 << np.arange(b - 1, -1, -1)
        labels_i = grouped[:, :b] @ weights
        labels_q = grouped[:, b:] @ weights
        return self._ungray[labels_i], self._ungray[labels_q]

    def levels_to_bits(self, levels_i: np.ndarray, levels_q: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`bits_to_levels`."""
        levels_i = np.asarray(levels_i)
        levels_q = np.asarray(levels_q)
        if levels_i.shape != levels_q.shape:
            raise ValueError("I and Q level arrays must have equal length")
        table = self._gray_bits
        return np.concatenate((table[levels_i], table[levels_q]), axis=-1).ravel()

    def symbol_index(self, level_i: int, level_q: int) -> int:
        """Flat symbol index (I-major) of a level pair."""
        return level_i * self.levels_per_axis + level_q

    def split_symbol_index(self, index: int) -> tuple[int, int]:
        """Inverse of :meth:`symbol_index`."""
        m = self.levels_per_axis
        if not 0 <= index < self.order:
            raise ValueError(f"symbol index {index} out of range [0, {self.order})")
        return index // m, index % m

    def random_levels(
        self, n_symbols: int, rng: np.random.Generator | int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Uniform random level pairs (for training/emulation workloads)."""
        from repro.utils.rng import ensure_rng

        gen = ensure_rng(rng)
        m = self.levels_per_axis
        return (
            gen.integers(0, m, size=n_symbols),
            gen.integers(0, m, size=n_symbols),
        )
