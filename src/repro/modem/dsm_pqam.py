"""The DSM-PQAM modulator: PQAM level pairs -> per-pixel drive schedule.

Overlapped (fast) DSM, paper §4.1.2 + §4.2.3: every slot ``T`` one new PQAM
symbol ``(kI, kQ)`` is launched.  The I-channel group ``n mod L`` charges
the binary-weighted subset of its pixels encoding ``kI`` for exactly one
slot, then relaxes for the following ``L - 1`` slots until its next turn;
the Q-channel group with the same index does likewise for ``kQ``.  The
received waveform is the linear superposition of all in-flight pulses —
a deterministic ISI channel spanning ``L`` symbols.
"""

from __future__ import annotations

import numpy as np

from repro.lcm.array import LCMArray
from repro.modem.config import ModemConfig
from repro.modem.symbols import PQAMConstellation

__all__ = ["DsmPqamModulator"]


class DsmPqamModulator:
    """Drive-schedule generator binding a :class:`ModemConfig` to a tag array.

    The array must provide ``config.dsm_order`` groups per polarization
    channel, each with ``config.levels_per_axis`` PAM levels.
    """

    def __init__(self, config: ModemConfig, array: LCMArray):
        self.config = config
        self.array = array
        self.constellation = PQAMConstellation(config.pqam_order)
        # Per group: its channel, drive rows and first firing slot.
        self._firings = []
        for channel in ("I", "Q"):
            groups = array.groups_on(channel)
            if len(groups) != config.dsm_order:
                raise ValueError(
                    f"array has {len(groups)} {channel}-groups; config needs {config.dsm_order}"
                )
            for g in groups:
                if g.n_levels != config.levels_per_axis:
                    raise ValueError(
                        f"group {channel}{g.index} offers {g.n_levels} levels; "
                        f"config needs {config.levels_per_axis}"
                    )
                self._firings.append((channel, array.pixel_slice(g), g.index))
        # LCMGroup.level_to_drive's MSB-first bit shifts, as a column.
        n_bits = config.levels_per_axis.bit_length() - 1
        self._shifts = np.arange(n_bits - 1, -1, -1)[:, None]

    # ------------------------------------------------------------ schedule

    def drive_for_levels(self, levels_i: np.ndarray, levels_q: np.ndarray) -> np.ndarray:
        """Per-pixel drive matrix for a level-pair sequence.

        Returns a ``(n_pixels, n_slots)`` 0/1 matrix with rows ordered as
        ``array.pixels``.  Slot ``n`` charges group ``n mod L`` of each
        channel with its level's binary pixel subset; all other slots of
        that group are discharge slots.
        """
        levels_i = np.asarray(levels_i, dtype=int)
        levels_q = np.asarray(levels_q, dtype=int)
        if levels_i.shape != levels_q.shape or levels_i.ndim != 1:
            raise ValueError("levels_i and levels_q must be equal-length 1-D arrays")
        n_slots = levels_i.size
        m = self.constellation.levels_per_axis
        if levels_i.size and (levels_i.min() < 0 or levels_i.max() >= m or levels_q.min() < 0 or levels_q.max() >= m):
            raise ValueError(f"levels must lie in [0, {m})")
        drive = np.zeros((self.array.n_pixels, n_slots), dtype=np.uint8)
        levels = {"I": levels_i, "Q": levels_q}
        step = self.config.dsm_order
        for channel, rows, first in self._firings:
            # All of the group's firing slots at once: each slot's level
            # expanded into bits down the group's pixel rows.
            drive[rows, first::step] = (levels[channel][first::step] >> self._shifts) & 1
        return drive

    def waveform_for_levels(
        self,
        levels_i: np.ndarray,
        levels_q: np.ndarray,
        roll_rad: float = 0.0,
        initial_phi: float | np.ndarray = 0.0,
        initial_psi: float | np.ndarray = 0.0,
        return_state: bool = False,
    ) -> np.ndarray:
        """Complex baseband waveform for a level-pair sequence.

        With ``return_state=True`` also returns the end-of-sequence
        ``(phi, psi)`` pixel states so a follow-on call can resume exactly
        where this one left off.
        """
        drive = self.drive_for_levels(levels_i, levels_q)
        return self.array.emit(
            drive,
            self.config.slot_s,
            self.config.fs,
            roll_rad=roll_rad,
            initial_phi=initial_phi,
            initial_psi=initial_psi,
            return_state=return_state,
        )

    # ---------------------------------------------------------------- bits

    def modulate_bits(self, bits: np.ndarray, roll_rad: float = 0.0) -> np.ndarray:
        """Bits -> Gray-labelled level pairs -> waveform."""
        levels_i, levels_q = self.constellation.bits_to_levels(bits)
        return self.waveform_for_levels(levels_i, levels_q, roll_rad=roll_rad)

    def slots_for_bits(self, n_bits: int) -> int:
        """Number of slots needed to carry ``n_bits``."""
        bps = self.config.bits_per_symbol
        if n_bits % bps:
            raise ValueError(f"{n_bits} bits is not a multiple of {bps} bits/symbol")
        return n_bits // bps
