"""Tag-side PHY: frame levels -> LCM drive -> optical waveform.

The backscatter controller of paper §3.2: picks the modulation operating
point, serialises the frame onto the pixel array, and reports the energy
the schedule costs.

The guard/preamble/training prefix of every frame is payload-independent,
so when an :class:`~repro.utils.opcache.OpCache` is supplied the prefix
waveform (and the exact LC ``(phi, psi)`` state at its end) is synthesised
once per operating point and replayed for every subsequent packet; only
the rest of the frame (:meth:`~repro.phy.frame.FrameFormat.body_levels`:
the payload, and a re-sync frame's sync sections) is simulated per
transmit.  The split is bitwise transparent: frame sections are multiples
of the DSM order, so the drive schedule of ``prefix + body`` concatenates
exactly, the per-tick state recurrence is independent of how many ticks
follow, and the uniform-grid synthesis path evaluates each tick from its
boundary state identically in either segment.  The roll-phase factor is applied once on the assembled
frame, keeping the cached prefix orientation-free.
"""

from __future__ import annotations

import numpy as np

from repro.lcm.array import LCMArray
from repro.lcm.power import TagPowerModel
from repro.lcm.response import is_uniform_tick_grid
from repro.modem.dsm_pqam import DsmPqamModulator
from repro.phy.frame import FrameFormat
from repro.utils.opcache import fingerprint, fingerprint_array, fingerprint_config, resolve_opcache

__all__ = ["PhyTransmitter"]


class PhyTransmitter:
    """A tag configured with a frame format and a pixel array."""

    def __init__(
        self,
        frame: FrameFormat,
        array: LCMArray,
        power_model: TagPowerModel | None = None,
        opcache=None,
    ):
        self.frame = frame
        self.array = array
        self.modulator = DsmPqamModulator(frame.config, array)
        self.power_model = power_model or TagPowerModel()
        self._opcache = resolve_opcache(opcache)
        self._array_fp: str | None = None

    def _array_fingerprint(self) -> str:
        if self._array_fp is None:
            self._array_fp = fingerprint_array(self.array)
        return self._array_fp

    def _prefix_artifact(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached ``(prefix_wave, phi_end, psi_end)`` for this operating point."""
        prefix_i, prefix_q = self.frame.prefix_levels()
        key = (
            fingerprint_config(self.frame.config),
            self._array_fingerprint(),
            fingerprint([prefix_i, prefix_q]),
        )

        def build() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            wave, (phi, psi) = self.modulator.waveform_for_levels(
                prefix_i, prefix_q, roll_rad=0.0, return_state=True
            )
            return wave, phi, psi

        return self._opcache.get("tx_prefix", key, build)

    def transmit(self, payload: bytes, roll_rad: float = 0.0) -> np.ndarray:
        """Complex baseband waveform of one complete frame."""
        cfg = self.frame.config
        if self._opcache is not None and is_uniform_tick_grid(
            self.frame.total_slots, cfg.slot_s, cfg.fs
        ):
            prefix_wave, phi0, psi0 = self._prefix_artifact()
            body_i, body_q = self.frame.body_levels(payload)
            body_wave = self.modulator.waveform_for_levels(
                body_i, body_q, roll_rad=0.0, initial_phi=phi0, initial_psi=psi0
            )
            full = np.concatenate([prefix_wave, body_wave])
            return full * np.exp(2j * roll_rad)
        levels_i, levels_q = self.frame.frame_levels(payload)
        return self.modulator.waveform_for_levels(levels_i, levels_q, roll_rad=roll_rad)

    def transmit_power_w(self, payload: bytes) -> float:
        """Average tag power over the frame (the §7.2.2 Power microbench)."""
        levels_i, levels_q = self.frame.frame_levels(payload)
        drive = self.modulator.drive_for_levels(levels_i, levels_q)
        return self.power_model.mean_power(self.array, drive, self.frame.config.slot_s)
