"""The RetroTurbo operating point: (L, T, P, V) and derived quantities.

Paper Table 1 gives the default configuration: DSM order L = 8,
interleaving time T = 0.5 ms, symbol duration W = L*T = 4 ms, PQAM order
P = 16, tail-effect memory V = 2 — an 8 Kbps link (log2(P)/T).

Rate presets follow the paper's sweep points: the experimental prototype
runs 1-8 Kbps; emulation (§7.3) extends to 32 Kbps using more/faster
pixels (footnote 7 notes the tag hardware itself supports 16 Kbps with
8-DSM and 256-PQAM).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = ["ModemConfig", "RATE_PRESETS", "preset_for_rate"]


@dataclass(frozen=True)
class ModemConfig:
    """One DSM-PQAM operating point.

    Parameters
    ----------
    dsm_order:
        ``L`` — number of DSM transmitters (interleaved firing slots) per
        polarization channel.
    pqam_order:
        ``P`` — constellation size; ``sqrt(P)`` PAM levels per axis.  Must
        be an even power of two (4, 16, 64, 256).
    slot_s:
        ``T`` — DSM interleaving time in seconds (one PQAM symbol per slot).
    fs:
        Receiver baseband sample rate in Hz.
    tail_memory:
        ``V`` — reference-pulse classification memory in firings (current
        firing plus ``V - 1`` previous ones, paper §4.3.3).
    """

    dsm_order: int = 8
    pqam_order: int = 16
    slot_s: float = 0.5e-3
    fs: float = 40e3
    tail_memory: int = 2

    def __post_init__(self) -> None:
        if self.dsm_order < 1:
            raise ValueError("dsm_order must be >= 1")
        p = self.pqam_order
        if p < 4 or (p & (p - 1)) or (p.bit_length() - 1) % 2:
            raise ValueError("pqam_order must be an even power of two >= 4 (4, 16, 64, 256, ...)")
        if not (math.isfinite(self.slot_s) and self.slot_s > 0):
            raise ValueError("slot_s must be positive and finite")
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise ValueError("fs must be positive and finite")
        if self.tail_memory < 1:
            raise ValueError("tail_memory must be >= 1")
        if self.samples_per_slot < 2:
            raise ValueError("fs too low: need at least 2 samples per slot")

    # ------------------------------------------------------------- derived

    @property
    def levels_per_axis(self) -> int:
        """``sqrt(P)`` PAM levels on each of the I and Q axes."""
        return 1 << ((self.pqam_order.bit_length() - 1) // 2)

    @property
    def bits_per_symbol(self) -> int:
        """``log2(P)`` bits carried per slot."""
        return self.pqam_order.bit_length() - 1

    @property
    def symbol_duration_s(self) -> float:
        """``W = L * T`` — span of one DSM pulse."""
        return self.dsm_order * self.slot_s

    @property
    def rate_bps(self) -> float:
        """Raw PHY bit rate ``log2(P) / T``."""
        return self.bits_per_symbol / self.slot_s

    @property
    def samples_per_slot(self) -> int:
        """Receiver samples per slot."""
        return int(round(self.slot_s * self.fs))

    @property
    def samples_per_symbol(self) -> int:
        """Receiver samples per DSM pulse span ``W``."""
        return self.dsm_order * self.samples_per_slot

    def with_rate(self, **changes) -> "ModemConfig":
        """Functional update (dataclasses.replace convenience)."""
        return replace(self, **changes)

    def scaled_to_material(self, time_scale: float) -> "ModemConfig":
        """The same operating point on a faster/slower LC material.

        Scaling every LC time constant by ``time_scale`` scales the slot
        time with it and the sample rate inversely, keeping samples-per-
        slot (and thus the whole demodulation geometry) identical while
        the raw bit rate grows by ``1 / time_scale``.  Pair with
        ``LCParams.scaled(time_scale)`` / the material presets.
        """
        if not (math.isfinite(time_scale) and time_scale > 0):
            raise ValueError("time_scale must be positive and finite")
        return replace(self, slot_s=self.slot_s * time_scale, fs=self.fs / time_scale)

    def describe(self) -> str:
        """Human-readable one-liner for logs and benchmark tables."""
        return (
            f"DSM L={self.dsm_order}, T={self.slot_s * 1e3:g} ms, "
            f"PQAM P={self.pqam_order}, V={self.tail_memory} "
            f"-> {self.rate_bps / 1e3:g} Kbps"
        )


RATE_PRESETS: dict[int, ModemConfig] = {
    1_000: ModemConfig(dsm_order=2, pqam_order=4, slot_s=2.0e-3),
    2_000: ModemConfig(dsm_order=4, pqam_order=4, slot_s=1.0e-3),
    4_000: ModemConfig(dsm_order=4, pqam_order=16, slot_s=1.0e-3),
    8_000: ModemConfig(dsm_order=8, pqam_order=16, slot_s=0.5e-3),
    12_000: ModemConfig(dsm_order=8, pqam_order=64, slot_s=0.5e-3),
    16_000: ModemConfig(dsm_order=8, pqam_order=256, slot_s=0.5e-3),
    24_000: ModemConfig(dsm_order=16, pqam_order=64, slot_s=0.25e-3),
    32_000: ModemConfig(dsm_order=16, pqam_order=256, slot_s=0.25e-3),
}
"""Named operating points per raw bit rate (bps).

All presets keep ``W = L * T`` at the 4 ms dictated by the LC's relaxation
(the paper's power-invariance argument relies on this), trading DSM order,
PQAM order and slot time for rate.  The >= 24 Kbps points assume the
emulation-only faster firing (T = 0.25 ms), as in §7.3.
"""


def preset_for_rate(rate_bps: float) -> ModemConfig:
    """The preset for a given raw rate; raises for unknown rates."""
    key = int(round(rate_bps))
    try:
        return RATE_PRESETS[key]
    except KeyError:
        known = ", ".join(str(k) for k in sorted(RATE_PRESETS))
        raise ValueError(f"no preset for {rate_bps} bps; known: {known}") from None


def _check_rates() -> None:
    for rate, cfg in RATE_PRESETS.items():
        assert abs(cfg.rate_bps - rate) < 1e-6, (rate, cfg.rate_bps)
        assert abs(cfg.symbol_duration_s - 4e-3) < 1e-9, (rate, cfg.symbol_duration_s)


_check_rates()
