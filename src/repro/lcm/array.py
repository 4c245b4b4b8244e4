"""The tag's LCM pixel array: binary-weighted PAM groups on two
polarization channels, and the vectorised optical waveform synthesis.

Paper §6 (Tag): "an array of 4 LCMs ... each one contains 4 groups of pixels
with area ratio 8:4:2:1 to realize ASK up to 16 levels (256-QAM) ... The 4
LCMs are equipped with either 0deg or 45deg back polarizer, forming 2 I-LCMs
and 2 Q-LCMs."  The emulated configurations (§7.3) extend this to more
pixels; :func:`LCMArray.build` is parameterised accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lcm.heterogeneity import HeterogeneityModel
from repro.lcm.pixel import LCMPixel
from repro.lcm.response import LCParams, LCResponseModel
from repro.utils.rng import ensure_rng

__all__ = ["LCMArray", "LCMGroup", "build_paper_tag_array"]

_CHANNEL_ANGLES = {"I": 0.0, "Q": np.pi / 4.0}

# Fidelity ladder rungs for the polarization optics (see
# repro/optics/polarstack.py).  "malus" is the frozen scalar paper model.
FIDELITY_RUNGS = ("malus", "jones", "stokes")


@dataclass
class LCMGroup:
    """One DSM transmitter: a binary-weighted PAM modulator on one channel.

    ``pixels`` are ordered most-significant first (largest area first), so a
    PAM level's binary expansion maps positionally onto drive bits.
    """

    channel: str
    index: int
    pixels: list[LCMPixel]

    def __post_init__(self) -> None:
        if self.channel not in _CHANNEL_ANGLES:
            raise ValueError(f"channel must be 'I' or 'Q', got {self.channel!r}")
        if not self.pixels:
            raise ValueError("a group needs at least one pixel")

    @property
    def n_levels(self) -> int:
        """Number of PAM amplitude levels this group can express."""
        return 1 << len(self.pixels)

    @property
    def nominal_area(self) -> float:
        """Total nominal area of the group (sum of pixel areas)."""
        return sum(p.area for p in self.pixels)

    def level_to_drive(self, level: int) -> np.ndarray:
        """Binary expansion of a PAM level onto this group's pixels.

        Level ``k`` charges the subset of pixels whose areas sum to
        ``k / (n_levels - 1)`` of the group area, i.e. the MSB-first binary
        expansion of ``k``.
        """
        if not 0 <= level < self.n_levels:
            raise ValueError(f"level {level} out of range [0, {self.n_levels - 1}]")
        n = len(self.pixels)
        return np.array([(level >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.uint8)


class LCMArray:
    """The complete tag pixel array plus its waveform synthesiser.

    The array holds ``groups`` (DSM transmitters) for the two polarization
    channels and exposes :meth:`emit`, which turns a per-pixel drive
    schedule into the *complex baseband* waveform a polarization-diverse
    reader observes:

    .. math::
        u(t) = e^{j 2 \\Delta\\theta_{roll}}
               \\sum_i a_i \\, s_i(t) \\, e^{j 2 \\theta_i}

    where ``s_i(t) = -cos(pi * phi_i(t))`` is the pixel's nonlinear bipolar
    optical amplitude and amplitudes are normalised so a fully charged
    channel sums to +1.

    ``fidelity`` selects the polarization rung: the default ``"malus"`` is
    the paper's scalar model (frozen — byte-identical to every pre-ladder
    golden); ``"jones"``/``"stokes"`` route the amplitude through the
    spectral polarizer-stack engine in :mod:`repro.optics.polarstack`,
    configured by ``polarization`` (a ``PolarStackConfig``; the ideal
    default collapses bitwise onto the Malus path).
    """

    def __init__(
        self,
        groups: list[LCMGroup],
        params: LCParams | None = None,
        fidelity: str = "malus",
        polarization=None,
    ):
        if not groups:
            raise ValueError("array needs at least one group")
        if fidelity not in FIDELITY_RUNGS:
            raise ValueError(
                f"fidelity must be one of {FIDELITY_RUNGS}, got {fidelity!r}"
            )
        self.groups = groups
        self.params = params or LCParams()
        self.fidelity = fidelity
        if fidelity == "malus":
            self.polarization = polarization
        else:
            from repro.optics.polarstack import PolarStackConfig

            self.polarization = (
                polarization if polarization is not None else PolarStackConfig()
            )
            if fidelity == "jones" and self.polarization.retro_depolarization != 0.0:
                raise ValueError(
                    "fidelity='jones' is coherent; retroreflector "
                    "depolarization requires fidelity='stokes'"
                )
        self._model = LCResponseModel(self.params)
        self.pixels: list[LCMPixel] = [p for g in groups for p in g.pixels]
        # Per-channel normalisation so that each channel spans [-1, +1].
        self._channel_area = {
            ch: sum(g.nominal_area for g in groups if g.channel == ch) or 1.0
            for ch in _CHANNEL_ANGLES
        }
        self._amplitudes = np.array(
            [p.amplitude / self._channel_area[self._pixel_channel(p)] for p in self.pixels]
        )
        self._bases = np.array([p.basis for p in self.pixels], dtype=complex)
        self._time_scales = np.array([p.time_scale for p in self.pixels])
        # Per-pixel cell-gap retardance factors, column-shaped so the
        # fidelity kernels broadcast them against (n_pixels, n_samples) phi.
        self._retardance_scales = np.array(
            [p.retardance_scale for p in self.pixels]
        )[:, None]
        # Per-pixel complex mixing weights, hoisted out of emit(): they only
        # change when the array is rebuilt (e.g. after fault-plan gain
        # mutation, which reconstructs the array from its mutated pixels).
        self._weights = self._amplitudes[:, None] * self._bases[:, None]

    def _pixel_channel(self, pixel: LCMPixel) -> str:
        for g in self.groups:
            if pixel in g.pixels:
                return g.channel
        raise ValueError("pixel does not belong to this array")

    # ------------------------------------------------------------ geometry

    @property
    def n_pixels(self) -> int:
        """Total number of independently drivable pixels."""
        return len(self.pixels)

    def groups_on(self, channel: str) -> list[LCMGroup]:
        """Groups of one polarization channel, ordered by firing index."""
        return sorted((g for g in self.groups if g.channel == channel), key=lambda g: g.index)

    def pixel_slice(self, group: LCMGroup) -> slice:
        """Row range of ``group``'s pixels within drive/emit matrices."""
        start = 0
        for g in self.groups:
            if g is group:
                return slice(start, start + len(g.pixels))
            start += len(g.pixels)
        raise ValueError("group does not belong to this array")

    # ------------------------------------------------------------ waveform

    def emit(
        self,
        drive: np.ndarray,
        tick_s: float,
        fs: float,
        roll_rad: float = 0.0,
        initial_phi: float | np.ndarray = 0.0,
        initial_psi: float | np.ndarray = 0.0,
        return_state: bool = False,
    ) -> np.ndarray | tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """Complex baseband waveform for a per-pixel drive schedule.

        Parameters
        ----------
        drive:
            ``(n_pixels, n_ticks)`` 0/1 array, rows ordered as
            ``self.pixels``.
        tick_s, fs:
            Drive tick duration (seconds) and output sample rate (Hz).
        roll_rad:
            Physical roll misalignment of the whole tag; enters as a
            ``exp(j * 2 * roll)`` constellation rotation.
        return_state:
            When True also return the end-of-schedule per-pixel
            ``(phi, psi)`` state, so a later schedule can resume exactly
            where this one stopped (used to synthesise a frame in cached
            prefix + payload segments).
        """
        drive = np.asarray(drive)
        if drive.shape[0] != self.n_pixels:
            raise ValueError(f"drive has {drive.shape[0]} rows for {self.n_pixels} pixels")
        result = self._model.simulate(
            drive,
            tick_s,
            fs,
            phi0=initial_phi,
            psi0=initial_psi,
            time_scale=self._time_scales,
            return_state=return_state,
        )
        phi, state = result if return_state else (result, None)
        if self.fidelity == "malus":
            # LCResponseModel.optical_amplitude's ops, in phi's own buffer:
            # s = 2 sin^2(pi phi / 2) - 1.
            s = np.multiply(phi, np.pi / 2.0, out=phi)
            np.sin(s, out=s)
            np.square(s, out=s)
            np.multiply(s, 2.0, out=s)
            np.subtract(s, 1.0, out=s)
            # The complex weighted sum as its real and imaginary row sums
            # over axis 0, each in the order of the complex one.
            u = np.empty(s.shape[1], dtype=complex)
            term = np.empty_like(s)
            np.sum(np.multiply(s, self._weights.real, out=term), axis=0, out=u.real)
            np.sum(np.multiply(s, self._weights.imag, out=term), axis=0, out=u.imag)
            u = u * np.exp(2j * roll_rad)
        else:
            from repro.optics.polarstack import jones_baseband, stokes_baseband

            baseband = jones_baseband if self.fidelity == "jones" else stokes_baseband
            u = baseband(
                self.polarization,
                phi,
                self._weights,
                roll_rad=roll_rad,
                retardance_scale=self._retardance_scales,
            )
        if return_state:
            return u, state
        return u

    # ------------------------------------------------------------- factory

    @classmethod
    def build(
        cls,
        groups_per_channel: int,
        levels_per_group: int = 16,
        heterogeneity: HeterogeneityModel | None = None,
        params: LCParams | None = None,
        rng: np.random.Generator | int | None = None,
        fidelity: str = "malus",
        polarization=None,
    ) -> "LCMArray":
        """Construct an array with ``groups_per_channel`` DSM transmitters
        per polarization channel, each a binary-weighted PAM group with
        ``levels_per_group`` levels (a power of two).

        Each group plays the role of one physical LCM: its pixels share an
        LCM-level gain factor on top of per-pixel spread.

        When a ``polarization`` stack is supplied, its dispersion model's
        operating temperature is threaded into the LC time constants here
        (``LCDispersionModel.scaled_params``) — once, at build time, so
        re-wrapping the groups in a new ``LCMArray`` never double-scales.
        At the nominal temperature the parameters object passes through
        untouched.
        """
        if groups_per_channel < 1:
            raise ValueError("need at least one group per channel")
        if levels_per_group < 2 or (levels_per_group & (levels_per_group - 1)):
            raise ValueError("levels_per_group must be a power of two >= 2")
        het = heterogeneity or HeterogeneityModel.ideal()
        gen = ensure_rng(rng)
        base = params or LCParams()
        if fidelity != "malus" and polarization is None:
            from repro.optics.polarstack import PolarStackConfig

            polarization = PolarStackConfig()
        if polarization is not None:
            base = polarization.dispersion.scaled_params(base)
        n_bits = levels_per_group.bit_length() - 1
        groups: list[LCMGroup] = []
        for channel, angle in _CHANNEL_ANGLES.items():
            for index in range(groups_per_channel):
                lcm_gain = het.sample_lcm_gain(gen)
                pixels = []
                for bit in range(n_bits):
                    var = het.sample_pixel(gen, lcm_gain=lcm_gain)
                    pixels.append(
                        LCMPixel(
                            area=float(1 << (n_bits - 1 - bit)),
                            angle_rad=angle + var.angle_error_rad,
                            gain=var.gain,
                            time_scale=var.time_scale,
                            params=base,
                            retardance_scale=var.retardance_scale,
                        )
                    )
                groups.append(LCMGroup(channel=channel, index=index, pixels=pixels))
        return cls(groups, params=base, fidelity=fidelity, polarization=polarization)


def build_paper_tag_array(
    heterogeneity: HeterogeneityModel | None = None,
    rng: np.random.Generator | int | None = None,
    fidelity: str = "malus",
    polarization=None,
) -> LCMArray:
    """The prototype tag of paper §6: 2 I-LCMs + 2 Q-LCMs, each a
    binary-weighted 16-level PAM group (8:4:2:1) — 16 pixels total, 66 cm^2
    of retroreflector behind them."""
    return LCMArray.build(
        groups_per_channel=2,
        levels_per_group=16,
        heterogeneity=heterogeneity,
        rng=rng,
        fidelity=fidelity,
        polarization=polarization,
    )
