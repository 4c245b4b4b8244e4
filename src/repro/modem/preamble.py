"""Preamble: packet detection, timing and PQAM rotation correction (§4.3.1).

Detection slides a recorded reference waveform ``Y`` over the received
samples ``X`` and, at each candidate offset, solves the widely-linear
regression

    D(X, Y) = min_{a, b, c}  || Y - (a X + b X* + c) ||^2

where ``a`` models rotation+scaling (roll appears as ``exp(j*2*roll)``),
``b`` absorbs I/Q imbalance, and ``c`` the DC offset.  The minimising
offset is the packet start; the fitted coefficients are then applied to the
*rest* of the packet, mapping it into the rotation-free reference domain
the demodulator's reference pulses live in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.snr import estimate_snr_db
from repro.modem.config import ModemConfig
from repro.utils.mseq import LFSR

__all__ = ["Preamble", "PreambleDetection", "RotationCorrector"]


@dataclass(frozen=True)
class RotationCorrector:
    """The fitted (a, b, c) map from received to reference domain."""

    a: complex
    b: complex
    c: complex

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Correct a received waveform: ``a*x + b*conj(x) + c``."""
        x = np.asarray(x, dtype=complex)
        return self.a * x + self.b * np.conj(x) + self.c

    def estimated_roll_rad(self) -> float:
        """Roll estimate implied by ``a`` (``angle(a) = -2*roll``)."""
        return float(-np.angle(self.a) / 2.0)


@dataclass(frozen=True)
class PreambleDetection:
    """Outcome of a preamble search."""

    offset: int
    corrector: RotationCorrector
    normalised_cost: float
    """Residual power over reference power; small means confident."""
    snr_db: float
    detected: bool

    @classmethod
    def miss(cls, offset: int = 0) -> "PreambleDetection":
        """A miss with nothing fitted: identity corrector, infinite cost."""
        return cls(
            offset=offset,
            corrector=RotationCorrector(1.0 + 0.0j, 0.0j, 0.0j),
            normalised_cost=float("inf"),
            snr_db=float("-inf"),
            detected=False,
        )


class Preamble:
    """A deterministic preamble sequence plus its clean reference waveform.

    The level sequence exercises constellation corners (maximum contrast)
    from an LFSR so its matched cost has a sharp minimum; the reference
    waveform is recorded offline through a nominal tag at high SNR, exactly
    as the paper calibrates its rotation-free reference.
    """

    def __init__(self, config: ModemConfig, n_slots: int = 40, seed: int = 0x2D):
        if n_slots < 2 * config.dsm_order:
            raise ValueError("preamble must span at least two DSM symbols")
        self.config = config
        self.n_slots = n_slots
        self.seed = seed
        self._levels_i, self._levels_q = self._build_levels()
        self.reference: np.ndarray | None = None

    def _build_levels(self) -> tuple[np.ndarray, np.ndarray]:
        m = self.config.levels_per_axis
        lfsr = LFSR(order=9, seed=self.seed)
        bits = lfsr.run(2 * self.n_slots)
        levels_i = bits[: self.n_slots].astype(int) * (m - 1)
        levels_q = bits[self.n_slots :].astype(int) * (m - 1)
        return levels_i, levels_q

    @property
    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """The preamble's (I, Q) level sequences."""
        return self._levels_i.copy(), self._levels_q.copy()

    @property
    def n_samples(self) -> int:
        """Reference length in samples."""
        return self.n_slots * self.config.samples_per_slot

    def install_reference(self, reference: np.ndarray) -> None:
        """Install the offline-recorded clean reference waveform."""
        reference = np.asarray(reference, dtype=complex)
        if reference.size != self.n_samples:
            raise ValueError(
                f"reference has {reference.size} samples; expected {self.n_samples}"
            )
        self.reference = reference

    def record_reference(self, modulator) -> np.ndarray:
        """Record the reference through a (nominal) modulator and install it."""
        waveform = modulator.waveform_for_levels(self._levels_i, self._levels_q)
        self.install_reference(waveform[: self.n_samples])
        return self.reference

    # ----------------------------------------------------------- detection

    @staticmethod
    def _solve_regression(x: np.ndarray, y: np.ndarray) -> tuple[RotationCorrector, float]:
        """Widely-linear LS fit of y on [x, conj(x), 1]; returns corrector
        and residual power."""
        design = np.column_stack([x, np.conj(x), np.ones(x.size, dtype=complex)])
        theta, *_ = np.linalg.lstsq(design, y, rcond=None)
        residual = y - design @ theta
        corrector = RotationCorrector(a=complex(theta[0]), b=complex(theta[1]), c=complex(theta[2]))
        return corrector, float(np.mean(np.abs(residual) ** 2))

    @property
    def default_coarse_stride(self) -> int:
        """The stride :meth:`detect`'s coarse pass uses when none is given."""
        return max(1, self.config.samples_per_slot // 4)

    def matched_reference(
        self, reference_tail_slots: int | None = None
    ) -> tuple[np.ndarray, int, float]:
        """``(y, skip, ref_power)`` of the matched reference slice.

        ``y`` is the reference waveform actually correlated (possibly a
        tail slice), ``skip`` the sample offset of that slice from the
        preamble start, and ``ref_power`` its normalisation constant —
        exactly the values :meth:`detect` derives internally.  Exposed so an
        incremental scanner can evaluate :meth:`offset_cost` without paying
        the derivation per candidate offset.
        """
        if self.reference is None:
            raise RuntimeError("no reference installed; call record_reference() first")
        ts = self.config.samples_per_slot
        if reference_tail_slots is None:
            skip = 0
            y = self.reference
        else:
            if not 2 * self.config.dsm_order <= reference_tail_slots <= self.n_slots:
                raise ValueError(
                    "reference_tail_slots must cover at least two DSM symbols "
                    "and at most the whole preamble"
                )
            skip = (self.n_slots - reference_tail_slots) * ts
            y = self.reference[skip:]
        ref_power = float(np.mean(np.abs(y) ** 2))
        return y, skip, ref_power

    def offset_cost(
        self,
        x: np.ndarray,
        offset: int,
        matched: tuple[np.ndarray, int, float] | None = None,
    ) -> float:
        """Normalised detection cost at one candidate ``offset``.

        The regression reads only ``x[offset + skip : offset + skip + k]``,
        so the cost is *slice-local*: any buffer containing those samples —
        a streaming prefix, the full capture — yields the identical float.
        That locality is what lets the streaming receiver's incremental
        coarse scan reproduce :meth:`detect`'s scan bit-for-bit.  A slice
        holding a non-finite sample (channel damage) cannot be fitted; it
        costs ``+inf``, so it is never the minimum.
        """
        y, skip, ref_power = matched if matched is not None else self.matched_reference()
        lo = offset + skip
        window = np.asarray(x[lo : lo + y.size], dtype=complex)
        if not np.isfinite(window).all():
            return np.inf
        _, res_power = self._solve_regression(window, y)
        return res_power / ref_power

    def detect(
        self,
        x: np.ndarray,
        search_start: int = 0,
        search_stop: int | None = None,
        coarse_stride: int | None = None,
        cost_threshold: float = 0.25,
        reference_tail_slots: int | None = None,
        coarse_offset: int | None = None,
    ) -> PreambleDetection:
        """Find the packet start in ``x`` and fit the rotation corrector.

        A coarse pass strides through candidate offsets, then a fine pass
        refines around the coarse minimum at single-sample resolution.

        ``cost_threshold`` is the normalised residual (residual power /
        reference power) above which the detection is flagged unreliable.

        ``reference_tail_slots`` restricts the matched reference to the
        *last* N preamble slots — the hardened receiver's fallback when a
        burst obliterated the preamble's head.  The returned ``offset`` is
        always the preamble start, whichever slice was matched.

        ``coarse_offset`` replaces the coarse pass with an
        already-determined coarse minimum (the streaming receiver's
        incremental scanner computes it chunk by chunk); only the fine pass
        around it runs.  Passing the offset the coarse pass would have
        picked yields the identical detection.
        """
        y, skip, ref_power = self.matched_reference(reference_tail_slots)
        x = np.asarray(x, dtype=complex)
        k = y.size
        last = x.size - k - skip
        if last < 0:
            raise ValueError("received waveform shorter than the preamble reference")
        stop = last if search_stop is None else min(search_stop, last)
        if search_start > stop:
            raise ValueError("empty search range")
        stride = coarse_stride or self.default_coarse_stride
        # Windows with a non-finite sample cost +inf, as in offset_cost; one
        # pass over every sample the search can read spares an intact
        # capture the per-window checks.
        intact = bool(np.isfinite(x[search_start + skip : stop + skip + k]).all())

        def cost_at(offset: int) -> tuple[RotationCorrector | None, float]:
            lo = offset + skip
            window = x[lo : lo + k]
            if not intact and not np.isfinite(window).all():
                return None, np.inf
            corrector, res_power = self._solve_regression(window, y)
            return corrector, res_power / ref_power

        if coarse_offset is not None:
            if not search_start <= coarse_offset <= stop:
                raise ValueError("coarse_offset outside the search range")
            best_off = coarse_offset
        else:
            coarse_offsets = range(search_start, stop + 1, stride)
            coarse = [(cost_at(off)[1], off) for off in coarse_offsets]
            _, best_off = min(coarse)
        fine_lo = max(search_start, best_off - stride)
        fine_hi = min(stop, best_off + stride)
        best = (np.inf, best_off, None)
        for off in range(fine_lo, fine_hi + 1):
            corrector, cost = cost_at(off)
            if cost < best[0]:
                best = (cost, off, corrector)
        cost, offset, corrector = best
        if corrector is None:
            # No candidate window could be fitted: report a miss rather
            # than fail.
            return PreambleDetection.miss(offset)
        fitted = corrector.apply(x[offset + skip : offset + skip + k])
        snr = estimate_snr_db(y, fitted - y)
        return PreambleDetection(
            offset=offset,
            corrector=corrector,
            normalised_cost=cost,
            snr_db=snr,
            detected=cost <= cost_threshold,
        )
