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

The exact cost at one offset is an ``np.linalg.lstsq`` solve
(:meth:`Preamble.offset_cost`).  :meth:`Preamble.detect` screens each run of
candidate offsets with the same fit in closed form and certifies the pick:
every offset the closed form cannot rule out is re-evaluated exactly, so
the detection is the one the ``lstsq`` scan over every offset would make.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.channel.snr import estimate_snr_db
from repro.modem.config import ModemConfig
from repro.utils.mseq import LFSR

__all__ = ["Preamble", "PreambleDetection", "RotationCorrector"]

#: Error bound of the closed-form screen, in normalised cost units: a
#: trusted offset's closed-form cost lies within ``_DELTA_REL * cost +
#: _DELTA_ABS`` of its exact ``lstsq`` cost.
_DELTA_REL = 1e-9
_DELTA_ABS = 1e-10
#: Candidate offsets the screen evaluates at once; bounds its window matrix.
_SCREEN_BLOCK = 256
#: ``lstsq(rcond=None)`` drops singular values below ``eps * rows`` times
#: the largest; the screen trusts a window only this far above that cutoff.
_CUTOFF_MARGIN = 1e3


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
        # Per matched slice (keyed by its skip): the screen's centred
        # reference terms, built once per installed reference.
        self._screen_terms: dict[int, tuple[np.ndarray, float]] = {}

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
        self._screen_terms = {}

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
        exactly the values :meth:`detect` derives internally and passes to
        :meth:`offset_cost`.
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

        This is the exact evaluator: one ``lstsq`` solve.  The regression
        reads only ``x[offset + skip : offset + skip + k]``, so the cost is
        *slice-local*: any buffer containing those samples — a streaming
        prefix, the full capture — yields the identical float.  A slice
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

    def _screen(
        self,
        x: np.ndarray,
        offsets: range,
        matched: tuple[np.ndarray, int, float],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form costs of the candidate ``offsets``, and where to trust them.

        Returns ``(cost, trusted)``.  Centring the window ``x`` and the
        reference ``y`` eliminates ``c`` and leaves a 2x2 Hermitian system
        in ``(a, b)`` built from ``P = sum |x~|^2``, ``S = sum x~^2``,
        ``R1 = sum conj(x~) y~`` and ``R2 = sum x~ y~``: ``a = (P R1 -
        conj(S) R2) / (P^2 - |S|^2)``, ``b = (P R2 - S R1) / (P^2 - |S|^2)``.
        The residual power is ``sum |y~|^2 - Re(conj(a) R1 + conj(b) R2)``,
        evaluated without forming ``a`` and ``b``.  Each window's sums are
        its own, so no rounding carries over from other windows (prefix
        sums would carry it): one product of the block's window matrix with
        ``[y~, conj(y~), 1]`` gives ``R1``, ``R2`` and the window means;
        each window is then centred in place, and ``P`` and ``S`` are
        row-wise dot products.  The samples are shifted by the span's mean
        first: the fit is shift-invariant, and the shift keeps a DC level
        out of the products' rounding.

        An offset is trusted where the closed form is accurate and ``lstsq``
        cannot truncate: every sum is finite, the centred system is well
        conditioned, centring did not cancel, and a lower bound on the
        design's singular-value ratio clears ``lstsq``'s rank cutoff with
        margin.  A window holding a non-finite sample costs ``+inf``, as in
        :meth:`offset_cost`, and is trusted.
        """
        y, skip, ref_power = matched
        k = y.size
        if skip not in self._screen_terms:
            yc = y - y.sum() / k
            self._screen_terms[skip] = (
                np.column_stack((yc, yc.conj(), np.ones(k))),
                np.vdot(yc, yc).real,
            )
        rhs, y_energy = self._screen_terms[skip]
        cutoff = (_CUTOFF_MARGIN * np.finfo(float).eps * k) ** 2
        cost = np.empty(len(offsets))
        trusted = np.empty(len(offsets), dtype=bool)
        with np.errstate(all="ignore"):
            for lo in range(0, len(offsets), _SCREEN_BLOCK):
                block = offsets[lo : lo + _SCREEN_BLOCK]
                n, step = len(block), block.step
                span = x[block.start + skip : block[-1] + skip + k]
                finite = np.isfinite(span)
                if finite.all():
                    shift = span.sum() / span.size
                    xs = span - shift
                    damaged = np.zeros(n, dtype=bool)
                else:
                    shift = span[finite].mean() if finite.any() else 0.0
                    xs = np.where(finite, span - shift, 0.0)
                    bad = np.concatenate(([0], np.cumsum(~finite)))
                    starts = np.arange(0, n * step, step)
                    damaged = bad[starts + k] > bad[starts]
                strides = (step * xs.itemsize, xs.itemsize)
                w = np.array(as_strided(xs, shape=(n, k), strides=strides))
                r = w @ rhs  # columns R2, conj(R1), sum x
                mu = r[:, 2] / k
                w -= mu[:, None]
                wr = w.view(float)
                p = (wr[:, None, :] @ wr[:, :, None])[:, 0, 0]
                s = (w[:, None, :] @ w[:, :, None])[:, 0, 0]
                abs_s = np.abs(s)
                gap = p - abs_s
                # Re(conj(a) R1 + conj(b) R2), expanded:
                # (P (|R1|^2 + |R2|^2) - 2 Re(S R1 conj(R2))) / (P^2 - |S|^2).
                q = np.square(np.abs(r[:, :2])).sum(axis=1)
                t = (s * np.conj(r[:, 0] * r[:, 1])).real
                explained = (p * q - 2 * t) / (gap * (p + abs_s))
                fast = (y_energy - explained) / (k * ref_power)
                # sigma_min / sigma_max of [x, conj(x), 1] is at least
                # sqrt(min(P - |S|, k)) / ((1 + sqrt(2) |dc|) sqrt(2 sum|x|^2 + k)),
                # dc the window mean: [x, x*, 1] = [x~, x~*, 1] M, |M^-1| <= 1 + sqrt(2) |dc|.
                dc = np.abs(mu + shift)
                energy = p + k * dc**2
                ok = (
                    np.isfinite(fast)
                    & np.isfinite(energy)
                    & (gap >= 1e-6 * p)
                    & (p >= 1e-8 * energy)
                    & (np.minimum(gap, k) >= cutoff * (1 + np.sqrt(2) * dc) ** 2 * (2 * energy + k))
                )
                fast[damaged] = np.inf
                cost[lo : lo + n] = fast
                trusted[lo : lo + n] = ok | damaged
        return cost, trusted

    def _candidates(
        self,
        x: np.ndarray,
        offsets: range,
        matched: tuple[np.ndarray, int, float],
    ) -> list[int]:
        """The offsets of ``offsets`` that could hold the least exact cost.

        With ``m`` the least trusted closed-form cost, these are the trusted
        offsets whose closed-form cost is at most ``m + 2 (_DELTA_REL m +
        _DELTA_ABS)`` and every untrusted offset.  Any other offset's exact
        cost exceeds the minimiser's, since each lies within the error bound
        of its closed form; so the tuple-min of the exact costs over the
        candidates is the tuple-min over all of ``offsets``.  When no offset
        is trusted, every offset is a candidate: the exact scan.
        """
        cost, trusted = self._screen(x, offsets, matched)
        keep = ~trusted
        if trusted.any():
            m = cost[trusted].min()
            keep |= cost <= m + 2 * (_DELTA_REL * m + _DELTA_ABS)
        return [offsets[i] for i in np.flatnonzero(keep)]

    def detect(
        self,
        x: np.ndarray,
        search_start: int = 0,
        search_stop: int | None = None,
        coarse_stride: int | None = None,
        cost_threshold: float = 0.25,
        reference_tail_slots: int | None = None,
    ) -> PreambleDetection:
        """Find the packet start in ``x`` and fit the rotation corrector.

        A coarse pass strides through candidate offsets, then a fine pass
        refines around the coarse minimum at single-sample resolution.  Each
        pass screens its offsets in closed form and evaluates exactly only
        the candidates the screen cannot rule out, so the result equals an
        ``lstsq`` fit at every offset: the coarse pass keeps the least
        ``(cost, offset)``, the fine pass the first offset of least finite
        cost, and the corrector and cost are the ``lstsq`` fit at the winner.

        ``cost_threshold`` is the normalised residual (residual power /
        reference power) above which the detection is flagged unreliable.

        ``reference_tail_slots`` restricts the matched reference to the
        *last* N preamble slots — the hardened receiver's fallback when a
        burst obliterated the preamble's head.  The returned ``offset`` is
        always the preamble start, whichever slice was matched.
        """
        matched = self.matched_reference(reference_tail_slots)
        y, skip, ref_power = matched
        x = np.asarray(x, dtype=complex)
        k = y.size
        last = x.size - k - skip
        if last < 0:
            raise ValueError("received waveform shorter than the preamble reference")
        if search_start < 0:
            raise ValueError("search_start must be non-negative")
        stop = last if search_stop is None else min(search_stop, last)
        if search_start > stop:
            raise ValueError("empty search range")
        stride = coarse_stride or self.default_coarse_stride
        coarse = self._candidates(x, range(search_start, stop + 1, stride), matched)
        if len(coarse) > 1:
            _, best_off = min((self.offset_cost(x, off, matched), off) for off in coarse)
        else:
            (best_off,) = coarse
        fine_lo = max(search_start, best_off - stride)
        fine_hi = min(stop, best_off + stride)
        fine = self._candidates(x, range(fine_lo, fine_hi + 1), matched)
        if len(fine) > 1:
            costs = ((self.offset_cost(x, off, matched), off) for off in fine)
            finite = [(cost, off) for cost, off in costs if cost < np.inf]
            fine = [min(finite)[1]] if finite else []
        if fine:
            offset = fine[0]
            window = x[offset + skip : offset + skip + k]
            if np.isfinite(window).all():
                corrector, res_power = self._solve_regression(window, y)
                cost = res_power / ref_power
                if cost < np.inf:
                    snr = estimate_snr_db(y, corrector.apply(window) - y)
                    return PreambleDetection(
                        offset=offset,
                        corrector=corrector,
                        normalised_cost=cost,
                        snr_db=snr,
                        detected=cost <= cost_threshold,
                    )
        # No candidate window could be fitted: report a miss rather than fail.
        return PreambleDetection.miss(best_off)
