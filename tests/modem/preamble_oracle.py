"""The exact preamble scan: one ``lstsq`` fit at every candidate offset.

This is :meth:`repro.modem.preamble.Preamble.detect` as it was before the
closed-form screen, kept as a test oracle.  ``detect`` must return the same
detection, bit for bit, on every input.
"""

from __future__ import annotations

import numpy as np

from repro.channel.snr import estimate_snr_db
from repro.modem.preamble import Preamble, PreambleDetection, RotationCorrector


def exact_costs(
    preamble: Preamble,
    x: np.ndarray,
    offsets,
    reference_tail_slots: int | None = None,
) -> np.ndarray:
    """The exact normalised cost at each offset (``+inf`` on a damaged window)."""
    matched = preamble.matched_reference(reference_tail_slots)
    x = np.asarray(x, dtype=complex)
    return np.array([preamble.offset_cost(x, off, matched) for off in offsets])


def oracle_detect(
    preamble: Preamble,
    x: np.ndarray,
    search_start: int = 0,
    search_stop: int | None = None,
    coarse_stride: int | None = None,
    cost_threshold: float = 0.25,
    reference_tail_slots: int | None = None,
) -> PreambleDetection:
    """The exact scan ``Preamble.detect`` must reproduce."""
    y, skip, ref_power = preamble.matched_reference(reference_tail_slots)
    x = np.asarray(x, dtype=complex)
    k = y.size
    last = x.size - k - skip
    if last < 0:
        raise ValueError("received waveform shorter than the preamble reference")
    stop = last if search_stop is None else min(search_stop, last)
    if search_start > stop:
        raise ValueError("empty search range")
    stride = coarse_stride or preamble.default_coarse_stride

    def cost_at(offset: int) -> tuple[RotationCorrector | None, float]:
        lo = offset + skip
        window = x[lo : lo + k]
        if not np.isfinite(window).all():
            return None, np.inf
        corrector, res_power = preamble._solve_regression(window, y)
        return corrector, res_power / ref_power

    coarse = [(cost_at(off)[1], off) for off in range(search_start, stop + 1, stride)]
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


def detection_bits(det: PreambleDetection) -> tuple:
    """Every field of a detection, floats as their exact bit patterns."""
    c = det.corrector
    parts = (c.a.real, c.a.imag, c.b.real, c.b.imag, c.c.real, c.c.imag)
    return (
        det.offset,
        tuple(float(v).hex() for v in parts),
        float(det.normalised_cost).hex(),
        float(det.snr_db).hex(),
        det.detected,
    )
