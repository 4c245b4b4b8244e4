"""SNR -> (bit rate, coding rate) selection (paper §4.4 + Fig 18b).

The reader keeps a profiled database: for each PHY rate a BER-vs-SNR
waterfall, and for each Reed-Solomon option the induced block success
probability; the goodput-maximising combination is piggybacked to each tag
on the downlink.  Profiles default to waterfalls calibrated against this
reproduction's own trace-driven emulation (Fig 18a harness); callers can
install measured profiles instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

__all__ = [
    "CodingOption",
    "LinkProfile",
    "RateChoice",
    "RateOption",
    "default_profile",
]


@dataclass(frozen=True)
class RateOption:
    """One PHY operating point in the profile database.

    ``threshold_db`` is the SNR at 1% raw BER; ``waterfall_db`` the SNR
    decrease that multiplies BER by 10 (steepness of the waterfall).
    """

    rate_bps: float
    threshold_db: float
    waterfall_db: float = 3.0

    def ber(self, snr_db: float) -> float:
        """Raw bit error rate at a given SNR (waterfall model, capped at 0.5)."""
        exponent = 2.0 + (snr_db - self.threshold_db) / self.waterfall_db
        if -exponent > 1:  # 10 ** -exponent > 10 clips to 0.5 (and may overflow)
            return 0.5
        return float(np.clip(10.0 ** (-exponent), 1e-12, 0.5))


@dataclass(frozen=True)
class CodingOption:
    """A Reed-Solomon RS(n, k) option over GF(256)."""

    n: int = 255
    k: int = 255  # k == n means uncoded

    def __post_init__(self) -> None:
        if not 0 < self.k <= self.n <= 255:
            raise ValueError(f"need 0 < k <= n <= 255, got n={self.n}, k={self.k}")

    @property
    def code_rate(self) -> float:
        """Information rate k/n."""
        return self.k / self.n

    @property
    def t(self) -> int:
        """Correctable symbol errors per block."""
        return (self.n - self.k) // 2

    def block_success(self, bit_error_rate: float) -> float:
        """Probability an n-symbol block decodes, given i.i.d. bit errors."""
        symbol_error = 1.0 - (1.0 - bit_error_rate) ** 8
        if self.t == 0:
            return float((1.0 - symbol_error) ** self.n)
        return float(stats.binom.cdf(self.t, self.n, symbol_error))


@dataclass(frozen=True)
class RateChoice:
    """A concrete assignment: PHY rate + coding + its expected goodput."""

    rate: RateOption
    coding: CodingOption
    goodput_bps: float


class LinkProfile:
    """The reader's profiled database of rate/coding options."""

    def __init__(self, rates: list[RateOption], codings: list[CodingOption] | None = None):
        if not rates:
            raise ValueError("profile needs at least one rate option")
        self.rates = sorted(rates, key=lambda r: r.rate_bps)
        self.codings = codings or [
            CodingOption(255, 255),
            CodingOption(255, 251),
            CodingOption(255, 223),
            CodingOption(255, 191),
            CodingOption(255, 127),
        ]

    def goodput(self, rate: RateOption, coding: CodingOption, snr_db: float) -> float:
        """Expected stop-and-wait goodput of one option at an SNR.

        Goodput = raw rate x code rate x block success probability (each
        failed block is retransmitted; expected attempts = 1/p).
        """
        p = coding.block_success(rate.ber(snr_db))
        return rate.rate_bps * coding.code_rate * p

    def best_choice(self, snr_db: float) -> RateChoice:
        """The goodput-maximising (rate, coding) pair at an SNR."""
        best: RateChoice | None = None
        for rate in self.rates:
            for coding in self.codings:
                g = self.goodput(rate, coding, snr_db)
                if best is None or g > best.goodput_bps:
                    best = RateChoice(rate=rate, coding=coding, goodput_bps=g)
        assert best is not None
        return best


def default_profile() -> LinkProfile:
    """Profile with thresholds shaped like the paper's emulation (Fig 18a).

    The paper quotes ~20 dB between 1 and 4 Kbps, ~8 dB between 4 and
    8 Kbps (Table 3), and 32 Kbps decodable under a 55 dB restriction.
    Thresholds here follow that ladder; the Fig 18a benchmark recalibrates
    them against this reproduction's own measured waterfalls.
    """
    return LinkProfile(
        rates=[
            RateOption(1_000, threshold_db=-2.0),
            RateOption(2_000, threshold_db=8.0),
            RateOption(4_000, threshold_db=18.0),
            RateOption(8_000, threshold_db=26.0),
            RateOption(12_000, threshold_db=29.0),
            RateOption(16_000, threshold_db=31.0),
            RateOption(24_000, threshold_db=40.0),
            RateOption(32_000, threshold_db=50.0),
        ]
    )
