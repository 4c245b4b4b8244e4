"""Frozen scalar per-tag link path: the vectorized engine's executable spec.

This module is a **verbatim freeze** of :class:`repro.network.link.
TagLinkState` as it stood before the struct-of-arrays
:class:`~repro.network.linkstore.LinkStateStore` replaced it on the fleet
hot path (the same freeze-then-vectorize pattern as
:mod:`repro.modem.dfe_reference` and :mod:`repro.lcm.response_reference`).
It is the ground truth the equivalence wall
(``tests/network/test_linkstore_equivalence.py``) and the fleet-scale
benchmark (``benchmarks/bench_fleet_scale.py``) drive against: for any
fleet config, chaos plan, and handoff sequence, the vectorized engine must
reproduce this path's per-tag ``snapshot()`` dicts,
:class:`~repro.network.link.FrameOutcome` sequences, and timeline digests
bit for bit.

Do not optimise this file.  Its per-slot dict lookups, scalar
``rng.random()`` draw, per-call :meth:`CodingOption.block_success`, and
O(n) ladder scan in ``_raise_rate`` are the *specification* of the
semantics (including the documented one-draw-per-attempt-per-tag-stream
determinism contract), kept runnable so equivalence is checked against
executed behaviour, never against a prose description.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.mac.arq import StopAndWaitARQ
from repro.mac.rate_adapt import CodingOption, LinkProfile, RateOption
from repro.mac.watchdog import LinkWatchdog
from repro.network.linkstore import FrameOutcome

__all__ = ["ReferenceTagLinkState"]


class ReferenceTagLinkState:
    """Watchdog + ARQ + rate-streak state for one tag, reader-agnostic.

    Frozen scalar reference — see the module docstring.  The constructor
    signature and every public member mirror the pre-vectorization
    :class:`~repro.network.link.TagLinkState` exactly.
    """

    def __init__(
        self,
        profile: LinkProfile,
        coding: CodingOption | None = None,
        payload_bytes: int = 32,
        overhead_s: float = 0.01,
        raise_after: int = 3,
        fail_threshold: int = 3,
        recover_after: int = 3,
        arq: StopAndWaitARQ | None = None,
    ):
        if payload_bytes < 1:
            raise ConfigError("payload_bytes must be >= 1")
        if overhead_s < 0:
            raise ConfigError("overhead_s must be non-negative")
        if raise_after < 1:
            raise ConfigError("raise_after must be >= 1")
        self.profile = profile
        self.coding = coding if coding is not None else CodingOption(255, 223)
        self.payload_bytes = payload_bytes
        self.overhead_s = overhead_s
        self.raise_after = raise_after
        self.arq = arq or StopAndWaitARQ()
        ladder = [int(r.rate_bps) for r in profile.rates]
        self._rate_by_bps: dict[int, RateOption] = {
            int(r.rate_bps): r for r in profile.rates
        }
        self.watchdog = LinkWatchdog(
            rates=ladder,
            initial_rate_bps=ladder[0],  # probe at the most robust rung
            fail_threshold=fail_threshold,
            recover_after=recover_after,
            base_backoff_s=0.0,  # fleet airtime is charged by the scheduler
        )
        self.success_streak = 0
        #: Attempts already spent on the in-flight frame (ARQ window).
        self.pending_attempts = 0
        # Counters.
        self.delivered = 0
        self.abandoned = 0
        self.attempts = 0

    # -------------------------------------------------------------- queries

    @property
    def rate_bps(self) -> int:
        """The rung currently assigned to this tag."""
        return self.watchdog.current_rate_bps

    def success_probability(self, snr_db: float, extra_fail_prob: float = 0.0) -> float:
        """Per-attempt CRC success probability at an effective SNR.

        ``extra_fail_prob`` models schedule-corruption slot collisions —
        an independent failure mode multiplied into the PHY's block
        success."""
        rate = self._rate_by_bps[self.rate_bps]
        p = self.coding.block_success(rate.ber(snr_db))
        return p * (1.0 - extra_fail_prob)

    def frame_airtime_s(self, rate_bps: int | None = None) -> float:
        """Airtime of one attempt at a rate (default: the current rung)."""
        rate = self.rate_bps if rate_bps is None else rate_bps
        bits_on_air = self.payload_bytes * 8 / self.coding.code_rate
        return self.overhead_s + bits_on_air / rate

    # ------------------------------------------------------------ adaptation

    def attempt_frame(
        self,
        snr_db: float,
        rng: np.random.Generator,
        extra_fail_prob: float = 0.0,
    ) -> FrameOutcome:
        """One served TDMA slot: draw the CRC outcome, adapt, account ARQ.

        Exactly one random draw per attempt, from the *tag's* stream — so
        a tag's outcome sequence depends only on its own seed and how many
        slots it was served, never on other tags or readers.
        """
        rate = self.rate_bps
        airtime = self.frame_airtime_s(rate)
        p = self.success_probability(snr_db, extra_fail_prob)
        ok = bool(rng.random() < p)
        self.attempts += 1
        action = self.watchdog.record(ok)
        abandoned = False
        if ok:
            self.delivered += 1
            self.pending_attempts = 0
            self.success_streak += 1
            if self.success_streak >= self.raise_after and self.watchdog.recovery_ready:
                self._raise_rate()
                self.success_streak = 0
        else:
            self.success_streak = 0
            self.pending_attempts += 1
            if self.pending_attempts >= self.arq.max_attempts:
                # ARQ budget exhausted: the frame is abandoned and the
                # window opens for the next one.
                self.abandoned += 1
                self.pending_attempts = 0
                abandoned = True
            # Rate fallback already applied by the watchdog via `action`.
            del action
        return FrameOutcome(
            delivered=ok, abandoned=abandoned, rate_bps=rate, airtime_s=airtime
        )

    def _raise_rate(self) -> None:
        ladder = self.watchdog.ladder
        idx = ladder.index(self.rate_bps)
        if idx + 1 < len(ladder):
            self.watchdog.observe_rate(ladder[idx + 1])

    # ---------------------------------------------------------- persistence

    def snapshot(self) -> dict:
        """Plain-data view of the migration-relevant state (tests pin
        that handoff preserves every field here)."""
        return {
            "rate_bps": self.rate_bps,
            "pending_attempts": self.pending_attempts,
            "success_streak": self.success_streak,
            "consecutive_failures": self.watchdog.consecutive_failures,
            "consecutive_successes": self.watchdog.consecutive_successes,
            "recovery_ready": self.watchdog.recovery_ready,
            "delivered": self.delivered,
            "abandoned": self.abandoned,
            "attempts": self.attempts,
        }
