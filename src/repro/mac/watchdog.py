"""MAC link watchdog: consecutive-CRC-failure tracking and degradation.

The last rung of the stack's degradation ladder (retry -> fallback bank ->
**rate drop** -> give up): the reader tracks CRC outcomes per link; a run
of consecutive failures triggers exponential-backoff retransmission and,
at the failure threshold, a fallback down the PHY rate ladder — the same
ladder :mod:`repro.mac.rate_adapt` selects from and
:class:`repro.mac.arq.StopAndWaitARQ` retransmits over.  A success resets
the backoff; a link that keeps failing at the lowest rate is declared
down (the session should re-discover / give up rather than spin).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.mac.arq import StopAndWaitARQ
from repro.obs import ensure_observer
from repro.utils.logging import get_logger
from repro.utils.rng import ensure_rng

__all__ = ["LinkWatchdog", "WatchdogAction", "WatchdogStats"]

log = get_logger(__name__)


@dataclass(frozen=True)
class WatchdogAction:
    """What the MAC should do after one CRC outcome was recorded.

    ``reason`` is one of ``"ok"``, ``"recovered"``, ``"retry"``,
    ``"rate_fallback"`` or ``"link_down"``.
    """

    retransmit: bool
    backoff_s: float
    rate_bps: int
    reason: str


@dataclass
class WatchdogStats:
    """Aggregate outcome of a watchdog-driven transfer simulation."""

    delivered: int = 0
    gave_up: int = 0
    attempts: int = 0
    total_backoff_s: float = 0.0
    rate_trace: list[int] = field(default_factory=list)

    @property
    def final_rate_bps(self) -> int:
        """Rate in force after the last frame."""
        return self.rate_trace[-1] if self.rate_trace else 0


class LinkWatchdog:
    """Consecutive-failure tracker driving backoff and rate fallback.

    Parameters
    ----------
    rates:
        The PHY rate ladder (bits/s, any order; kept sorted).  Defaults to
        the library's :data:`repro.modem.config.RATE_PRESETS`.
    initial_rate_bps:
        Starting rate; defaults to the highest rung.
    fail_threshold:
        Consecutive CRC failures that trigger one rate fallback.
    base_backoff_s / backoff_factor / max_backoff_s:
        Exponential retransmission backoff: the k-th consecutive failure
        waits ``base * factor**k`` seconds, capped at ``max_backoff_s``.
    recover_after:
        Recovery hysteresis: after a rate fallback the link must deliver
        this many *consecutive* CRC-clean frames before
        :attr:`recovery_ready` turns true again — the gate rate-raising
        policies (e.g. :class:`repro.mac.session.LinkSession`) consult, so
        a flapping link settles on its working rung instead of
        oscillating up and down the ladder.
    """

    def __init__(
        self,
        rates: list[int] | None = None,
        initial_rate_bps: int | None = None,
        fail_threshold: int = 3,
        base_backoff_s: float = 0.05,
        backoff_factor: float = 2.0,
        max_backoff_s: float = 2.0,
        recover_after: int = 3,
        observer=None,
    ):
        self._obs = ensure_observer(observer)
        if rates is None:
            from repro.modem.config import RATE_PRESETS

            rates = sorted(RATE_PRESETS)
        if not rates:
            raise ConfigError("watchdog needs a non-empty rate ladder")
        if fail_threshold < 1:
            raise ConfigError("fail_threshold must be >= 1")
        if base_backoff_s < 0 or max_backoff_s < base_backoff_s:
            raise ConfigError("need 0 <= base_backoff_s <= max_backoff_s")
        if backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1")
        if recover_after < 1:
            raise ConfigError("recover_after must be >= 1")
        self.ladder = sorted(int(r) for r in rates)
        self.fail_threshold = fail_threshold
        self.base_backoff_s = base_backoff_s
        self.backoff_factor = backoff_factor
        self.max_backoff_s = max_backoff_s
        self.recover_after = recover_after
        start = initial_rate_bps if initial_rate_bps is not None else self.ladder[-1]
        if start not in self.ladder:
            raise ConfigError(f"initial rate {start} not on the ladder {self.ladder}")
        #: Position on the ladder, kept as the canonical state so rate
        #: moves are index arithmetic, never an O(n) ``ladder.index`` scan.
        self._rung_idx = self.ladder.index(start)
        self.consecutive_failures = 0
        self.consecutive_successes = 0
        self._backoff_exponent = 0
        self._fallback_active = False

    # ------------------------------------------------------------ tracking

    @property
    def current_rate_bps(self) -> int:
        """The rate in force (the ladder entry at :attr:`rung_index`)."""
        return self.ladder[self._rung_idx]

    @current_rate_bps.setter
    def current_rate_bps(self, rate_bps: int) -> None:
        self._rung_idx = self.ladder.index(rate_bps)

    @property
    def rung_index(self) -> int:
        """Current position on the ladder (0 = most robust rung)."""
        return self._rung_idx

    def observe_rate(self, rate_bps: int) -> None:
        """Sync the watchdog to an externally assigned rate."""
        if rate_bps not in self.ladder:
            raise ConfigError(f"rate {rate_bps} not on the ladder {self.ladder}")
        self._rung_idx = self.ladder.index(rate_bps)

    @property
    def recovery_ready(self) -> bool:
        """Whether a rate raise is allowed right now.

        False from the moment of a rate fallback until ``recover_after``
        consecutive CRC-clean frames have been recorded — the hysteresis
        that stops a flapping link from oscillating between rungs.
        """
        return not self._fallback_active

    def reset(self) -> None:
        """Forget all failure state (e.g. after re-discovery)."""
        self.consecutive_failures = 0
        self.consecutive_successes = 0
        self._backoff_exponent = 0
        self._fallback_active = False

    def _next_backoff(self) -> float:
        backoff = self.base_backoff_s * self.backoff_factor**self._backoff_exponent
        self._backoff_exponent += 1
        return min(backoff, self.max_backoff_s)

    def record(self, crc_ok: bool) -> WatchdogAction:
        """Record one CRC outcome and return the MAC's next move."""
        action = self._record(crc_ok)
        if self._obs.enabled:
            self._obs.count("mac.watchdog.actions_total", reason=action.reason)
            self._obs.count("mac.watchdog.crc_total", crc="ok" if crc_ok else "fail")
            self._obs.gauge("mac.watchdog.rate_bps", action.rate_bps)
        return action

    def _record(self, crc_ok: bool) -> WatchdogAction:
        if crc_ok:
            self.consecutive_failures = 0
            self._backoff_exponent = 0
            self.consecutive_successes += 1
            reason = "ok"
            if self._fallback_active and self.consecutive_successes >= self.recover_after:
                self._fallback_active = False
                reason = "recovered"
            return WatchdogAction(
                retransmit=False, backoff_s=0.0, rate_bps=self.current_rate_bps, reason=reason
            )
        self.consecutive_failures += 1
        self.consecutive_successes = 0
        backoff = self._next_backoff()
        if self.consecutive_failures < self.fail_threshold:
            return WatchdogAction(
                retransmit=True,
                backoff_s=backoff,
                rate_bps=self.current_rate_bps,
                reason="retry",
            )
        # Threshold hit: fall back one rung (if any remain).  Either way the
        # link enters recovery hysteresis: no raise until recover_after
        # consecutive clean frames.
        self.consecutive_failures = 0
        self._fallback_active = True
        if self._rung_idx > 0:
            self._rung_idx -= 1
            log.warning(
                "link watchdog: %d consecutive CRC failures, rate fallback to %d bps",
                self.fail_threshold,
                self.current_rate_bps,
            )
            return WatchdogAction(
                retransmit=True,
                backoff_s=backoff,
                rate_bps=self.current_rate_bps,
                reason="rate_fallback",
            )
        log.warning("link watchdog: link down at lowest rate %d bps", self.current_rate_bps)
        return WatchdogAction(
            retransmit=True,
            backoff_s=min(self.max_backoff_s, backoff),
            rate_bps=self.current_rate_bps,
            reason="link_down",
        )

    # ---------------------------------------------------------- simulation

    def simulate(
        self,
        success_probability,
        n_frames: int,
        arq: StopAndWaitARQ | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> WatchdogStats:
        """Monte-Carlo a watchdog-supervised transfer.

        ``success_probability`` maps a rate in bits/s to the per-attempt
        CRC success probability (a callable, or a dict over the ladder).
        Each frame gets the stop-and-wait attempt budget of ``arq``; every
        attempt's outcome feeds the watchdog, so rate fallback and backoff
        accumulate exactly as they would against the real PHY.
        """
        if n_frames < 0:
            raise ConfigError("n_frames must be non-negative")
        arq = arq or StopAndWaitARQ()
        gen = ensure_rng(rng)
        if callable(success_probability):
            p_of = success_probability
        else:
            table = dict(success_probability)
            p_of = lambda rate: table[rate]  # noqa: E731
        stats = WatchdogStats()
        obs = self._obs
        with obs.span("watchdog_transfer", n_frames=n_frames):
            self._simulate_frames(stats, p_of, n_frames, arq, gen)
        if obs.enabled:
            obs.count("mac.watchdog.frames_total", stats.delivered, outcome="delivered")
            obs.count("mac.watchdog.frames_total", stats.gave_up, outcome="gave_up")
            obs.observe("mac.watchdog.backoff_s", stats.total_backoff_s)
        return stats

    def _simulate_frames(self, stats, p_of, n_frames, arq, gen) -> None:
        for _ in range(n_frames):
            delivered = False
            for _attempt in range(arq.max_attempts):
                stats.attempts += 1
                ok = gen.random() < float(p_of(self.current_rate_bps))
                action = self.record(ok)
                stats.total_backoff_s += action.backoff_s
                if ok:
                    delivered = True
                    break
            if delivered:
                stats.delivered += 1
            else:
                stats.gave_up += 1
            stats.rate_trace.append(self.current_rate_bps)
