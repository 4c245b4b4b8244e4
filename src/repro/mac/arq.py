"""Stop-and-wait ARQ (the retransmission scheme of paper §4.4 / Fig 18b)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import ensure_rng

__all__ = ["ArqStats", "StopAndWaitARQ"]


@dataclass
class ArqStats:
    """Outcome of an ARQ simulation run."""

    delivered: int
    attempts: int
    gave_up: int

    @property
    def mean_attempts(self) -> float:
        """Average transmissions per delivered (or abandoned) frame."""
        frames = self.delivered + self.gave_up
        return self.attempts / frames if frames else 0.0

    def efficiency(self) -> float:
        """Delivered frames per attempt (inverse of mean attempts)."""
        return self.delivered / self.attempts if self.attempts else 0.0


@dataclass(frozen=True)
class StopAndWaitARQ:
    """Retransmit until success or ``max_attempts`` exhausted."""

    max_attempts: int = 8

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def simulate(
        self,
        success_probability: float,
        n_frames: int,
        rng: np.random.Generator | int | None = None,
    ) -> ArqStats:
        """Monte-Carlo ARQ over frames with i.i.d. block success."""
        from repro.obs import get_observer

        obs = get_observer()
        if not 0.0 <= success_probability <= 1.0:
            raise ValueError("success probability must be in [0, 1]")
        if n_frames < 0:
            raise ValueError("n_frames must be non-negative")
        gen = ensure_rng(rng)
        delivered = attempts = gave_up = 0
        for _ in range(n_frames):
            for attempt in range(1, self.max_attempts + 1):
                attempts += 1
                if gen.random() < success_probability:
                    delivered += 1
                    break
            else:
                gave_up += 1
        if obs.enabled:
            obs.count("arq.frames_total", delivered, outcome="delivered")
            obs.count("arq.frames_total", gave_up, outcome="gave_up")
            obs.count("arq.attempts_total", attempts)
        return ArqStats(delivered=delivered, attempts=attempts, gave_up=gave_up)

    def expected_attempts(self, success_probability: float) -> float:
        """Expected transmissions per frame (truncated geometric)."""
        p = success_probability
        if p <= 0.0:
            return float(self.max_attempts)
        q = 1.0 - p
        n = self.max_attempts
        # E[min(Geom(p), n)] = (1 - q^n) / p.
        return (1.0 - q**n) / p

    def delivery_probability(self, success_probability: float) -> float:
        """Probability a frame is delivered within the attempt budget."""
        return 1.0 - (1.0 - success_probability) ** self.max_attempts
