"""Closed-loop reader-tag session: the MAC's adaptation actually closing.

Paper §4.4: the reader "piggyback[s] the suggested bit rate and coding rate
in the downlink message based on the SNR measurement and a database ...
The MAC will trigger retransmission when CRC check fails.  [It] still works
for any single tag when its SNR changes in operation."

This module runs that loop against the *real* PHY in both directions:

* uplink packets go through the full tag -> channel -> reader pipeline at
  the currently assigned rate;
* assignments travel as :class:`repro.downlink.PollMessage` frames over
  the Manchester downlink (and a corrupted poll means the tag simply keeps
  its old rate);
* rate selection seeds from the profile database at the preamble's SNR
  estimate and then refines on delivery outcomes (raise after a success
  streak, drop on failure) — robust to the estimate's model-error floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.channel.link import OpticalLink
from repro.downlink.frame import PollMessage
from repro.downlink.link import DownlinkChannel
from repro.downlink.modem import ManchesterOOKModem
from repro.mac.rate_adapt import LinkProfile, default_profile
from repro.mac.watchdog import LinkWatchdog
from repro.obs import ensure_observer
from repro.modem.config import RATE_PRESETS, preset_for_rate
from repro.optics.geometry import LinkGeometry
from repro.phy.pipeline import PacketSimulator
from repro.utils.rng import ensure_rng

__all__ = ["LinkSession", "RoundRecord", "SessionStats"]

_SYNC = np.array([1, 0, 1, 0, 1, 1, 0, 0], dtype=np.uint8)


@dataclass
class RoundRecord:
    """One poll + uplink round."""

    round_index: int
    assigned_rate_bps: int
    poll_delivered: bool
    tag_rate_bps: int
    crc_ok: bool
    ber: float
    snr_est_db: float


@dataclass
class SessionStats:
    """Aggregate session outcome."""

    rounds: list[RoundRecord] = field(default_factory=list)
    total_backoff_s: float = 0.0
    """Airtime spent in watchdog retransmission backoff (0 without one)."""

    @property
    def delivered(self) -> int:
        """Packets passing CRC."""
        return sum(r.crc_ok for r in self.rounds)

    @property
    def final_rate_bps(self) -> int:
        """Rate in force at the end of the session."""
        return self.rounds[-1].tag_rate_bps if self.rounds else 0

    def goodput_bps(self, payload_bytes: int) -> float:
        """Delivered payload bits over total uplink airtime."""
        airtime = sum(
            payload_bytes * 8 / r.tag_rate_bps for r in self.rounds if r.tag_rate_bps
        )
        if airtime <= 0:
            return 0.0
        return self.delivered * payload_bytes * 8 / airtime


class LinkSession:
    """A single reader-tag pair running the closed adaptation loop."""

    def __init__(
        self,
        distance_m: float,
        profile: LinkProfile | None = None,
        payload_bytes: int = 16,
        raise_after: int = 3,
        watchdog: LinkWatchdog | None = None,
        rng: np.random.Generator | int | None = None,
        observer=None,
    ):
        self._obs = ensure_observer(observer)
        self.distance_m = distance_m
        self.profile = profile or default_profile()
        self.payload_bytes = payload_bytes
        self.raise_after = raise_after
        if watchdog is not None and watchdog.ladder != sorted(RATE_PRESETS):
            raise ValueError("watchdog rate ladder must match the session's RATE_PRESETS")
        if watchdog is not None and not watchdog._obs.enabled:
            watchdog._obs = self._obs  # session's observer sees watchdog outcomes
        self.watchdog = watchdog
        self._rng = ensure_rng(rng)
        self._ladder = sorted(RATE_PRESETS)
        self._simulators: dict[int, PacketSimulator] = {}
        self._downlink_modem = ManchesterOOKModem()
        self._downlink = DownlinkChannel(distance_m=distance_m)
        self._tag_seed = int(self._rng.integers(0, 2**31))

    # ------------------------------------------------------------ plumbing

    def _simulator(self, rate_bps: int) -> PacketSimulator:
        if rate_bps not in self._simulators:
            self._simulators[rate_bps] = PacketSimulator(
                config=preset_for_rate(rate_bps),
                link=OpticalLink(geometry=LinkGeometry(distance_m=self.distance_m)),
                payload_bytes=self.payload_bytes,
                rng=self._tag_seed,  # same physical tag at every rate
                observer=self._obs,
            )
        return self._simulators[rate_bps]

    def _send_poll(self, rate_bps: int) -> bool:
        """Downlink the assignment; returns whether the tag decoded it."""
        msg = PollMessage(tag_id=1, rate_bps=rate_bps)
        bits = np.concatenate([_SYNC, msg.to_bits()])
        wave = self._downlink_modem.modulate(bits)
        rx = self._downlink.transmit(wave, self._rng)
        try:
            offset = self._downlink_modem.synchronise(rx, _SYNC)
            decoded = self._downlink_modem.demodulate(rx[offset:], bits.size)
            return PollMessage.from_bits(decoded[_SYNC.size :]) == msg
        except ValueError:
            return False

    def _step_rate(self, current: int, up: bool) -> int:
        idx = self._ladder.index(current)
        idx = min(idx + 1, len(self._ladder) - 1) if up else max(idx - 1, 0)
        return self._ladder[idx]

    # ---------------------------------------------------------------- run

    def run(self, n_rounds: int = 12) -> SessionStats:
        """Run the closed loop for ``n_rounds`` poll+packet rounds."""
        obs = self._obs
        stats = SessionStats()
        # Probe at the most robust rate; its preamble SNR seeds the table.
        tag_rate = self._ladder[0]
        assigned = tag_rate
        success_streak = 0
        for n in range(n_rounds):
            with obs.span("mac_round", index=n):
                with obs.span("poll"):
                    poll_ok = self._send_poll(assigned)
                if poll_ok:
                    tag_rate = assigned
                if obs.enabled:
                    obs.count(
                        "mac.polls_total", outcome="delivered" if poll_ok else "lost"
                    )
                    obs.gauge("mac.assigned_rate_bps", assigned)
                result = self._simulator(tag_rate).run_packet(rng=self._rng)
                if obs.enabled:
                    obs.count(
                        "mac.rounds_total", crc="ok" if result.crc_ok else "fail"
                    )
                stats.rounds.append(
                    RoundRecord(
                        round_index=n,
                        assigned_rate_bps=assigned,
                        poll_delivered=poll_ok,
                        tag_rate_bps=tag_rate,
                        crc_ok=result.crc_ok,
                        ber=result.ber,
                        snr_est_db=result.snr_est_db,
                    )
                )
                if n == 0 and result.detected and np.isfinite(result.snr_est_db):
                    # Database seed from the measured SNR (conservative: the
                    # estimate carries the model-error floor).
                    seeded = self.profile.best_choice(result.snr_est_db).rate.rate_bps
                    assigned = min(int(seeded), self._ladder[-1])
                    success_streak = 0
                    continue
                if self.watchdog is not None:
                    # Watchdog-supervised failure path: consecutive-CRC
                    # tracking drives exponential backoff and rate fallback.
                    self.watchdog.observe_rate(tag_rate)
                    action = self.watchdog.record(result.crc_ok)
                    stats.total_backoff_s += action.backoff_s
                    if result.crc_ok:
                        success_streak += 1
                        # Recovery hysteresis: after a fallback the watchdog
                        # demands its own clean streak before a raise.
                        if success_streak >= self.raise_after and self.watchdog.recovery_ready:
                            assigned = self._step_rate(tag_rate, up=True)
                            success_streak = 0
                    else:
                        assigned = action.rate_bps
                        success_streak = 0
                elif result.crc_ok:
                    success_streak += 1
                    if success_streak >= self.raise_after:
                        assigned = self._step_rate(tag_rate, up=True)
                        success_streak = 0
                else:
                    assigned = self._step_rate(tag_rate, up=False)
                    success_streak = 0
        return stats
