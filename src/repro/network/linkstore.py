"""Struct-of-arrays link-state store: million-tag schedules per round.

The paper's single-reader MAC closes its adaptation loop inside
:class:`repro.mac.session.LinkSession`; at fleet scale every tag carries
the same adaptation state — watchdog-supervised rate position on the PHY
ladder, success streak, and the stop-and-wait ARQ window.  Done one Python
call per TDMA slot (a dict lookup into the rate profile, a per-call
:meth:`~repro.mac.rate_adapt.CodingOption.block_success` — a scipy
``binom.cdf`` evaluation, ~60 µs — a scalar ``rng.random()`` draw, and a
handful of attribute mutations), that per-slot cost is the wall: dense
deployments top out at thousands of tags.

:class:`LinkStateStore` lays the state machine out as parallel ndarrays
over the whole tag population — rate-rung index, success streak, pending
ARQ attempts, watchdog failure/success counters, recovery
(fallback-hysteresis) flag, and the delivered/abandoned/attempts counters
— with two precomputed tables replacing the per-call arithmetic:

* **per-rung airtime** (``airtime_by_rung``): built once with the exact
  scalar formula ``overhead + payload_bits / code_rate / rate``;
* **per-(rung, SNR) block success** (``_success_rows``): for each
  ``(reader, occlusion, rung)`` key, one row of per-tag CRC success
  probabilities, built lazily on first use and cached — served rounds are
  then pure table lookups + broadcasting.

:meth:`serve_round` turns a reader's round into one kernel invocation:
gather the airtime of each tag in a window of the rotated schedule from
its current rung, left-fold ``cumsum`` + cutoff against the round's
airtime budget to find the served prefix (bitwise the reference's
sequential accumulation; the window widens until the budget cuts it, so a
round's cost follows the tags it can serve, not the schedule length),
draw **exactly one uniform per served tag from that tag's own stream**
(the documented determinism contract — a tag's outcome sequence depends
only on its own seed and how many slots it was served), then apply the
watchdog/streak/ARQ/rate-rung transition as vectorized ndarray updates.

Bit-identity with the frozen scalar per-tag path it replaced
(``tests/reference/link_reference.py``) is a hard contract, pinned by the
hypothesis wall in ``tests/network/test_linkstore_equivalence.py``.  Two
consequences shape the implementation:

* The ``pow`` steps of the BER waterfall are evaluated **per element with
  Python floats** at table-build time: numpy's SIMD ``power`` ufunc is not
  last-bit identical to the C ``pow`` the scalar path calls, and a one-ulp
  difference in a success probability can flip a ``u < p`` draw.  The
  binomial CDF itself is elementwise-identical between scipy's scalar and
  vector paths and is evaluated vectorized.
* Table building is *setup* in the sense of the array-backend seam
  (host numpy + scipy); only the serving kernels
  (:meth:`serve_round` / :meth:`_apply_outcomes`) are behind
  ``active_backend().xp`` and registered with the no-raw-``np`` lint.

:class:`TagLinkView` is a per-tag window onto the store: handoff
"migrates the link object" (the view rides in
:class:`~repro.network.fleet.TagState` untouched), its :meth:`~TagLinkView.
snapshot` is the migration contract, and its scalar
:meth:`~TagLinkView.attempt_frame` lets unit drills poke a single tag
mid-run without leaving the store.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from repro.errors import ConfigError
from repro.mac.arq import StopAndWaitARQ
from repro.mac.rate_adapt import CodingOption, LinkProfile, RateOption
from repro.utils.backend import active_backend

__all__ = ["FrameOutcome", "LinkStateStore", "RoundServe", "TagLinkView"]


@dataclass(frozen=True)
class FrameOutcome:
    """One served TDMA slot, as accounted by the scheduler."""

    delivered: bool
    abandoned: bool
    rate_bps: int
    airtime_s: float


@dataclass(frozen=True)
class RoundServe:
    """One vectorized round's served prefix, in service order."""

    #: Tag ids served this round (the budget-limited schedule prefix).
    served: np.ndarray
    #: Per-served-tag CRC outcome (True = delivered).
    ok: np.ndarray
    #: Per-served-tag ARQ-budget exhaustion (True = frame abandoned).
    abandoned: np.ndarray
    #: Per-served-tag rate rung *at round start* (the rung charged).
    rung: np.ndarray
    #: Per-served-tag airtime charged (s).
    airtime_s: np.ndarray
    #: Airtime consumed after this round, including the carried-in usage.
    used_s: float

    @property
    def n_served(self) -> int:
        return int(self.served.shape[0])

    @property
    def n_delivered(self) -> int:
        return int(self.ok.sum())

    @property
    def n_abandoned(self) -> int:
        return int(self.abandoned.sum())

    @property
    def n_retry(self) -> int:
        return self.n_served - self.n_delivered - self.n_abandoned


class LinkStateStore:
    """Watchdog + ARQ + rate-streak state for ``n_tags`` tags, as arrays.

    Each tag runs the same adaptation loop, reader-agnostic:

    * **Rung index as state** — every tag starts on rung 0, the most
      robust rate of ``profile``'s ascending ladder; a raise or fallback
      is index arithmetic, never a ladder search.
    * **Raise streak** — ``raise_after`` consecutive CRC-clean frames
      raise the rung by one (capped at the top) and reset the streak; any
      failure resets it.
    * **Watchdog fallback and recovery hysteresis** — ``fail_threshold``
      consecutive failures drop one rung (floored at rung 0) and arm the
      hysteresis: no raise until ``recover_after`` consecutive clean
      frames have cleared it.
    * **ARQ window** — a failed attempt adds to the in-flight frame's
      attempt count; at ``arq.max_attempts`` the frame is abandoned and
      the window reopens.  The count survives handoff: tag ids index
      every array, so a handoff needs no store operation at all, because
      link state was never keyed by reader in the first place.
    * **One draw per attempt** — each served slot costs exactly one
      uniform from the served tag's own stream, so a tag's outcome
      sequence depends only on its seed and how many slots it was served.

    Parameters
    ----------
    profile:
        The rate/coding database the ladder is built from.
    n_tags:
        Population size; sizes every state array.
    coding:
        Fixed Reed-Solomon option applied to every frame (fleet-scale runs
        pin the coding and adapt the PHY rate; per-frame coding adaptation
        stays a :class:`~repro.mac.session.LinkSession` concern).
    payload_bytes / overhead_s:
        Frame airtime model: ``overhead + payload_bits / code_rate / rate``.
    raise_after / fail_threshold / recover_after:
        The streak thresholds above.
    arq:
        Stop-and-wait policy (its ``max_attempts`` bounds the ARQ window).
    """

    def __init__(
        self,
        profile: LinkProfile,
        n_tags: int,
        coding: CodingOption | None = None,
        payload_bytes: int = 32,
        overhead_s: float = 0.01,
        raise_after: int = 3,
        fail_threshold: int = 3,
        recover_after: int = 3,
        arq: StopAndWaitARQ | None = None,
    ):
        if n_tags < 1:
            raise ConfigError("n_tags must be >= 1")
        if payload_bytes < 1:
            raise ConfigError("payload_bytes must be >= 1")
        if overhead_s < 0:
            raise ConfigError("overhead_s must be non-negative")
        if raise_after < 1:
            raise ConfigError("raise_after must be >= 1")
        if fail_threshold < 1:
            raise ConfigError("fail_threshold must be >= 1")
        if recover_after < 1:
            raise ConfigError("recover_after must be >= 1")
        self.profile = profile
        self.coding = coding if coding is not None else CodingOption(255, 223)
        self.payload_bytes = payload_bytes
        self.overhead_s = overhead_s
        self.raise_after = raise_after
        self.fail_threshold = fail_threshold
        self.recover_after = recover_after
        self.arq = arq or StopAndWaitARQ()
        self.n_tags = int(n_tags)

        #: The PHY rate ladder, ascending; rung index is the state.
        self.ladder: list[int] = [int(r.rate_bps) for r in profile.rates]
        self._rate_by_rung: list[RateOption] = list(profile.rates)
        self.n_rungs = len(self.ladder)
        self.rate_by_rung_bps = np.asarray(self.ladder, dtype=np.int64)

        # Airtime table, built with the exact scalar formula of the frozen
        # per-tag path so FrameOutcome.airtime_s and the budget left-fold
        # stay bitwise-reference.
        self._bits_on_air = self.payload_bytes * 8 / self.coding.code_rate
        self.airtime_by_rung = np.asarray(
            [self.overhead_s + self._bits_on_air / r for r in self.ladder],
            dtype=np.float64,
        )
        #: Sizes serve_round's first scan window.
        self._min_airtime_s = float(self.airtime_by_rung.min())

        # ---- the struct-of-arrays state (tag id indexes every array) ----
        self.rung = np.zeros(self.n_tags, dtype=np.int64)  # probe at rung 0
        self.success_streak = np.zeros(self.n_tags, dtype=np.int64)
        self.pending_attempts = np.zeros(self.n_tags, dtype=np.int64)
        self.consecutive_failures = np.zeros(self.n_tags, dtype=np.int64)
        self.consecutive_successes = np.zeros(self.n_tags, dtype=np.int64)
        #: Recovery hysteresis: True from a rate fallback until
        #: ``recover_after`` consecutive clean frames (``recovery_ready``
        #: in the scalar watchdog is the negation of this flag).
        self.fallback_active = np.zeros(self.n_tags, dtype=bool)
        self.delivered = np.zeros(self.n_tags, dtype=np.int64)
        self.abandoned = np.zeros(self.n_tags, dtype=np.int64)
        self.attempts = np.zeros(self.n_tags, dtype=np.int64)

        #: Block-success rows keyed ``(reader_key, occlusion_db, rung)``,
        #: filled lazily per served tag (``_success_built`` masks what's
        #: valid) — a round serves a budget-limited prefix, so building a
        #: whole-population row per key would be mostly wasted work.
        self._success_rows: dict[tuple, np.ndarray] = {}
        self._success_built: dict[tuple, np.ndarray] = {}

    # ----------------------------------------------------------- per-tag API

    def view(self, tag_id: int) -> "TagLinkView":
        """A :class:`TagLinkView` window onto one tag's slots."""
        return TagLinkView(self, tag_id)

    def success_probability(
        self, tag_id: int, snr_db: float, extra_fail_prob: float = 0.0
    ) -> float:
        """Scalar per-attempt success probability (reference semantics)."""
        rate = self._rate_by_rung[int(self.rung[tag_id])]
        p = self.coding.block_success(rate.ber(snr_db))
        return p * (1.0 - extra_fail_prob)

    def frame_airtime_s(self, tag_id: int, rate_bps: int | None = None) -> float:
        """Airtime of one attempt (default: the tag's current rung)."""
        if rate_bps is None:
            return float(self.airtime_by_rung[int(self.rung[tag_id])])
        return self.overhead_s + self._bits_on_air / rate_bps

    def attempt_one(
        self,
        tag_id: int,
        snr_db: float,
        rng: np.random.Generator,
        extra_fail_prob: float = 0.0,
    ) -> FrameOutcome:
        """One served slot for one tag — the scalar reference transition
        applied in place on the arrays (exactly one draw from ``rng``)."""
        rung = int(self.rung[tag_id])
        rate = self.ladder[rung]
        airtime = float(self.airtime_by_rung[rung])
        p = self.success_probability(tag_id, snr_db, extra_fail_prob)
        ok = bool(rng.random() < p)
        self.attempts[tag_id] += 1
        abandoned = False
        if ok:
            # Watchdog record(True), then streak accounting + raise gate.
            self.consecutive_failures[tag_id] = 0
            successes = int(self.consecutive_successes[tag_id]) + 1
            self.consecutive_successes[tag_id] = successes
            if self.fallback_active[tag_id] and successes >= self.recover_after:
                self.fallback_active[tag_id] = False
            self.delivered[tag_id] += 1
            self.pending_attempts[tag_id] = 0
            streak = int(self.success_streak[tag_id]) + 1
            if streak >= self.raise_after and not self.fallback_active[tag_id]:
                if rung + 1 < self.n_rungs:
                    self.rung[tag_id] = rung + 1
                streak = 0
            self.success_streak[tag_id] = streak
        else:
            # Watchdog record(False): threshold => fallback one rung and
            # enter recovery hysteresis; then the ARQ window accounting.
            self.consecutive_successes[tag_id] = 0
            self.success_streak[tag_id] = 0
            failures = int(self.consecutive_failures[tag_id]) + 1
            if failures >= self.fail_threshold:
                self.consecutive_failures[tag_id] = 0
                self.fallback_active[tag_id] = True
                if rung > 0:
                    self.rung[tag_id] = rung - 1
            else:
                self.consecutive_failures[tag_id] = failures
            pending = int(self.pending_attempts[tag_id]) + 1
            if pending >= self.arq.max_attempts:
                self.abandoned[tag_id] += 1
                self.pending_attempts[tag_id] = 0
                abandoned = True
            else:
                self.pending_attempts[tag_id] = pending
        return FrameOutcome(
            delivered=ok, abandoned=abandoned, rate_bps=rate, airtime_s=airtime
        )

    def snapshot(self, tag_id: int) -> dict:
        """Plain-data migration snapshot of one tag (the handoff tests'
        contract: handoff preserves every field here)."""
        return {
            "rate_bps": self.ladder[int(self.rung[tag_id])],
            "pending_attempts": int(self.pending_attempts[tag_id]),
            "success_streak": int(self.success_streak[tag_id]),
            "consecutive_failures": int(self.consecutive_failures[tag_id]),
            "consecutive_successes": int(self.consecutive_successes[tag_id]),
            "recovery_ready": not bool(self.fallback_active[tag_id]),
            "delivered": int(self.delivered[tag_id]),
            "abandoned": int(self.abandoned[tag_id]),
            "attempts": int(self.attempts[tag_id]),
        }

    # ------------------------------------------------------ success tables

    def _success_values(
        self,
        reader_key,
        occlusion_db: float,
        rung: int,
        snr_col: np.ndarray,
        tags: np.ndarray,
    ) -> np.ndarray:
        """Cached block-success probabilities for ``tags`` at one rung.

        ``snr_col`` is the reader's static per-tag SNR column; the cache
        is keyed by value on ``(reader_key, occlusion_db, rung)`` so an
        occlusion change simply selects (or starts filling) a different
        row — there is no invalidation protocol to get wrong.  Entries are
        computed only for tags actually served under this key.
        """
        key = (reader_key, occlusion_db, rung)
        row = self._success_rows.get(key)
        if row is None:
            row = np.empty(self.n_tags, dtype=np.float64)
            built = np.zeros(self.n_tags, dtype=bool)
            self._success_rows[key] = row
            self._success_built[key] = built
        else:
            built = self._success_built[key]
        missing = tags[~built[tags]]
        if missing.size:
            row[missing] = self._build_success_row(rung, snr_col[missing] - occlusion_db)
            built[missing] = True
        return row[tags]

    def _build_success_row(self, rung: int, snr_eff: np.ndarray) -> np.ndarray:
        """Block success at one rung for a vector of effective SNRs —
        bitwise the scalar path.

        The subtract/divide steps vectorize exactly (IEEE ops are
        correctly rounded elementwise); the two ``pow`` steps are run per
        element with Python floats because numpy's SIMD ``power`` is not
        last-bit identical to C ``pow`` (see module docstring); the
        binomial CDF vectorizes exactly and dominates the build cost.
        """
        rate = self._rate_by_rung[rung]
        coding = self.coding
        exponent = 2.0 + (snr_eff - rate.threshold_db) / rate.waterfall_db
        # RateOption.ber: clip(10 ** -e, 1e-12, 0.5), elementwise-exact.
        ber = [min(max(10.0 ** (-e), 1e-12), 0.5) for e in exponent.tolist()]
        # CodingOption.block_success: symbol error then RS block decode.
        symbol_error = [1.0 - (1.0 - b) ** 8 for b in ber]
        if coding.t == 0:
            row = np.asarray(
                [(1.0 - s) ** coding.n for s in symbol_error], dtype=np.float64
            )
        else:
            row = np.asarray(
                stats.binom.cdf(coding.t, coding.n, np.asarray(symbol_error)),
                dtype=np.float64,
            )
        return row

    # ------------------------------------------------------ the round kernel

    def serve_round(
        self,
        order,
        snr_col,
        occlusion_db: float,
        collision_prob: float,
        budget_s: float,
        used_s: float,
        rngs,
        reader_key,
        start: int = 0,
    ) -> RoundServe:
        """Serve the budget-limited prefix of a reader's rotated schedule.

        Parameters
        ----------
        order:
            The reader's schedule (tag ids); service starts at
            ``order[start]`` and wraps round to ``order[start - 1]``.
        snr_col:
            The reader's static per-tag SNR column (indexed by tag id).
        occlusion_db / collision_prob:
            The reader's current impairment terms, broadcast over the
            round (the :mod:`repro.faults.network` injector outputs).
        budget_s / used_s:
            Round airtime budget and the airtime already consumed
            (discovery service) — the left-fold starts at ``used_s``.
        rngs:
            Per-tag generators; exactly one uniform is drawn from each
            *served* tag's own stream, in service order.
        reader_key:
            Success-row cache key component (the reader id).
        start:
            The rotation offset (the reader's next slot).

        Only a window of the rotated schedule is scanned: the first holds
        one more tag than the budget could fit at the cheapest rung, and
        it doubles until its last running sum passes the budget or it
        covers the schedule.  Running sums never decrease, so no tag past
        the window could fit and the served prefix is the full scan's.
        """
        xp = active_backend().xp
        sched = xp.asarray(order, dtype=xp.int64)
        n = sched.shape[0]
        start = start % n if n else 0
        head = xp.asarray([used_s])
        window = min(n, max(int((budget_s - used_s) / self._min_airtime_s), 0) + 1)
        while True:
            end = start + window
            if end <= n:
                ids = sched[start:end]
            else:
                ids = xp.concatenate((sched[start:], sched[: end - n]))
            rung_o = self.rung[ids]
            air = self.airtime_by_rung[rung_o]
            # Left-fold accumulation from used_s, bitwise the reference's
            # sequential `used += airtime`; cumsum is defined sequentially.
            running = xp.cumsum(xp.concatenate((head, air)))
            if window == n or running[window] > budget_s:
                break
            window = min(n, 2 * window)
        n_served = int(xp.searchsorted(running[1:], budget_s, side="right"))
        served = ids[:n_served]
        rung_s = rung_o[:n_served]
        air_s = air[:n_served]
        used_after = float(running[n_served])
        if n_served == 0:
            empty_i = xp.zeros(0, dtype=xp.int64)
            empty_b = xp.zeros(0, dtype=bool)
            return RoundServe(
                served=empty_i,
                ok=empty_b,
                abandoned=empty_b,
                rung=empty_i,
                airtime_s=xp.zeros(0, dtype=xp.float64),
                used_s=used_after,
            )
        # Success probability: cached-table lookups + one broadcast multiply.
        p = xp.empty(n_served, dtype=xp.float64)
        for rung in xp.unique(rung_s).tolist():
            at_rung = rung_s == rung
            p[at_rung] = self._success_values(
                reader_key, occlusion_db, int(rung), snr_col, served[at_rung]
            )
        p = p * (1.0 - collision_prob)
        # One uniform per served tag, from that tag's own stream.
        draws = xp.fromiter(
            (rngs[t].random() for t in served.tolist()),
            dtype=xp.float64,
            count=n_served,
        )
        ok = draws < p
        abandoned = self._apply_outcomes(served, ok)
        return RoundServe(
            served=served,
            ok=ok,
            abandoned=abandoned,
            rung=rung_s,
            airtime_s=air_s,
            used_s=used_after,
        )

    def _apply_outcomes(self, served, ok):
        """Vectorized watchdog/streak/ARQ/rung transition for one round.

        ``served`` holds distinct tag ids, so every fancy-indexed
        read-modify-write below is alias-free.  Returns the per-served-tag
        abandonment mask (aligned with ``served``).
        """
        xp = active_backend().xp
        self.attempts[served] += 1
        s_ok = served[ok]
        s_fail = served[~ok]
        # --- CRC-clean branch: watchdog record, then streak/raise gate ---
        self.consecutive_failures[s_ok] = 0
        successes = self.consecutive_successes[s_ok] + 1
        self.consecutive_successes[s_ok] = successes
        still_falling_back = self.fallback_active[s_ok] & (
            successes < self.recover_after
        )
        self.fallback_active[s_ok] = still_falling_back
        self.delivered[s_ok] += 1
        self.pending_attempts[s_ok] = 0
        streak = self.success_streak[s_ok] + 1
        raise_gate = (streak >= self.raise_after) & ~still_falling_back
        rung_ok = self.rung[s_ok]
        self.rung[s_ok] = xp.where(
            raise_gate & (rung_ok + 1 < self.n_rungs), rung_ok + 1, rung_ok
        )
        # The streak resets whenever the raise gate opens, even at the top
        # rung (the reference calls _raise_rate then zeroes the streak).
        self.success_streak[s_ok] = xp.where(raise_gate, 0, streak)
        # --- CRC-fail branch: watchdog fallback, then the ARQ window ---
        self.consecutive_successes[s_fail] = 0
        self.success_streak[s_fail] = 0
        failures = self.consecutive_failures[s_fail] + 1
        threshold_hit = failures >= self.fail_threshold
        self.consecutive_failures[s_fail] = xp.where(threshold_hit, 0, failures)
        self.fallback_active[s_fail] |= threshold_hit
        rung_fail = self.rung[s_fail]
        self.rung[s_fail] = xp.where(
            threshold_hit & (rung_fail > 0), rung_fail - 1, rung_fail
        )
        pending = self.pending_attempts[s_fail] + 1
        exhausted = pending >= self.arq.max_attempts
        self.pending_attempts[s_fail] = xp.where(exhausted, 0, pending)
        self.abandoned[s_fail] += xp.asarray(exhausted, dtype=xp.int64)
        abandoned = xp.zeros(served.shape[0], dtype=bool)
        abandoned[~ok] = exhausted
        return abandoned


class TagLinkView:
    """One tag's window onto a :class:`LinkStateStore`.

    Everything the fleet layer and its tests touch per tag: the adaptation
    queries, the scalar :meth:`attempt_frame`, and :meth:`snapshot`.  The
    view is the object a handoff "migrates" — it carries only
    ``(store, tag_id)``, so migration preserves every field by
    construction.
    """

    __slots__ = ("store", "tag_id")

    def __init__(self, store: LinkStateStore, tag_id: int):
        self.store = store
        self.tag_id = int(tag_id)

    # Shared policy objects.
    @property
    def profile(self) -> LinkProfile:
        return self.store.profile

    @property
    def coding(self) -> CodingOption:
        return self.store.coding

    @property
    def arq(self) -> StopAndWaitARQ:
        return self.store.arq

    @property
    def payload_bytes(self) -> int:
        return self.store.payload_bytes

    @property
    def overhead_s(self) -> float:
        return self.store.overhead_s

    @property
    def raise_after(self) -> int:
        return self.store.raise_after

    # Per-tag state, read from the arrays.
    @property
    def rung_index(self) -> int:
        return int(self.store.rung[self.tag_id])

    @property
    def rate_bps(self) -> int:
        return self.store.ladder[self.rung_index]

    @property
    def pending_attempts(self) -> int:
        return int(self.store.pending_attempts[self.tag_id])

    @property
    def success_streak(self) -> int:
        return int(self.store.success_streak[self.tag_id])

    @property
    def recovery_ready(self) -> bool:
        return not bool(self.store.fallback_active[self.tag_id])

    @property
    def delivered(self) -> int:
        return int(self.store.delivered[self.tag_id])

    @property
    def abandoned(self) -> int:
        return int(self.store.abandoned[self.tag_id])

    @property
    def attempts(self) -> int:
        return int(self.store.attempts[self.tag_id])

    def success_probability(self, snr_db: float, extra_fail_prob: float = 0.0) -> float:
        return self.store.success_probability(self.tag_id, snr_db, extra_fail_prob)

    def frame_airtime_s(self, rate_bps: int | None = None) -> float:
        return self.store.frame_airtime_s(self.tag_id, rate_bps)

    def attempt_frame(
        self,
        snr_db: float,
        rng: np.random.Generator,
        extra_fail_prob: float = 0.0,
    ) -> FrameOutcome:
        return self.store.attempt_one(self.tag_id, snr_db, rng, extra_fail_prob)

    def snapshot(self) -> dict:
        return self.store.snapshot(self.tag_id)
