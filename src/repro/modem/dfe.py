"""Multi-branch decision-feedback equalizer (paper §4.3.2, Fig 10) — vectorized.

The DSM channel is a deterministic ISI channel spanning ``L`` symbols.  The
equalizer walks slot by slot keeping ``K`` candidate symbol histories
("branches"); each branch maintains the *predicted* future waveform implied
by its already-decided firings.  Extending a branch with a candidate PQAM
symbol adds the candidate pulse's first slot to the prediction; the branch
metric is the accumulated squared error between received and predicted
samples.  After every slot, branches that agree on all state that can still
influence the future are merged (keeping the cheaper) and the best ``K``
survive.

With ``K = P**L`` and merging enabled this search *is* the Viterbi /
MLSE detector (the paper makes the same observation); ``K = 1`` is the
classic single-decision DFE; ``K = 16`` is the paper's real-time sweet
spot.

This module is the *vectorized* hot path; its required behaviour is defined
by the frozen scalar beam search ``ReferenceDFEDemodulator`` in
``tests/reference/dfe_reference.py``, which it must match bit-exactly
(enforced by ``tests/golden`` and the hypothesis equivalence suite).  Four rewrites carry the speedup:

* **Dense reference bank** — every reference pulse lives in dense float
  planes indexed by (channel, group, plane, level, packed quantized history)
  (:meth:`ReferenceBank.dense_planes`, built with array ops per bank), so
  fetching all candidate pulses for all branches is one gather instead of K
  Python dict lookups.
* **Broadcasted extension** — all K branches × P level pairs are scored by
  level-major broadcasts over ``(2, m, m, B, K, ts)`` real/imag planes,
  evaluating ``(base - pulse_i) - pulse_q`` in exactly the reference's
  operation order and summing each contiguous ts-long row with numpy's
  pairwise reduce, as the reference does.
* **Packed-key merging** — a branch's future-relevant state (the last
  ``merge_memory`` level pairs) is carried as base-``m²`` digits packed into
  one or more int64 words; merge dedup keys small integer group ids on the
  cost-ordered candidate prefix: a per-packet scan at small batch sizes, a
  sort-based first-occurrence scan at large ones, instead of a Python loop
  over byte strings.
* **Block decoding** — :meth:`DFEDemodulator.demodulate_block` walks ``B``
  independent packets in lockstep, so every per-symbol numpy call amortizes
  over the whole batch.  Row-wise stable sorts and per-row pairwise sums are
  identical to the single-packet path, so a block decode is bit-exact with
  ``B`` separate :meth:`demodulate` calls (a property the equivalence suite
  asserts).  ``demodulate`` itself is the ``B = 1`` special case, which
  keeps its per-symbol step to a few dozen array calls.

Two structural properties ride on top of the same arithmetic:

* **Resumable sessions** — the per-symbol loop lives in
  :class:`DFEBlockSession`, whose state (prediction planes, packed merge
  keys, the lag-fold carry snapshot, traceback arrays) persists across
  :meth:`DFEBlockSession.feed` calls.  Feeding the payload in arbitrary
  chunks — down to single samples, split anywhere including mid-slot — is
  bit-identical to one whole-buffer call, because each symbol step reads the
  same float64 slot slice wherever its samples arrived from.  This is the
  carry machinery the streaming receiver (:mod:`repro.phy.streaming`)
  decodes behind.
* **Array-backend seam** — every kernel op dispatches through the active
  :mod:`repro.utils.backend` namespace (``xp``), captured once per session.
  Under the default numpy backend ``xp is numpy`` and the arithmetic is
  unchanged; a CuPy/JAX-style module slots in without kernel edits.

Histories too large for a dense table (``m**(V-1)`` blows past the memory
gate) fall back to per-unique-history gathers through
:meth:`ReferenceBank.pulse_stack` — same numbers, reference-like speed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.errors import EqualizationError
from repro.modem.references import ReferenceBank
from repro.utils.backend import active_backend

__all__ = ["DFEBlockSession", "DFEDemodulator", "DFEResult"]

#: Dense-table gate: total complex elements across all groups above which the
#: bank is gathered sparsely instead (keeps worst-case memory ~128 MB).
_DENSE_LIMIT_ELEMENTS = 8 << 20


@dataclass
class DFEResult:
    """Decoded level sequences plus diagnostics."""

    levels_i: np.ndarray
    levels_q: np.ndarray
    mse: float
    """Mean squared residual per sample of the winning branch."""
    n_branches: int


class DFEDemodulator:
    """Vectorized beam-search DFE over a :class:`ReferenceBank`.

    Parameters
    ----------
    bank:
        Reference pulses (offline + online trained).
    k_branches:
        Beam width ``K``; 1 = plain DFE, 16 = paper default.
    merge:
        Merge branches with identical future-relevant state (keeps the
        search from wasting the beam on equivalent histories; required for
        Viterbi equivalence).
    merge_memory:
        How many recent symbol pairs constitute "future-relevant state".
        Defaults to ``(V - 1) * L + (L - 1)`` which is exact for the
        fingerprint model's memory.
    """

    def __init__(
        self,
        bank: ReferenceBank,
        k_branches: int = 16,
        merge: bool = True,
        merge_memory: int | None = None,
        observer=None,
    ):
        if k_branches < 1:
            raise ValueError("k_branches must be >= 1")
        from repro.obs import ensure_observer

        self._obs = ensure_observer(observer)
        self.bank = bank
        self.config = bank.config
        self.k_branches = k_branches
        self.merge = merge
        cfg = self.config
        default_mem = (cfg.tail_memory - 1) * cfg.dsm_order + (cfg.dsm_order - 1)
        self.merge_memory = default_mem if merge_memory is None else merge_memory

        m = cfg.levels_per_axis
        self._m = m
        self._v_prev = max(cfg.tail_memory - 1, 0)
        # History-code shift-in modulus: new = level + (code % mod) * m.
        self._hist_mod = m ** max(self._v_prev - 1, 0)
        dense_elements = (
            2 * cfg.dsm_order * bank.n_history_states * m * cfg.samples_per_symbol
        )
        self._dense = dense_elements <= _DENSE_LIMIT_ELEMENTS

        # Merge-key packing: a branch's recent window is `merge_memory` level
        # pairs, each a base-B digit (B = m^2), packed little-endian (newest
        # pair = least significant digit) into int64 words of `_ppw` digits.
        if self.merge and self.merge_memory > 0:
            pair_base = m * m
            bits = max(int(pair_base - 1).bit_length(), 1)
            ppw = max(62 // bits, 1)
            n_words = -(-self.merge_memory // ppw)
            caps = [ppw] * n_words
            caps[-1] = self.merge_memory - ppw * (n_words - 1)
            self._key_words = n_words
            self._word_caps = caps
            # Dropping the oldest pair truncates the most significant digit
            # of the last word.
            self._trunc_div = pair_base ** (caps[-1] - 1)
        else:
            self._key_words = 0
            self._word_caps = []
            self._trunc_div = 1

    # -------------------------------------------------------------- gathers

    def _sparse_stacks(self, xp, channel: int, gi: int, codes) -> np.ndarray:
        """Fallback gather: ``codes.shape + (m, W)`` stacks via per-unique-history lookups."""
        m = self._m
        v_prev = self._v_prev
        uniq, inverse = xp.unique(codes, return_inverse=True)
        rows = xp.stack(
            [
                xp.asarray(
                    self.bank.pulse_stack(
                        channel, gi, tuple(int(code // m**j) % m for j in range(v_prev))
                    )
                )
                for code in uniq
            ]
        )
        return rows[inverse]

    # ------------------------------------------------------------- priming

    def _advance_known(self, xp, state: dict, gi: int, level_i: int, level_q: int) -> None:
        """Deterministically apply a known symbol (no scoring, no branching).

        The prediction buffer lives as real/imag float planes (``buf`` is
        ``(2, B, k, W)``); complex addition is componentwise, so plane-wise
        updates are bit-identical to the reference's complex adds.
        """
        cfg = self.config
        ts = cfg.samples_per_slot
        w = cfg.samples_per_symbol
        m = self._m
        buf = state["buf"]
        codes = state["codes"]
        if self._dense:
            heads, tails = (xp.asarray(p) for p in self.bank.dense_planes(ts))
        for channel, level in ((0, level_i), (1, level_q)):
            ch_codes = codes[channel, gi]
            if self._dense:
                buf[..., :ts] += heads[channel, gi][:, level, ch_codes]
                buf[..., ts:] += tails[channel, gi][:, ch_codes, level]
            else:
                stacks = self._sparse_stacks(xp, channel, gi, ch_codes)
                buf[0] += stacks[:, :, level].real
                buf[1] += stacks[:, :, level].imag
            if self._v_prev:
                codes[channel, gi] = level + (ch_codes % self._hist_mod) * m
        # Consume one slot: shift the prediction window.
        buf[..., : w - ts] = buf[..., ts:]
        buf[..., w - ts :] = 0.0
        if state["sig"] is not None:
            flat = state["sig"].reshape(-1, self._key_words)
            self._shift_in_pair(xp, flat, level_i * m + level_q, out=flat)

    def _shift_in_pair(self, xp, sig, pair, out=None):
        """Shift a new level pair into packed recent-window words.

        ``sig`` is ``(N, n_words)``; ``pair`` may be a scalar or ``(N,)``.
        The result (also returned) is the packed window ``[pair, old[:-1]]``
        — which is simultaneously the merge key of that extension and the
        successor state's window.
        """
        pair_base = self._m * self._m
        if out is None:
            out = xp.empty_like(sig)
        carry = pair
        for t, cap in enumerate(self._word_caps):
            word = sig[:, t]
            if cap == 1:
                carry, out[:, t] = word.copy(), carry
            else:
                div = pair_base ** (cap - 1)
                dropped = word // div
                out[:, t] = carry + (word % div) * pair_base
                carry = dropped
        return out

    def _group_ids(self, xp, sig):
        """``(B, K)`` int ids equal iff two branches share a *truncated* window.

        The truncated window (the recent window minus its oldest pair) is the
        only per-branch part of a candidate's merge key — the other part is
        the newly fired pair — so two candidates merge iff their branches map
        to the same id and they fire the same pair.  Ids only need to be
        distinct *within* a packet (candidate keys are deduped per row, never
        compared across packets).
        """
        n_packets, k_now, n_words = sig.shape
        div = self._trunc_div
        if n_words == 1:
            # The truncated window itself is a valid id, and the downstream
            # key ``id * m² + pair`` cannot overflow: ``div * m² = (m²)^cap
            # <= (m²)^ppw <= 2^62`` by construction of the word packing.
            return sig[:, :, 0] % div
        # Generic multi-word path: lexsort rows (with a packet-id column),
        # number the distinct rows, scatter the numbering back.
        cols = [sig[:, :, t].ravel() for t in range(n_words - 1)]
        cols.append((sig[:, :, -1] % div).ravel())
        cols.append(xp.repeat(xp.arange(n_packets), k_now))
        rows = xp.stack(cols, axis=1)
        perm = xp.lexsort(cols)
        srt = rows[perm]
        new = xp.empty(perm.size, dtype=bool)
        new[0] = True
        xp.any(srt[1:] != srt[:-1], axis=1, out=new[1:])
        gid_sorted = xp.cumsum(new) - 1
        gid = xp.empty(perm.size, dtype=xp.int64)
        gid[perm] = gid_sorted
        return gid.reshape(n_packets, k_now)

    # ---------------------------------------------------------------- main

    def demodulate(
        self,
        z: np.ndarray,
        n_symbols: int,
        prime_levels: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> DFEResult:
        """Decode ``n_symbols`` PQAM symbols from corrected samples ``z``.

        ``z`` must start exactly at the first payload slot.  ``prime_levels``
        are the known level pairs transmitted *immediately before* the
        payload (training tail); their count must be a multiple of ``L`` so
        the group rotation stays aligned.  Without priming the channel is
        assumed idle (all groups fully relaxed) before the payload.
        """
        xp = active_backend().xp
        z = xp.asarray(z, dtype=complex)
        if z.ndim != 1:
            raise EqualizationError(f"z must be 1-D, got shape {z.shape}")
        return self.demodulate_block(z[None, :], n_symbols, prime_levels)[0]

    def demodulate_block(
        self,
        z_block: np.ndarray,
        n_symbols: int,
        prime_levels: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> list[DFEResult]:
        """Decode ``B`` independent packets in lockstep.

        ``z_block`` is ``(B, n_samples)``, one packet waveform per row, all
        sharing this demodulator's bank, beam width and (optional, shared)
        ``prime_levels``.  Returns one :class:`DFEResult` per row, bit-exact
        with ``B`` separate :meth:`demodulate` calls — the batching only
        amortizes per-symbol dispatch overhead across packets.
        """
        xp = active_backend().xp
        ts = self.config.samples_per_slot
        z_block = xp.asarray(z_block, dtype=complex)
        if z_block.ndim != 2:
            raise EqualizationError(f"z_block must be 2-D, got shape {z_block.shape}")
        n_packets = z_block.shape[0]
        if n_packets == 0:
            return []
        if z_block.shape[1] < n_symbols * ts:
            raise EqualizationError(
                f"need {n_symbols * ts} samples for {n_symbols} symbols, got {z_block.shape[1]}"
            )
        session = self.begin_block(n_packets, n_symbols, prime_levels)
        session.feed(z_block)
        return session.finish()

    def begin_block(
        self,
        n_packets: int,
        n_symbols: int,
        prime_levels: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "DFEBlockSession":
        """Open a resumable block-decode session (see :class:`DFEBlockSession`).

        The returned session accepts payload samples in arbitrary chunks via
        :meth:`DFEBlockSession.feed` and is bit-exact with a single
        :meth:`demodulate_block` call over the concatenation — the streaming
        receiver's block-wise decode entry point.
        """
        if n_packets < 1:
            raise EqualizationError("a block session needs at least one packet row")
        return DFEBlockSession(self, n_packets, n_symbols, prime_levels)


class DFEBlockSession:
    """Resumable state of one lockstep block decode.

    Construction primes the prediction state exactly as
    :meth:`DFEDemodulator.demodulate_block` does; each :meth:`feed` consumes
    whole slots out of the (chunk-boundary-free) sample stream and advances
    the beam one symbol per slot.  Samples may arrive in any partition —
    a slot split across chunks is re-joined into the identical float64 slice
    before it is scored, so the decode is bit-exact with the whole-buffer
    path for every chunking.  :meth:`finish` runs the traceback.

    Float state is held as real/imaginary *planes* on a leading axis of
    length 2 (``buf`` is ``(2, B, k, W)``), so one ufunc call updates both
    parts of a complex quantity; history codes are ``(2, L, B, k)``
    (channel, group, packet, branch).

    The active array backend (:mod:`repro.utils.backend`) is captured at
    construction; all per-symbol kernels dispatch through its ``xp``
    namespace.
    """

    def __init__(
        self,
        demod: DFEDemodulator,
        n_packets: int,
        n_symbols: int,
        prime_levels: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        xp = active_backend().xp
        self._xp = xp
        self._demod = demod
        self.n_packets = n_packets
        self.n_symbols = n_symbols
        self._prime_levels = prime_levels
        cfg = demod.config
        self._ts = cfg.samples_per_slot
        self._w = cfg.samples_per_symbol
        self._wt = self._w - self._ts
        self._dsm_order = cfg.dsm_order
        self._n = 0

        merging = demod.merge and demod.merge_memory > 0
        w = self._w
        state = {
            "buf": xp.zeros((2, n_packets, 1, w), dtype=xp.float64),
            "codes": xp.zeros((2, self._dsm_order, n_packets, 1), dtype=xp.int64),
            "sig": (
                xp.zeros((n_packets, 1, demod._key_words), dtype=xp.int64) if merging else None
            ),
        }
        self._merging = merging

        if prime_levels is not None:
            pi = xp.asarray(prime_levels[0], dtype=int)
            pq = xp.asarray(prime_levels[1], dtype=int)
            if pi.size != pq.size:
                raise EqualizationError("prime level arrays must be equal length")
            if pi.size % self._dsm_order:
                raise EqualizationError("prime length must be a multiple of the DSM order")
            for n in range(pi.size):
                demod._advance_known(xp, state, n % self._dsm_order, int(pi[n]), int(pq[n]))
        else:
            # Idle channel: one full round of level-0 firings settles the
            # buffer at every group's rest pedestal.
            for n in range(self._dsm_order):
                demod._advance_known(xp, state, n, 0, 0)

        self.buf = state["buf"]
        self.codes = state["codes"]
        self.sig = state["sig"]
        self.costs = xp.zeros((n_packets, 1), dtype=float)
        self._b_col = xp.arange(n_packets)[:, None]
        # Flat (packet, branch) row of branch 0 of every packet at full width.
        self._row_base = self._b_col * demod.k_branches

        dense = demod._dense
        ts = self._ts
        wt = self._wt
        dsm_order = self._dsm_order
        m = demod._m
        # Decomposition of every candidate index ``c = branch * m² + pair``
        # (``pair = a * m + b``): rows branch, pair, a and b.
        cand = xp.arange(demod.k_branches * m * m)
        pair = cand % (m * m)
        self._cand_table = xp.stack((cand // (m * m), pair, pair // m, pair % m))
        if dense:
            heads, tails = (xp.asarray(p) for p in demod.bank.dense_planes(ts))
            n_rows = demod.bank.n_history_states * m
            # Per (channel, group): level-major heads (2, m, S, ts), tails
            # (2, S, m, wt), and the tails as (2, S*m, wt) rows addressed by
            # ``code * m + level``.
            self._heads = [[heads[ch, gi] for gi in range(dsm_order)] for ch in (0, 1)]
            self._tails = [[tails[ch, gi] for gi in range(dsm_order)] for ch in (0, 1)]
            self._tail_rows = [
                [tails[ch, gi].reshape(2, n_rows, wt) for gi in range(dsm_order)]
                for ch in (0, 1)
            ]
        else:
            self._heads = self._tails = self._tail_rows = None
        # Two beam regimes, split at B = 16.  Small batches (every production
        # receive and every streamed capture is B = 1) keep the prediction
        # buffer materialised and update it in place: one level-major
        # broadcast scores all extensions, and the merge scans each packet's
        # cost-ordered candidates in Python.  Big batches switch to the
        # ancestry-indexed "lag fold" below and a vectorized sort-based
        # merge, whose extra ufunc dispatches amortize over the batch.
        self._block = n_packets >= 16
        self._use_lag = dense and self._block
        # Chain strategy (lag regime): the broadcast cost update's inner
        # loops are ``B * K * ts`` long, but for big batches a per-(a, b)
        # loop over fully contiguous (B, K, ts) slabs is faster still,
        # despite m² extra dispatches.
        self._loop_chain = self._use_lag and m * m <= 64
        if self._loop_chain:
            self._heads_t = [
                [tuple(self._heads[ch][gi]) for gi in range(dsm_order)] for ch in (0, 1)
            ]
        # Flat (code*m + level, wt) row views of every tail table: the lag
        # fold below addresses them with per-branch row indices.
        self._tails2d = (
            [
                [tuple(self._tail_rows[ch][gi]) for gi in range(dsm_order)]
                for ch in (0, 1)
            ]
            if self._use_lag and wt
            else None
        )
        # Steady-state scratch: once the beam is at full width every per-symbol
        # tensor has a fixed shape, so intermediates are written into
        # preallocated buffers (np.empty of a few hundred KB per symbol is
        # mmap + page faults, which dominates the arithmetic otherwise).
        self._scratch: dict | None = None

        # Ancestry-indexed prediction state ("lag fold", big batches only).
        # While the beam sits at full width the (B, K, w) prediction buffers
        # are never materialised: the first slot of every branch's prediction
        # is re-folded on demand from (a) the buffer captured the moment the
        # beam reached full width (the "carry", which ages one slot per
        # symbol until it slides out of the window) and (b) the tail tables
        # of the last L-1 decided symbols, addressed through small per-symbol
        # row-index arrays that survive reselection by gathering.  The fold
        # replays the reference's left-to-right chronological add order
        # exactly, so it is bit-identical to reading the materialised buffer.
        self._lag_entries: list | None = None
        self._carry_re2 = self._carry_im2 = self._carry_flat = None
        self._carry_age = 0

        # Traceback record: per symbol, each survivor's parent branch and
        # fired level pair (``a * m + b``), both (B, k_new).
        self.parents: list = []
        self.choices: list = []

        self._track_obs = demod._obs.enabled
        self._occ_sum = 0
        self._occ_peak = 0

        # Unconsumed sample planes (the chunk-boundary re-join buffer) and
        # the fed-chunk log backing the defensive row-by-row fallback.
        self._rem = None
        self._fed: list = []
        self._fallback_rows = False
        self._finished = False

    # ---------------------------------------------------------- properties

    @property
    def symbols_done(self) -> int:
        """Symbols decoded so far (``n_symbols`` once complete)."""
        return self._n

    @property
    def is_complete(self) -> bool:
        """True when every requested symbol has been decoded."""
        return self._n >= self.n_symbols or self._fallback_rows

    @property
    def pending_samples(self) -> int:
        """Buffered samples not yet consumed by a whole slot."""
        return 0 if self._rem is None else int(self._rem.shape[2])

    # ---------------------------------------------------------------- feed

    def feed(self, z_chunk) -> "DFEBlockSession":
        """Append ``(B, n)`` payload samples and decode every completed slot.

        Chunks may be any length (including zero or sub-slot); a slot whose
        samples span chunks is scored only once fully buffered, on exactly
        the slice a whole-buffer decode would read.
        """
        if self._finished:
            raise EqualizationError("session already finished")
        xp = self._xp
        z = xp.asarray(z_chunk, dtype=complex)
        if z.ndim != 2 or z.shape[0] != self.n_packets:
            raise EqualizationError(
                f"chunk must be ({self.n_packets}, n) shaped, got {z.shape}"
            )
        self._fed.append(z)
        if self._fallback_rows:
            return self
        # Contiguous (2, B, n) real/imag planes of the received chunk: complex
        # add/sub is componentwise, so the plane-wise pipeline below is
        # bit-identical to the reference's complex arithmetic while keeping
        # every inner loop contiguous float64.
        zz = xp.stack((z.real, z.imag))
        if self._rem is not None and self._rem.shape[2]:
            zz = xp.concatenate([self._rem, zz], axis=2)
        ts = self._ts
        off = 0
        avail = zz.shape[2]
        while avail - off >= ts and self._n < self.n_symbols and not self._fallback_rows:
            self._step(zz[:, :, None, off : off + ts])
            off += ts
        self._rem = zz[:, :, off:]
        return self

    # ---------------------------------------------------------------- step

    def _make_scratch(self) -> dict:
        """Preallocated full-width buffers of this session's regime."""
        xp = self._xp
        n_packets = self.n_packets
        kk = self._demod.k_branches
        m = self._demod._m
        ts = self._ts
        scratch = {"base": xp.empty((2, n_packets, kk, ts))}
        if self._use_lag:
            scratch.update(
                {
                    "acc": xp.empty((2, n_packets, kk, ts)),
                    "tmp_re": xp.empty((n_packets, kk, ts)),
                    "tmp_im": xp.empty((n_packets, kk, ts)),
                }
            )
        else:
            scratch.update(
                {
                    "rows": xp.empty((n_packets, kk), dtype=xp.int64),
                    "tidx": xp.empty((2, n_packets, kk), dtype=xp.int64),
                    "parents": xp.empty((2, n_packets * kk, self._w)),
                    "tail_i": xp.empty((2, n_packets * kk, self._wt)),
                    "tail_q": xp.empty((2, n_packets * kk, self._wt)),
                }
            )
        if self._loop_chain:
            scratch.update(
                {
                    "piT_re": xp.empty((m, n_packets, kk, ts)),
                    "piT_im": xp.empty((m, n_packets, kk, ts)),
                    "pqT_re": xp.empty((m, n_packets, kk, ts)),
                    "pqT_im": xp.empty((m, n_packets, kk, ts)),
                    "pa_re": xp.empty((n_packets, kk, ts)),
                    "pa_im": xp.empty((n_packets, kk, ts)),
                    "db_re": xp.empty((n_packets, kk, ts)),
                    "db_im": xp.empty((n_packets, kk, ts)),
                    "inc": xp.empty((n_packets, kk, m, m)),
                }
            )
        else:
            scratch.update(
                {
                    "pulses_i": xp.empty((2, m, n_packets, kk, ts)),
                    "pulses_q": xp.empty((2, m, n_packets, kk, ts)),
                    "part": xp.empty((2, m, n_packets, kk, ts)),
                    "d": xp.empty((2, m, m, n_packets, kk, ts)),
                    "sq": xp.empty((m, m, n_packets, kk, ts)),
                    "inc_t": xp.empty((m, m, n_packets, kk)),
                    "tot": xp.empty((n_packets, kk, m, m)),
                }
            )
        return scratch

    def _extension_costs(self, base, pulses_i, pulses_q, scratch) -> np.ndarray:
        """Path costs ``(B, k * m * m)`` of every one-symbol extension.

        ``base`` is the ``(2, B, k, ts)`` residual of the current slot
        against each branch's prediction; ``pulses_i``/``pulses_q`` are the
        ``(2, m, B, k, ts)`` first-slot pulses of every candidate I/Q level,
        level-major, so each broadcast below runs 2·m² (or 2·m) long
        contiguous inner loops.  The arithmetic is the reference's:
        ``(base - p_i) - p_q`` per plane, ``re² + im²``, then a last-axis
        ``add.reduce`` over each contiguous ts-long row (numpy's pairwise
        sum, whose bits depend on the row length and contiguity).
        ``scratch`` holds the steady-state output buffers, or is None to
        allocate.
        """
        xp = self._xp
        s = scratch if scratch is not None else {}
        part = xp.subtract(base[:, None], pulses_i, out=s.get("part"))
        d = xp.subtract(part[:, :, None], pulses_q[:, None], out=s.get("d"))
        xp.multiply(d, d, out=d)
        sq = xp.add(d[0], d[1], out=s.get("sq"))
        inc = xp.add.reduce(sq, axis=-1, out=s.get("inc_t"))
        tot = xp.add(self.costs[:, :, None, None], inc.transpose(2, 3, 0, 1), out=s.get("tot"))
        return tot.reshape(self.n_packets, -1)

    def _select(self, flat, chunk0: int):
        """The first ``chunk0`` columns of a per-row stable argsort of ``flat``.

        Returns ``(prefix, order)``: the ``(B, chunk0)`` cost-ordered
        candidate prefix and, when it had to be computed, the full stable
        argsort (else None).  Selection only ever consumes a prefix, so a
        full stable argsort is overkill: argpartition isolates the cheapest
        ``chunk0`` per packet, sorted back into candidate-index order so a
        small stable sort orders them with ties broken by index, exactly as
        the reference's argsort.  That is exact whenever the isolated set is
        unambiguous: no candidate outside it ties the largest cost inside.
        One count checks every row at once — each row has at most
        ``n_cand - chunk0`` costs above its edge, and exactly that many iff
        its prefix is unambiguous.  A NaN inside a prefix makes the edge
        NaN, above which nothing counts, and a NaN outside it is not
        counted either, so NaN costs fall back to the full stable argsort
        and come out last in index order, as in the reference.
        """
        xp = self._xp
        n_packets, n_cand = flat.shape
        if n_cand > chunk0:
            b_col = self._b_col
            idxp = flat.argpartition(chunk0 - 1, axis=-1)[:, :chunk0]
            idxp.sort(axis=-1)
            valsp = flat[b_col, idxp]
            v_edge = valsp.max(axis=-1, keepdims=True)
            if xp.count_nonzero(flat > v_edge) == n_packets * (n_cand - chunk0):
                return idxp[b_col, valsp.argsort(axis=-1, kind="stable")], None
        order = flat.argsort(axis=-1, kind="stable")
        return order[:, :chunk0], order

    def _merge_scan(self, flat, prefix, order):
        """Small-batch merge: each packet's first K distinct keys, by scan.

        A candidate's merge key is its branch's group id and its fired pair
        (``gid * m² + pair``).  Scanning a packet's cost-ordered candidates
        for the first K distinct keys costs a few Python set operations per
        candidate at B = 1; the prefix widens to every candidate in the rare
        case it holds fewer than K distinct keys.  Returns ``(ord_sel,
        new_sig)`` or None when packets ended with different beam widths.
        With one key word the key *is* the successor's packed window (see
        :meth:`DFEDemodulator._group_ids`), so no shift is needed.
        """
        xp = self._xp
        demod = self._demod
        mm = demod._m * demod._m
        k_target = demod.k_branches
        gids = demod._group_ids(xp, self.sig).tolist()
        picks = [_scan_row(row, gids[b], mm, k_target) for b, row in enumerate(prefix.tolist())]
        if prefix.shape[1] < flat.shape[1] and any(len(p) < k_target for p in picks):
            order = order if order is not None else flat.argsort(axis=-1, kind="stable")
            picks = [_scan_row(row, gids[b], mm, k_target) for b, row in enumerate(order.tolist())]
        k_new = len(picks[0])
        if any(len(p) != k_new for p in picks):
            return None
        flat_picks = [c for p in picks for c in p.values()] + [key for p in picks for key in p]
        ord_sel, keys = xp.array(flat_picks, dtype=xp.int64).reshape(2, self.n_packets, k_new)
        if demod._key_words == 1:
            return ord_sel, keys[:, :, None]
        k_sel, pair_sel = xp.divmod(ord_sel, mm)
        new_sig = demod._shift_in_pair(
            xp, self.sig[self._b_col, k_sel].reshape(-1, demod._key_words), pair_sel.ravel()
        ).reshape(self.n_packets, k_new, demod._key_words)
        return ord_sel, new_sig

    def _merge_sorted(self, flat, prefix, order, chunk0: int):
        """Big-batch merge: dedup each packet's cost-ordered prefix on
        (group id, fired pair) keys with a sort-based first-occurrence scan;
        widen the prefix in the rare case K distinct keys need more of it.
        Same contract as :meth:`_merge_scan`."""
        xp = self._xp
        demod = self._demod
        mm = demod._m * demod._m
        k_target = demod.k_branches
        n_packets = self.n_packets
        n_cand = flat.shape[1]
        b_col = self._b_col
        gid = demod._group_ids(xp, self.sig)
        chunk = chunk0
        ord_c = prefix
        while True:
            cand_k, cand_pair = xp.divmod(ord_c, mm)
            keys = gid[b_col, cand_k] * mm + cand_pair
            perm = xp.argsort(keys, axis=-1, kind="stable")
            sk = keys[b_col, perm]
            flag = xp.empty(sk.shape, dtype=bool)
            flag[:, 0] = True
            xp.not_equal(sk[:, 1:], sk[:, :-1], out=flag[:, 1:])
            # Stable sort => first element of each equal-key run is
            # its minimum (cheapest) original position.
            mask = xp.empty(sk.shape, dtype=bool)
            mask[b_col, perm] = flag
            csum = xp.cumsum(mask, axis=-1)
            counts = csum[:, -1]
            c_min = int(counts.min())
            if c_min >= k_target or chunk == n_cand:
                break
            chunk = min(n_cand, chunk * 4)
            if order is None:
                order = xp.argsort(flat, axis=-1, kind="stable")
            ord_c = order[:, :chunk]
        k_new = min(k_target, c_min)
        if c_min < k_target and int(counts.max()) != c_min:
            return None
        sel_mask = mask & (csum <= k_new)
        pos = xp.nonzero(sel_mask)[1].reshape(n_packets, k_new)
        new_sig = demod._shift_in_pair(
            xp,
            self.sig[b_col, cand_k[b_col, pos]].reshape(-1, demod._key_words),
            cand_pair[b_col, pos].ravel(),
        ).reshape(n_packets, k_new, demod._key_words)
        return ord_c[b_col, pos], new_sig

    def _shift_history(self, new_codes, gi: int, ab) -> None:
        """Shift the fired ``(2, B, k)`` I/Q levels ``ab`` into group
        ``gi``'s history codes.

        ``new_codes`` is ``(2, L, B, k)`` holding the parents' codes; with
        V = 1 there is no history to keep.
        """
        demod = self._demod
        if not demod._v_prev:
            return
        hist_mod = demod._hist_mod
        if hist_mod == 1:
            # (code % 1) * m == 0: the new code is just the level.
            new_codes[:, gi] = ab
        else:
            new_codes[:, gi] = ab + (new_codes[:, gi] % hist_mod) * demod._m

    def _step(self, zv) -> None:
        """Score one slot's extensions and reselect the beam (one symbol).

        ``zv`` is the slot's ``(2, B, 1, ts)`` real/imaginary sample planes.
        """
        xp = self._xp
        demod = self._demod
        n = self._n
        ts = self._ts
        w = self._w
        wt = self._wt
        m = demod._m
        mm = m * m
        dsm_order = self._dsm_order
        n_packets = self.n_packets
        k_target = demod.k_branches
        dense = demod._dense
        b_col = self._b_col
        buf = self.buf
        codes = self.codes
        scratch = self._scratch
        lag_entries = self._lag_entries
        carry_re2 = self._carry_re2
        carry_im2 = self._carry_im2
        carry_flat = self._carry_flat
        carry_age = self._carry_age

        gi = n % dsm_order
        k_now = codes.shape[-1]
        if self._track_obs:
            self._occ_sum += k_now
            if k_now > self._occ_peak:
                self._occ_peak = k_now
        n_cand = k_now * mm
        codes_i = codes[0, gi]
        codes_q = codes[1, gi]
        fast = dense and k_now == k_target
        if fast and self._use_lag and lag_entries is None:
            lag_entries = []
            carry_re2 = xp.ascontiguousarray(buf[0]).reshape(-1, w)
            carry_im2 = xp.ascontiguousarray(buf[1]).reshape(-1, w)
            carry_flat = (b_col * k_now + xp.arange(k_now)).ravel()
            carry_age = 0
        if fast and scratch is None:
            scratch = self._scratch = self._make_scratch()
        s = scratch if fast else None

        # Residual of the current slot against every branch's prediction.
        if lag_entries is not None:
            # First-slot fold: carry slice first, then (oldest symbol
            # first) each lagged symbol's I tail followed by its Q tail —
            # the reference's exact per-element add chain.  Once the
            # carry has aged out, the oldest term is written by take()
            # instead of the reference's 0.0 + x; that can only flip the
            # sign of a zero, and the residual is squared before any
            # value leaves the kernel, so costs are unchanged bit-wise.
            acc = s["acc"]
            a2r = acc[0].reshape(-1, ts)
            a2i = acc[1].reshape(-1, ts)
            t2r = s["tmp_re"].reshape(-1, ts)
            t2i = s["tmp_im"].reshape(-1, ts)
            take, add = xp.take, xp.add
            tails2d = self._tails2d
            begun = False
            if carry_age < dsm_order:
                off = carry_age * ts
                take(carry_re2[:, off : off + ts], carry_flat, axis=0, out=a2r, mode="clip")
                take(carry_im2[:, off : off + ts], carry_flat, axis=0, out=a2i, mode="clip")
                begun = True
            for j in range(len(lag_entries) - 1, -1, -1):
                fi_j, fq_j, g_j = lag_entries[j]
                lo = j * ts
                sl = slice(lo, lo + ts)
                ti2r, ti2i = tails2d[0][g_j]
                tq2r, tq2i = tails2d[1][g_j]
                if begun:
                    take(ti2r[:, sl], fi_j, axis=0, out=t2r, mode="clip")
                    take(ti2i[:, sl], fi_j, axis=0, out=t2i, mode="clip")
                    add(a2r, t2r, out=a2r)
                    add(a2i, t2i, out=a2i)
                else:
                    take(ti2r[:, sl], fi_j, axis=0, out=a2r, mode="clip")
                    take(ti2i[:, sl], fi_j, axis=0, out=a2i, mode="clip")
                    begun = True
                take(tq2r[:, sl], fq_j, axis=0, out=t2r, mode="clip")
                take(tq2i[:, sl], fq_j, axis=0, out=t2i, mode="clip")
                add(a2r, t2r, out=a2r)
                add(a2i, t2i, out=a2i)
            if not begun:
                acc.fill(0.0)
            base = xp.subtract(zv, acc, out=s["base"])
        else:
            base = xp.subtract(zv, buf[..., :ts], out=None if s is None else s["base"])

        # Cost of every extension (B x K branches x m x m level pairs), in
        # the reference's exact operation order: (base - p_i) - p_q, per
        # plane (x**2 == multiply(x, x); in-place ufuncs change no values).
        if fast and self._loop_chain:
            # Level-major gathers: fixing (a, b) yields contiguous
            # (B, K, ts) slabs, so every inner op below is one long
            # SIMD run.  Same values and the same per-row pairwise sum as
            # the broadcast form (ufuncs are bound to locals because this
            # loop issues ~6m² dispatches).
            base_re, base_im = base[0], base[1]
            hiT_re, hiT_im = self._heads_t[0][gi]
            hqT_re, hqT_im = self._heads_t[1][gi]
            piT_re = hiT_re.take(codes_i, axis=1, mode="clip", out=s["piT_re"])
            piT_im = hiT_im.take(codes_i, axis=1, mode="clip", out=s["piT_im"])
            pqT_re = hqT_re.take(codes_q, axis=1, mode="clip", out=s["pqT_re"])
            pqT_im = hqT_im.take(codes_q, axis=1, mode="clip", out=s["pqT_im"])
            inc = s["inc"]
            pa_re, pa_im = s["pa_re"], s["pa_im"]
            db_re, db_im = s["db_re"], s["db_im"]
            sub, mul, add = xp.subtract, xp.multiply, xp.add
            reduce_add = xp.add.reduce
            pq_rows = [(pqT_re[b2], pqT_im[b2]) for b2 in range(m)]
            inc_rows = inc.reshape(n_packets, k_now, mm)
            for a in range(m):
                sub(base_re, piT_re[a], out=pa_re)
                sub(base_im, piT_im[a], out=pa_im)
                am = a * m
                for b2 in range(m):
                    qr, qi = pq_rows[b2]
                    sub(pa_re, qr, out=db_re)
                    sub(pa_im, qi, out=db_im)
                    mul(db_re, db_re, out=db_re)
                    mul(db_im, db_im, out=db_im)
                    add(db_re, db_im, out=db_re)
                    reduce_add(db_re, axis=-1, out=inc_rows[:, :, am + b2])
            xp.add(self.costs[:, :, None, None], inc, out=inc)
            flat = inc.reshape(n_packets, n_cand)
        else:
            if dense:
                out_i = None if s is None else s["pulses_i"]
                out_q = None if s is None else s["pulses_q"]
                pulses_i = self._heads[0][gi].take(codes_i, axis=2, mode="clip", out=out_i)
                pulses_q = self._heads[1][gi].take(codes_q, axis=2, mode="clip", out=out_q)
            else:
                stacks_i = demod._sparse_stacks(xp, 0, gi, codes_i)
                stacks_q = demod._sparse_stacks(xp, 1, gi, codes_q)
                pulses_i = xp.stack((stacks_i.real, stacks_i.imag))[..., :ts]
                pulses_q = xp.stack((stacks_q.real, stacks_q.imag))[..., :ts]
                pulses_i = pulses_i.transpose(0, 3, 1, 2, 4)
                pulses_q = pulses_q.transpose(0, 3, 1, 2, 4)
            flat = self._extension_costs(base, pulses_i, pulses_q, s)

        chunk0 = min(n_cand, max(4 * k_target, 64))
        prefix, order = self._select(flat, chunk0)
        if not self._merging:
            ord_sel = prefix[:, : min(k_target, n_cand)]
            new_sig = None
        else:
            picked = (
                self._merge_sorted(flat, prefix, order, chunk0)
                if self._block
                else self._merge_scan(flat, prefix, order)
            )
            if picked is None:
                # Packets primed identically grow their beams through the
                # same deterministic state sets, so distinct-key counts can
                # only differ once every packet already has >= K.
                # Defensive fallback: decode rows independently (deferred
                # to finish(), which replays the fed sample log).
                self._fallback_rows = True
                return
            ord_sel, new_sig = picked
        k_new = ord_sel.shape[1]
        # Survivors' parent branch, fired pair, and I/Q levels (2, B, k_new).
        fields = self._cand_table.take(ord_sel, axis=1)
        k_sel, pair_sel, ab = fields[0], fields[1], fields[2:]
        a_sel, b_sel = ab

        self.parents.append(k_sel)
        self.choices.append(pair_sel)

        if fast and k_new == k_target and lag_entries is not None:
            # Index-only successor update: no (B, K, w) buffer moves.
            # Surviving per-symbol index arrays are re-aligned to the new
            # branch order, the just-decided symbol joins the lag window,
            # and the carry ages one slot towards the fold horizon.
            if wt and len(lag_entries) == dsm_order - 1:
                lag_entries.pop()
            lag_entries = [
                (
                    fi_j.reshape(n_packets, k_now)[b_col, k_sel].ravel(),
                    fq_j.reshape(n_packets, k_now)[b_col, k_sel].ravel(),
                    g_j,
                )
                for fi_j, fq_j, g_j in lag_entries
            ]
            if wt:
                flat_i = (codes_i[b_col, k_sel] * m + a_sel).ravel()
                flat_q = (codes_q[b_col, k_sel] * m + b_sel).ravel()
                lag_entries.insert(0, (flat_i, flat_q, gi))
            if carry_age < dsm_order:
                carry_flat = carry_flat.reshape(n_packets, k_now)[b_col, k_sel].ravel()
            carry_age += 1
            new_codes = codes[:, :, b_col, k_sel]
        elif fast and k_new == k_target:
            # Small-batch in-place successor update, on flat (packet,
            # branch) rows: the parents' buffers are gathered, and the new
            # prediction (buf + tail_i) + tail_q, as the reference, is
            # written back over the (now consumed) current buffer.  Its
            # last slot needs no write: it is zero after every step.
            rows = xp.add(k_sel, self._row_base, out=s["rows"]).reshape(-1)
            new_codes = codes.reshape(2, dsm_order, -1).take(rows, axis=2)
            new_codes = new_codes.reshape(codes.shape)
            if wt:
                tidx = xp.multiply(new_codes[:, gi], m, out=s["tidx"])
                tidx += ab
                flat_buf = buf.reshape(2, -1, w)
                parents = flat_buf.take(rows, axis=1, mode="clip", out=s["parents"])
                tail_i = self._tail_rows[0][gi].take(
                    tidx[0].reshape(-1), axis=1, mode="clip", out=s["tail_i"]
                )
                tail_q = self._tail_rows[1][gi].take(
                    tidx[1].reshape(-1), axis=1, mode="clip", out=s["tail_q"]
                )
                view = flat_buf[:, :, :wt]
                xp.add(parents[:, :, ts:], tail_i, out=view)
                xp.add(view, tail_q, out=view)
        else:
            if lag_entries is not None:
                # Leaving the index-only regime (beam narrowed below K):
                # materialise the full parent buffers once, in the same
                # chronological fold order as the first-slot fold above,
                # then fall through to the allocating update.
                full = xp.zeros((2, n_packets, k_now, w), dtype=xp.float64)
                f2r = full[0].reshape(-1, w)
                f2i = full[1].reshape(-1, w)
                if carry_age < dsm_order:
                    off = carry_age * ts
                    f2r[:, : w - off] = carry_re2[:, off:][carry_flat]
                    f2i[:, : w - off] = carry_im2[:, off:][carry_flat]
                tails2d = self._tails2d
                for j in range(len(lag_entries) - 1, -1, -1):
                    fi_j, fq_j, g_j = lag_entries[j]
                    lo = j * ts
                    ti2r, ti2i = tails2d[0][g_j]
                    tq2r, tq2i = tails2d[1][g_j]
                    f2r[:, : wt - lo] += ti2r[:, lo:][fi_j]
                    f2i[:, : wt - lo] += ti2i[:, lo:][fi_j]
                    f2r[:, : wt - lo] += tq2r[:, lo:][fq_j]
                    f2i[:, : wt - lo] += tq2i[:, lo:][fq_j]
                buf = full
                lag_entries = None
                carry_re2 = carry_im2 = carry_flat = None
            # Allocating update (beam growth or narrowing, sparse banks).
            new = xp.empty((2, n_packets, k_new, w), dtype=xp.float64)
            view = new[..., :wt]
            if dense:
                tails_i = self._tails[0][gi][:, codes_i[b_col, k_sel], a_sel]
                tails_q = self._tails[1][gi][:, codes_q[b_col, k_sel], b_sel]
                xp.add(buf[:, b_col, k_sel, ts:], tails_i, out=view)
                view += tails_q
            else:
                tails_i = stacks_i[b_col, k_sel, a_sel, ts:]
                tails_q = stacks_q[b_col, k_sel, b_sel, ts:]
                xp.add(buf[0][b_col, k_sel, ts:], tails_i.real, out=view[0])
                xp.add(buf[1][b_col, k_sel, ts:], tails_i.imag, out=view[1])
                view[0] += tails_q.real
                view[1] += tails_q.imag
            new[..., wt:] = 0.0
            buf = new
            new_codes = codes[:, :, b_col, k_sel]
        self._shift_history(new_codes, gi, ab)
        self.costs = flat[b_col, ord_sel]
        self.codes = new_codes
        self.sig = new_sig
        self.buf = buf
        self._lag_entries = lag_entries
        self._carry_re2 = carry_re2
        self._carry_im2 = carry_im2
        self._carry_flat = carry_flat
        self._carry_age = carry_age
        self._n = n + 1

    # -------------------------------------------------------------- finish

    def finish(self) -> list[DFEResult]:
        """Traceback from each packet's cheapest surviving branch.

        Raises :class:`~repro.errors.EqualizationError` if fewer than
        ``n_symbols`` whole slots have been fed.
        """
        xp = self._xp
        demod = self._demod
        n_symbols = self.n_symbols
        n_packets = self.n_packets
        if self._fallback_rows:
            # Deferred defensive fallback: decode rows independently from the
            # fed-chunk log (identical to the whole-buffer defensive path).
            z_full = xp.concatenate(self._fed, axis=1)
            self._finished = True
            return [
                demod.demodulate(z_full[b], n_symbols, self._prime_levels)
                for b in range(n_packets)
            ]
        if self._n < n_symbols:
            raise EqualizationError(
                f"need {n_symbols * self._ts} samples for {n_symbols} symbols, "
                f"got {self._n * self._ts + self.pending_samples}"
            )
        self._finished = True
        obs = demod._obs
        if self._track_obs:
            mets = obs.metrics
            mets.count("dfe.symbols_total", n_symbols * n_packets)
            mets.count("dfe.blocks_total")
            mets.observe("dfe.branch_occupancy_mean", self._occ_sum / max(n_symbols, 1))
            mets.gauge("dfe.branch_occupancy_peak", self._occ_peak)

        costs = self.costs
        best = xp.argmin(costs, axis=1)
        levels_i, levels_q = xp.divmod(self._traceback(best), demod._m)
        denom = max(n_symbols * self._ts, 1)
        results = [
            DFEResult(
                levels_i=levels_i[b],
                levels_q=levels_q[b],
                mse=float(costs[b, best[b]] / denom),
                n_branches=demod.k_branches,
            )
            for b in range(n_packets)
        ]
        if self._track_obs:
            for r in results:
                obs.observe("dfe.winner_mse", r.mse)
        return results

    def _traceback(self, best):
        """``(B, n_symbols)`` fired level pairs along each packet's path to
        its ``best`` final branch.

        The per-symbol parent and choice arrays are joined once into one
        row per packet and walked as plain lists — no per-symbol gathers.
        """
        xp = self._xp
        n_symbols = self.n_symbols
        if not n_symbols:
            return xp.zeros((self.n_packets, 0), dtype=xp.int64)
        starts = list(itertools.accumulate((p.shape[1] for p in self.parents), initial=0))
        parents = xp.concatenate(self.parents, axis=1).tolist()
        choices = xp.concatenate(self.choices, axis=1).tolist()
        path = [[0] * n_symbols for _ in range(self.n_packets)]
        for b, k in enumerate(best.tolist()):
            par, cho, row = parents[b], choices[b], path[b]
            for n in range(n_symbols - 1, -1, -1):
                j = starts[n] + k
                row[n] = cho[j]
                k = par[j]
        return xp.asarray(path, dtype=xp.int64)


def _scan_row(cands: list, gids: list, mm: int, k: int) -> dict:
    """The first ``k`` candidates of a cost-ordered row with distinct merge
    keys ``gids[c // mm] * mm + c % mm`` (all of them when there are fewer),
    as an insertion-ordered ``{key: candidate}``."""
    picked = {}
    for c in cands:
        branch, pair = divmod(c, mm)
        key = gids[branch] * mm + pair
        if key not in picked:
            picked[key] = c
            if len(picked) == k:
                break
    return picked
