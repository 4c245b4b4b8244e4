"""Deterministic discrete-event core for the fleet simulator.

A classic calendar queue with one twist made explicit: **total determinism**.
Events at equal times are ordered by insertion sequence number, never by
payload identity or hash order, so a fleet run is a pure function of its
configuration and seed — the property every bit-identity guarantee upstream
(BatchRunner pool == serial, sweep resume == uninterrupted) rests on.

Randomness follows the BatchRunner SeedSequence idiom: one root
:class:`numpy.random.SeedSequence` spawns an indexed child per entity
(tag streams first, then reader streams, then the fault plan), so an
entity's draws depend only on its index — never on event interleaving.
A stream's first draw can also be taken in bulk, for many fresh streams at
once, by array arithmetic that reproduces numpy bit for bit
(:meth:`LazyStreams.random_each`): the same streams, without a
``Generator`` per stream.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["Event", "EventQueue", "LazyStreams", "spawn_streams"]


@dataclass(frozen=True, order=True)
class Event:
    """One scheduled occurrence: ``(time, seq)`` is the total order."""

    time: float
    seq: int
    kind: str = field(compare=False)
    payload: dict[str, Any] = field(compare=False, default_factory=dict)


class EventQueue:
    """A seeded-order min-heap of :class:`Event` with deterministic ties.

    ``push`` stamps a monotone sequence number, so two events scheduled for
    the same instant always pop in scheduling order — regardless of kind,
    payload, or heap internals.

    A batch of future occurrences can stand in the heap as one event:
    :meth:`reserve` hands it the block of sequence numbers its pushes
    would have taken (so every later ``push`` is stamped as if they had
    happened), and :meth:`push_keyed` queues it under the ``(time, seq)``
    key of its earliest occurrence, which :meth:`peek_key` compares with.
    """

    def __init__(self) -> None:
        #: ``(time, seq, event)`` entries: ``seq`` is unique, so ``heapq``
        #: orders them by comparing two floats or ints in C and never
        #: reaches the event (no generated dataclass ``__lt__`` per swap).
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, kind: str, **payload: Any) -> Event:
        """Schedule ``kind`` at ``time``; returns the stamped event."""
        if time < 0:
            raise ValueError(f"cannot schedule into negative time ({time})")
        event = Event(time=float(time), seq=self._seq, kind=kind, payload=payload)
        heapq.heappush(self._heap, (event.time, event.seq, event))
        self._seq += 1
        return event

    def reserve(self, n: int) -> int:
        """Take the next ``n`` sequence numbers; returns the first of them."""
        if n < 0:
            raise ValueError(f"cannot reserve {n} sequence numbers")
        first = self._seq
        self._seq += n
        return first

    def push_keyed(self, time: float, seq: int, kind: str, **payload: Any) -> Event:
        """Schedule ``kind`` under a ``seq`` taken by :meth:`reserve`.

        The caller keeps ``(time, seq)`` keys unique: each reserved seq
        stands for one pending occurrence at a time.
        """
        if time < 0:
            raise ValueError(f"cannot schedule into negative time ({time})")
        if not 0 <= seq < self._seq:
            raise ValueError(f"sequence number {seq} was never reserved")
        event = Event(time=float(time), seq=int(seq), kind=kind, payload=payload)
        heapq.heappush(self._heap, (event.time, event.seq, event))
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event (ties: scheduling order)."""
        return heapq.heappop(self._heap)[2]

    def peek_time(self) -> float | None:
        """Time of the next event, or None when empty."""
        return self._heap[0][0] if self._heap else None

    def peek_key(self) -> tuple[float, int] | None:
        """``(time, seq)`` of the next event, or None when empty."""
        return self._heap[0][:2] if self._heap else None


_MASK32 = 0xFFFFFFFF

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

#: PCG64's 128-bit LCG multiplier, as (high, low) 64-bit limbs.
_PCG_MULT = (np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645))


def _hash_consts(init: int, mult: int, n: int) -> list[tuple[int, int]]:
    """The ``(xor, multiplier)`` pairs ``n`` successive hash calls use.

    SeedSequence's running hash constant evolves the same way whatever the
    data, so each call's constants are fixed by its position alone.
    """
    consts = []
    for _ in range(n):
        nxt = (init * mult) & _MASK32
        consts.append((init, nxt))
        init = nxt
    return consts


#: Constants of the 8 words ``generate_state(4, np.uint64)`` hashes out.
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 8)


def _hashmix(value: int, hash_const: int) -> tuple[int, int]:
    value ^= hash_const
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _root_mix(root_seed: int) -> tuple[list[int], list[tuple[int, int]]]:
    """What ``SeedSequence(root_seed, spawn_key=(k,))`` does before ``k``.

    The entropy is the root's 32-bit words, zero-padded to the pool size,
    then ``k`` as one last word; everything up to that word depends on the
    root only.  Returns the pool at that point and the hash constants the
    key word meets at each of the four pool slots.
    """
    words = []
    while True:
        words.append(root_seed & _MASK32)
        root_seed >>= 32
        if not root_seed:
            break
    words += [0] * (4 - len(words))
    hash_const = _INIT_A
    pool = []
    for word in words[:4]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    for word in words[4:]:
        for dst in range(4):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)
    return pool, _hash_consts(hash_const, _MULT_A, 4)


def _mul128(hi: np.ndarray, lo: np.ndarray, c_hi: np.uint64, c_lo: np.uint64):
    """``(hi, lo) * (c_hi, c_lo) mod 2**128`` on uint64 limb arrays."""
    lo0, lo1 = lo & np.uint64(_MASK32), lo >> np.uint64(32)
    c0, c1 = c_lo & np.uint64(_MASK32), c_lo >> np.uint64(32)
    p00, p01, p10 = lo0 * c0, lo0 * c1, lo1 * c0
    mid = (p00 >> np.uint64(32)) + (p01 & np.uint64(_MASK32)) + (p10 & np.uint64(_MASK32))
    carry = lo1 * c1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))
    return carry + hi * c_lo + lo * c_hi, lo * c_lo


def _add128(a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _seed_words(root_pool, key_consts, keys: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(root, spawn_key=(k,)).generate_state(4, np.uint64)``.

    One uint64 array per state word, over uint32 spawn-key words ``keys``;
    ``root_pool`` and ``key_consts`` come from :func:`_root_mix`.  The key
    word is mixed into each pool slot, then the pool hashed out to eight
    32-bit words, paired little-endian.
    """
    pool = []
    for base, (xor, mult) in zip(root_pool, key_consts):
        value = (keys ^ np.uint32(xor)) * np.uint32(mult)
        value ^= value >> np.uint32(16)
        mixed = np.uint32((_MIX_MULT_L * base) & _MASK32) - np.uint32(_MIX_MULT_R) * value
        pool.append(mixed ^ (mixed >> np.uint32(16)))
    state = []
    for i, (xor, mult) in enumerate(_STATE_CONSTS):
        word = (pool[i % 4] ^ np.uint32(xor)) * np.uint32(mult)
        state.append((word ^ (word >> np.uint32(16))).astype(np.uint64))
    return [state[j] | (state[j + 1] << np.uint64(32)) for j in range(0, 8, 2)]


def _pcg64_first_double(seed_hi, seed_lo, seq_hi, seq_lo) -> np.ndarray:
    """``Generator(PCG64(...)).random()`` for generators seeded with these words.

    PCG64 seeds ``state = inc + seed`` (after one step from zero), steps,
    then steps again to draw and outputs XSL-RR of the new state; the
    double is its top 53 bits scaled by ``2**-53``.
    """
    inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
    hi, lo = _add128(inc_hi, inc_lo, seed_hi, seed_lo)
    for _ in range(2):
        hi, lo = _add128(*_mul128(hi, lo, *_PCG_MULT), inc_hi, inc_lo)
    xored, rot = hi ^ lo, hi >> np.uint64(58)
    out = (xored >> rot) | (xored << ((np.uint64(64) - rot) & np.uint64(63)))
    return (out >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def _child_rng(root_seed: int, index: int) -> np.random.Generator:
    """The ``index``-th spawned child of ``SeedSequence(root_seed)``.

    Constructed directly via ``spawn_key=(index,)`` — bit-identical to
    ``SeedSequence(root_seed).spawn(n)[index]`` for any ``n > index``
    (spawning is just spawn-key bookkeeping), without materialising the
    other children.
    """
    seq = np.random.SeedSequence(int(root_seed), spawn_key=(index,))
    return np.random.default_rng(seq)


class LazyStreams:
    """Indexable window of per-entity child streams, realized on demand.

    Behaves like the eager ``list[Generator]`` it replaces — ``len``,
    indexing, and iteration — but a generator is only constructed (and
    then cached, so its draw position persists) the first time its index
    is touched; the streams themselves are identical either way.

    :meth:`random_each` draws once from many streams at a time; fresh
    streams (never built or drawn) get that draw from array arithmetic and
    are only counted, so a stream drawn once never builds a generator.
    The fleet takes its served slots' draws and its detach waves' jitters
    this way, so a million-tag run builds a generator only for a stream
    drawn twice or by a re-association retry, not one per served tag.
    Which streams are fresh is kept in one per-stream bool array, so a
    bulk draw looks its streams up without a Python step per index.  It
    reserves ``n`` bytes of address space (1 MB for a million-tag fleet,
    4 GiB for a ``2**32``-stream window); allocated zeroed, it takes
    memory only for the pages of touched streams where the OS hands out
    zero pages lazily.
    """

    def __init__(self, root_seed: int, offset: int, n: int):
        self._root_seed = int(root_seed)
        self._offset = int(offset)
        self._n = int(n)
        self._gens: dict[int, np.random.Generator] = {}
        #: Whether each stream was built or drawn in bulk.  A stream set
        #: here but not built took one bulk draw (a second draw takes the
        #: scalar path, which builds it), so building it advances one step.
        self._seen = np.zeros(self._n, dtype=bool)
        #: ``_root_mix(root_seed)``, computed on the first bulk draw.
        self._mixed_root: tuple | None = None

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index: int) -> np.random.Generator:
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError(f"stream index {index} out of range ({self._n} streams)")
        gen = self._gens.get(index)
        if gen is None:
            gen = _child_rng(self._root_seed, self._offset + index)
            if self._seen[index]:
                gen.bit_generator.advance(1)
            self._seen[index] = True
            self._gens[index] = gen
        return gen

    def random_each(self, indices) -> np.ndarray:
        """``[self[i].random() for i in indices]`` as a float64 array.

        ``indices`` are distinct stream indices in ``[0, len)``; every
        stream ends where that loop would leave it.  Streams already built
        or drawn take that scalar path; the rest draw in one vectorized
        pass that reproduces numpy's SeedSequence spawn and PCG64 first
        step exactly (spawn-key words must fit 32 bits).
        """
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        out = np.empty(idx.shape[0], dtype=np.float64)
        if not idx.size:
            return out
        if idx.min() < 0 or idx.max() >= self._n:
            raise IndexError(f"stream indices out of range ({self._n} streams)")
        if self._offset + int(idx.max()) > _MASK32:
            raise ValueError("bulk draws need spawn keys below 2**32")
        seen = self._seen[idx]
        fresh = idx[~seen]
        # Ascending indices are distinct; only others need the sort.
        if (
            fresh.size > 1
            and not (fresh[1:] > fresh[:-1]).all()
            and np.unique(fresh).size != fresh.size
        ):
            raise ValueError("random_each needs distinct indices")
        for pos in seen.nonzero()[0].tolist():
            out[pos] = self[int(idx[pos])].random()
        if fresh.size:
            if self._mixed_root is None:
                self._mixed_root = _root_mix(self._root_seed)
            keys = (fresh + self._offset).astype(np.uint32)
            out[~seen] = _pcg64_first_double(*_seed_words(*self._mixed_root, keys))
            self._seen[fresh] = True
        return out


def spawn_streams(
    root_seed: int, n_tags: int, n_readers: int
) -> tuple[
    LazyStreams,
    list[np.random.Generator],
    np.random.Generator,
    np.random.Generator,
]:
    """Index-derived per-entity generators from one root seed.

    Children follow a fixed layout — ``n_tags`` tag streams, then
    ``n_readers`` reader streams, then one fault stream and one deployment
    stream — so adding events or reordering execution can never shift
    which stream an entity owns.  Tag streams come back as a
    :class:`LazyStreams` window (identical streams, built on first use);
    the handful of reader/fault/deploy streams are realized eagerly.
    """
    root_seed = int(root_seed)
    tag_streams = LazyStreams(root_seed, 0, n_tags)
    reader_streams = [_child_rng(root_seed, n_tags + i) for i in range(n_readers)]
    fault_stream = _child_rng(root_seed, n_tags + n_readers)
    deploy_stream = _child_rng(root_seed, n_tags + n_readers + 1)
    return tag_streams, reader_streams, fault_stream, deploy_stream
