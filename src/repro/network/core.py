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

    def pop(self) -> Event:
        """Remove and return the earliest event (ties: scheduling order)."""
        return heapq.heappop(self._heap)[2]

    def peek_time(self) -> float | None:
        """Time of the next event, or None when empty."""
        return self._heap[0][0] if self._heap else None


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
    is touched.  A million-tag fleet where a round serves a few hundred
    tags pays for a few hundred streams, not a million; the streams
    themselves are identical either way.
    """

    def __init__(self, root_seed: int, offset: int, n: int):
        self._root_seed = int(root_seed)
        self._offset = int(offset)
        self._n = int(n)
        self._gens: dict[int, np.random.Generator] = {}

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
            self._gens[index] = gen
        return gen


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
