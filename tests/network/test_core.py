"""Determinism of the discrete-event core: ordering, ties, stream layout,
and bulk first draws bit-identical to numpy's own streams."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.core import (
    Event,
    EventQueue,
    LazyStreams,
    _root_mix,
    _seed_words,
    spawn_streams,
)


class TestEventQueue:
    def test_pops_in_time_order(self):
        q = EventQueue()
        q.push(3.0, "c")
        q.push(1.0, "a")
        q.push(2.0, "b")
        assert [q.pop().kind for _ in range(3)] == ["a", "b", "c"]

    def test_equal_times_pop_in_scheduling_order(self):
        q = EventQueue()
        for i in range(50):
            q.push(1.0, f"k{i}")
        assert [q.pop().kind for _ in range(50)] == [f"k{i}" for i in range(50)]

    def test_interleaved_ties_stay_stable(self):
        q = EventQueue()
        q.push(2.0, "late-first")
        q.push(1.0, "early")
        q.push(2.0, "late-second")
        assert [q.pop().kind for _ in range(3)] == ["early", "late-first", "late-second"]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            EventQueue().push(-0.1, "x")

    def test_peek_and_len(self):
        q = EventQueue()
        assert q.peek_time() is None and len(q) == 0
        q.push(4.5, "x")
        assert q.peek_time() == 4.5 and len(q) == 1

    def test_reserved_block_keeps_later_seqs(self):
        """A reserved block stands for pushes made now: later pushes are
        stamped after it, and keyed pushes from it order by their seq."""
        q = EventQueue()
        q.push(1.0, "before")
        assert q.reserve(3) == 1 and q.reserve(0) == 4
        assert q.push(1.0, "after").seq == 4
        q.push_keyed(1.0, 2, "reserved")
        assert q.peek_key() == (1.0, 0)
        assert [(e.kind, e.seq) for e in (q.pop(), q.pop(), q.pop())] == [
            ("before", 0), ("reserved", 2), ("after", 4)
        ]
        assert q.peek_key() is None

    def test_keyed_push_needs_a_reserved_seq(self):
        q = EventQueue()
        q.reserve(2)
        with pytest.raises(ValueError, match="never reserved"):
            q.push_keyed(1.0, 2, "x")
        with pytest.raises(ValueError, match="negative"):
            q.push_keyed(-1.0, 0, "x")
        with pytest.raises(ValueError, match="reserve"):
            q.reserve(-1)
        assert len(q) == 0

    def test_payload_carried(self):
        q = EventQueue()
        q.push(0.0, "crash", reader_id=2)
        ev = q.pop()
        assert isinstance(ev, Event)
        assert ev.payload == {"reader_id": 2}

    @settings(deadline=None, max_examples=60)
    @given(
        ops=st.lists(
            st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.5]), st.floats(0.0, 3.0), st.none()),
            max_size=120,
        )
    )
    def test_random_pushes_pop_in_time_then_seq_order(self, ops):
        """Pushes (few distinct times, so many ties) interleaved with pops
        (``None``): every pop returns the least pending ``(time, seq)``, so
        equal times leave in scheduling order, and ``peek_time`` agrees."""
        q = EventQueue()
        pending: set[tuple[float, int]] = set()

        def pop_one():
            want = min(pending)
            assert q.peek_time() == want[0]
            ev = q.pop()
            assert isinstance(ev, Event)
            assert (ev.time, ev.seq) == want
            pending.remove(want)

        for op in ops:
            if op is None:
                if pending:
                    pop_one()
                continue
            ev = q.push(op, "x")
            pending.add((ev.time, ev.seq))
        while pending:
            pop_one()
        assert q.peek_time() is None and len(q) == 0


class TestSpawnStreams:
    def test_layout_is_fixed(self):
        """Tag i's stream must not depend on fleet shape elsewhere."""
        tags_a, _, _, _ = spawn_streams(9, n_tags=3, n_readers=2)
        tags_b, _, _, _ = spawn_streams(9, n_tags=3, n_readers=2)
        for a, b in zip(tags_a, tags_b):
            assert a.random() == b.random()

    def test_streams_are_independent(self):
        tags, readers, fault, deploy = spawn_streams(1, n_tags=2, n_readers=2)
        draws = [g.random() for g in [*tags, *readers, fault, deploy]]
        assert len(set(draws)) == len(draws)

    def test_different_seeds_diverge(self):
        a, _, _, _ = spawn_streams(1, 1, 1)
        b, _, _, _ = spawn_streams(2, 1, 1)
        assert a[0].random() != b[0].random()

    def test_counts(self):
        tags, readers, fault, deploy = spawn_streams(0, n_tags=5, n_readers=3)
        assert len(tags) == 5 and len(readers) == 3
        assert isinstance(fault, np.random.Generator)
        assert isinstance(deploy, np.random.Generator)


def _numpy_stream(root: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(root, spawn_key=(key,)))


#: Roots across every entropy length: one word, the 4-word pool, beyond it.
ROOTS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128, 2**200]),
    st.integers(0, 2**200),
)
KEYS = st.lists(
    st.one_of(st.sampled_from([0, 1, 2**31, 2**32 - 1]), st.integers(0, 2**32 - 1)),
    min_size=1, max_size=24, unique=True,
)


class TestBulkFirstDraws:
    """``LazyStreams.random_each`` against numpy itself."""

    @settings(deadline=None, max_examples=60)
    @given(root=ROOTS, keys=KEYS)
    def test_seed_words_match_generate_state(self, root, keys):
        got = np.stack(_seed_words(*_root_mix(root), np.asarray(keys, dtype=np.uint32)), axis=1)
        want = np.stack(
            [np.random.SeedSequence(root, spawn_key=(k,)).generate_state(4, np.uint64)
             for k in keys]
        )
        assert np.array_equal(got, want)

    @settings(deadline=None, max_examples=80)
    @given(root=ROOTS, keys=KEYS, data=st.data())
    def test_bulk_equals_scalar_draws(self, root, keys, data):
        """Distinct indices, each stream fresh, built with draws taken, or
        drawn in bulk before: the bulk draw equals ``[streams[i].random()
        for i in indices]``, fresh streams build no generator, and every
        stream then continues exactly as numpy's."""
        offset = data.draw(st.integers(0, min(keys)), label="offset")
        n = 2**32 - offset
        indices = [k - offset for k in keys]
        priors = data.draw(
            st.lists(st.sampled_from(["fresh", 1, 2, "bulk"]),
                     min_size=len(keys), max_size=len(keys)),
            label="priors",
        )
        streams = LazyStreams(root, offset, n)
        refs = []
        for index, prior in zip(indices, priors):
            ref = _numpy_stream(root, offset + index)
            if prior == "bulk":
                assert streams.random_each([index])[0] == ref.random()
            elif prior != "fresh":
                for _ in range(prior):
                    assert streams[index].random() == ref.random()
            refs.append(ref)
        got = streams.random_each(np.asarray(indices))
        assert got.dtype == np.float64
        assert got.tolist() == [ref.random() for ref in refs]
        # Streams seen before took the scalar path, which builds them.
        for index, prior in zip(indices, priors):
            assert (index in streams._gens) == (prior != "fresh")
        for index, ref in zip(indices, refs):
            assert [streams[index].random() for _ in range(3)] == [
                ref.random() for _ in range(3)
            ]

    def test_fresh_streams_stay_unbuilt(self):
        streams = LazyStreams(7, 0, 5000)
        u = streams.random_each(np.arange(0, 5000, 2))
        assert not streams._gens
        assert streams._seen.nonzero()[0].tolist() == list(range(0, 5000, 2))
        ref = _numpy_stream(7, 6)
        assert u[3] == ref.random()
        # Building a drawn stream resumes it after its bulk draw.
        assert streams[6].random() == ref.random()
        assert list(streams._gens) == [6]
        assert streams._seen.nonzero()[0].tolist() == list(range(0, 5000, 2))

    def test_empty_and_invalid_indices(self):
        streams = LazyStreams(1, 0, 10)
        assert streams.random_each([]).shape == (0,)
        with pytest.raises(IndexError):
            streams.random_each([10])
        with pytest.raises(IndexError):
            streams.random_each([-1])
        with pytest.raises(ValueError, match="distinct"):
            streams.random_each([3, 3])
        with pytest.raises(ValueError, match="2\\*\\*32"):
            LazyStreams(1, 2**32, 4).random_each([0])
