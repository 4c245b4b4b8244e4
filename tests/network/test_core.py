"""Determinism of the discrete-event core: ordering, ties, stream layout."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.core import Event, EventQueue, spawn_streams


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
