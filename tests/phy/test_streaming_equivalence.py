"""Streaming receiver versus the batch receiver, property-based.

:class:`~repro.phy.streaming.StreamingReceiver` promises *bit-exact*
equivalence with :meth:`PhyReceiver.receive` for every way the capture can
be partitioned into chunks — including pathological 1-sample chunks and a
single all-at-once chunk.  Hypothesis drives random payloads, link noise,
fault bursts, and chunk partitions through both paths and compares the
full :class:`ReceiverOutput` record — payload, CRC, detection offset and
cost, equalizer MSE, levels, failure classification, and the per-stage
event audit trail — to the last bit.
"""

from __future__ import annotations

import dataclasses
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.injectors import InterferenceBurst
from repro.faults.plan import FaultPlan
from repro.modem.config import ModemConfig
from repro.phy.pipeline import PacketSimulator
from repro.phy.streaming import StreamingReceiver

# One simulator per condition, built lazily: training a reference bank is
# the expensive part and is identical across hypothesis examples.
_SIMS: dict[tuple, PacketSimulator] = {}


def sim_for(*, hardened: bool = True, burst: bool = False) -> PacketSimulator:
    key = (hardened, burst)
    if key not in _SIMS:
        config = ModemConfig(
            dsm_order=2, pqam_order=4, slot_s=2.0e-3, fs=10e3, tail_memory=2
        )
        plan = None
        if burst:
            plan = FaultPlan(
                [
                    InterferenceBurst(
                        section="payload",
                        start_frac=0.2,
                        duration_frac=0.4,
                        amplitude=2.5,
                    )
                ]
            )
        _SIMS[key] = PacketSimulator(
            config=config,
            payload_bytes=6,
            hardened=hardened,
            fault_plan=plan,
            rng=99,
        )
    return _SIMS[key]


def partition(n: int, cuts: list[int]) -> list[int]:
    """Chunk sizes from fractional cut points over an n-sample capture."""
    edges = sorted({0, n, *(c % (n + 1) for c in cuts)})
    return [b - a for a, b in zip(edges, edges[1:]) if b > a]


def run_streaming(sim, cap, chunk_sizes):
    rx = StreamingReceiver(sim.receiver, search_stop=cap.search_stop)
    outs, lo = [], 0
    for size in chunk_sizes:
        outs.extend(rx.push(cap.samples[lo : lo + size]))
        lo += size
    outs.extend(rx.close())
    return outs


def same_float(a, b) -> bool:
    """Equal, or both NaN (a damaged payload leaves a NaN equalizer MSE)."""
    return a == b or (a != a and b != b)


def assert_outputs_identical(streamed, batch, context):
    assert streamed.payload == batch.payload, context
    assert streamed.crc_ok == batch.crc_ok, context
    assert same_float(streamed.snr_est_db, batch.snr_est_db), context
    assert same_float(streamed.equalizer_mse, batch.equalizer_mse), context
    assert streamed.detection.offset == batch.detection.offset, context
    assert same_float(streamed.detection.normalised_cost, batch.detection.normalised_cost), context
    assert same_float(streamed.detection.snr_db, batch.detection.snr_db), context
    assert streamed.detection.detected == batch.detection.detected, context
    np.testing.assert_array_equal(streamed.levels_i, batch.levels_i)
    np.testing.assert_array_equal(streamed.levels_q, batch.levels_q)
    if batch.failure is None:
        assert streamed.failure is None, context
    else:
        assert streamed.failure is not None, context
        assert (
            streamed.failure.stage,
            streamed.failure.code,
            streamed.failure.detail,
        ) == (batch.failure.stage, batch.failure.code, batch.failure.detail), context
    assert [(e.stage, e.status, e.detail) for e in streamed.events] == [
        (e.stage, e.status, e.detail) for e in batch.events
    ], context


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(0, 10_000),
    cuts=st.lists(st.integers(0, 100_000), max_size=8),
)
def test_any_chunk_partition_matches_batch(seed, cuts):
    """Every partition of a clean capture decodes identically to batch."""
    sim = sim_for()
    cap = sim.make_capture(rng=seed)
    batch = sim.receiver.receive(cap.samples, search_start=0, search_stop=cap.search_stop)
    chunk_sizes = partition(cap.samples.size, cuts)
    outs = run_streaming(sim, cap, chunk_sizes)
    assert len(outs) == 1, chunk_sizes
    assert_outputs_identical(outs[0], batch, (seed, chunk_sizes))


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 10_000), cuts=st.lists(st.integers(0, 100_000), max_size=6))
def test_fault_burst_partition_matches_batch(seed, cuts):
    """Partitions of a burst-corrupted capture (degraded decode / CRC
    failure territory) still match the batch record exactly."""
    sim = sim_for(burst=True)
    cap = sim.make_capture(rng=seed)
    batch = sim.receiver.receive(cap.samples, search_start=0, search_stop=cap.search_stop)
    outs = run_streaming(sim, cap, partition(cap.samples.size, cuts))
    assert len(outs) == 1
    assert_outputs_identical(outs[0], batch, seed)


@pytest.mark.slow
def test_one_sample_chunks_match_batch():
    """The pathological extreme: the whole capture pushed 1 sample at a
    time must be bit-identical to the batch decode."""
    sim = sim_for()
    cap = sim.make_capture(rng=424242)
    batch = sim.receiver.receive(cap.samples, search_start=0, search_stop=cap.search_stop)
    outs = run_streaming(sim, cap, [1] * cap.samples.size)
    assert len(outs) == 1
    assert_outputs_identical(outs[0], batch, "one-sample chunks")


def test_single_chunk_matches_batch():
    """The other extreme: one push holding the entire capture."""
    sim = sim_for()
    cap = sim.make_capture(rng=7)
    batch = sim.receiver.receive(cap.samples, search_start=0, search_stop=cap.search_stop)
    outs = run_streaming(sim, cap, [cap.samples.size])
    assert len(outs) == 1
    assert_outputs_identical(outs[0], batch, "single chunk")


@settings(deadline=None, max_examples=8)
@given(seed=st.integers(0, 10_000), cuts=st.lists(st.integers(0, 100_000), max_size=6))
def test_unhardened_raises_match_batch(seed, cuts):
    """With hardening off, a failing capture must raise the *same*
    exception type and message from the stream as from the batch call."""
    sim = sim_for(hardened=False, burst=True)
    cap = sim.make_capture(rng=seed)
    try:
        batch = sim.receiver.receive(
            cap.samples, search_start=0, search_stop=cap.search_stop
        )
        batch_exc = None
    except Exception as exc:  # noqa: BLE001 - compared verbatim below
        batch, batch_exc = None, exc
    try:
        outs = run_streaming(sim, cap, partition(cap.samples.size, cuts))
        stream_exc = None
    except Exception as exc:  # noqa: BLE001
        outs, stream_exc = None, exc
    if batch_exc is None:
        assert stream_exc is None
        assert len(outs) == 1
        assert_outputs_identical(outs[0], batch, seed)
    else:
        assert stream_exc is not None
        assert type(stream_exc) is type(batch_exc)
        assert str(stream_exc) == str(batch_exc)


@settings(deadline=None, max_examples=6)
@given(seed=st.integers(0, 10_000), chunk=st.integers(1, 4000))
def test_fixed_capture_stream_matches_per_capture_batch(seed, chunk):
    """Fixed capture_samples mode: three captures concatenated into one
    continuous stream decode exactly as three independent batch calls."""
    sim = sim_for()
    caps = [sim.make_capture(rng=seed + i) for i in range(3)]
    n = max(c.samples.size for c in caps)
    padded = [
        np.concatenate([c.samples, np.full(n - c.samples.size, c.samples[-1])])
        for c in caps
    ]
    batch = [sim.receiver.receive(p) for p in padded]
    stream = np.concatenate(padded)
    rx = StreamingReceiver(sim.receiver, capture_samples=n)
    outs = []
    for lo in range(0, stream.size, chunk):
        outs.extend(rx.push(stream[lo : lo + chunk]))
    outs.extend(rx.close())
    assert len(outs) == len(batch)
    for streamed, expected in zip(outs, batch):
        assert_outputs_identical(streamed, expected, (seed, chunk))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("span", ["search", "preamble", "training", "payload"])
def test_non_finite_sample_streams_like_batch_and_never_raises(span, value):
    """A NaN/inf sample (channel damage, or garbage from outside the
    program) in any span of the frame is classified or decoded through,
    never raised, and every chunking streams the batch record.  "search"
    damages a sample inside every first-pass candidate window."""
    sim = sim_for()
    cap = sim.make_capture(rng=7)
    frame = sim.receiver.frame
    ts = sim.config.samples_per_slot
    start = sim.receiver.receive(cap.samples, search_stop=cap.search_stop).detection.offset
    preamble_end = start + frame.preamble_slots * ts
    training_end = preamble_end + frame.training.n_slots * ts
    pos = {
        "search": cap.search_stop + 1,
        "preamble": start + 5,
        "training": preamble_end + 7,
        "payload": training_end + 13,
    }[span]
    x = cap.samples.copy()
    x[pos] = value
    damaged = dataclasses.replace(cap, samples=x)
    batch = sim.receiver.receive(x, search_start=0, search_stop=cap.search_stop)
    whole, by_256 = [x.size], [256] * (x.size // 256 + 1)
    for chunk_sizes in (whole, by_256, partition(x.size, [37, 38, 901, pos])):
        outs = run_streaming(sim, damaged, chunk_sizes)
        assert len(outs) == 1, chunk_sizes
        assert_outputs_identical(outs[0], batch, (span, value, chunk_sizes))
