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

from repro.channel.dynamics import ChannelDrift
from repro.experiments.mobility import MobileLinkSimulator
from repro.faults.injectors import InterferenceBurst
from repro.faults.plan import FaultPlan
from repro.modem.config import ModemConfig
from repro.phy.pipeline import PacketSimulator
from repro.phy.receiver import PhyReceiver
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


def stream_capture(receiver, x, search_stop, chunk_sizes):
    rx = StreamingReceiver(receiver, search_stop=search_stop)
    outs, lo = [], 0
    for size in chunk_sizes:
        outs.extend(rx.push(x[lo : lo + size]))
        lo += size
    outs.extend(rx.close())
    return outs


def run_streaming(sim, cap, chunk_sizes):
    return stream_capture(sim.receiver, cap.samples, cap.search_stop, chunk_sizes)


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


# ---------------------------------------------------------------------------
# The §8 re-sync frame through the same walls.  A mobility packet's receiver
# is the one PhyReceiver, so its sync sections ride the stage sequence, the
# truncation ladder and the stream like any other frame.

_MOBILE: dict[str, object] = {}


def mobile_sim() -> MobileLinkSimulator:
    """A drifting link sending a re-sync frame with six sync sections."""
    if "sim" not in _MOBILE:
        _MOBILE["sim"] = MobileLinkSimulator(
            config=ModemConfig(dsm_order=2, pqam_order=4, slot_s=2.0e-3, fs=10e3),
            distance_m=2.5,
            drift=ChannelDrift(roll_rate_rad_s=float(np.deg2rad(25.0))),
            payload_bytes=12,
            sync_interval_slots=8,
            rng=7,
        )
    return _MOBILE["sim"]


def mobile_receiver(hardened: bool) -> PhyReceiver:
    """The simulator's own (unhardened) receiver, or a hardened twin."""
    sim = mobile_sim()
    if not hardened:
        return sim.receiver
    if "hardened" not in _MOBILE:
        _MOBILE["hardened"] = PhyReceiver(sim.frame, sim.receiver.basis_tables)
    return _MOBILE["hardened"]


def mobile_capture(seed: int) -> tuple[np.ndarray, int]:
    """The samples and search stop one mobility packet hands its receiver."""
    sim = mobile_sim()
    seen = []
    receive = sim.receiver.receive

    def recording_receive(x, **kwargs):
        seen.append((x, kwargs["search_stop"]))
        return receive(x, **kwargs)

    sim.receiver.receive = recording_receive
    try:
        sim.run_packet(rng=seed)
    finally:
        del sim.receiver.receive
    (capture,) = seen
    return capture


@settings(deadline=None, max_examples=10)
@given(
    seed=st.integers(0, 10_000),
    cuts=st.lists(st.integers(0, 100_000), max_size=6),
    hardened=st.booleans(),
)
def test_resync_chunk_partition_matches_batch(seed, cuts, hardened):
    """Every partition of a drifting re-sync capture decodes, sync
    sections and re-fitted correctors included, as batch does."""
    assert mobile_sim().frame.n_sync_sections == 6
    x, search_stop = mobile_capture(seed)
    receiver = mobile_receiver(hardened)
    batch = receiver.receive(x, search_stop=search_stop)
    chunk_sizes = partition(x.size, cuts)
    outs = stream_capture(receiver, x, search_stop, chunk_sizes)
    assert len(outs) == 1, chunk_sizes
    assert_outputs_identical(outs[0], batch, (seed, hardened, chunk_sizes))


def test_cut_resync_capture_runs_the_truncation_ladder():
    """A capture cut inside the last block overruns the frame, sync
    sections counted: unhardened raises the documented ValueError, hardened
    classifies the loss, and the stream does the same."""
    sim = mobile_sim()
    x, search_stop = mobile_capture(3)
    ts = sim.config.samples_per_slot
    x = x[: x.size - (2 + sim.frame.block_slot_counts()[-1] // 2) * ts]
    with pytest.raises(ValueError, match="packet truncated"):
        mobile_receiver(False).receive(x, search_stop=search_stop)
    with pytest.raises(ValueError, match="packet truncated"):
        stream_capture(mobile_receiver(False), x, search_stop, [256] * (x.size // 256 + 1))
    hardened = mobile_receiver(True)
    batch = hardened.receive(x, search_stop=search_stop)
    assert (batch.failure.stage.value, batch.failure.code) == ("capture", "truncated_capture")
    (streamed,) = stream_capture(hardened, x, search_stop, [256] * (x.size // 256 + 1))
    assert_outputs_identical(streamed, batch, "cut re-sync capture")
