"""Unit tests for the streaming receiver's capture lifecycle.

The bit-identity contract lives in ``test_streaming_equivalence.py`` and
the golden walls; this file covers the machinery around it — capture
delimiting, the run() generator, a capture whose stages raise (alone or
inside a push that spans several captures), backpressure policy, the ``stream.*`` gauges, the batch truncation ladder on a short buffer, and the stage
counters and spans a streamed capture records through the receiver's one
stage sequence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EqualizationError, FailureStage
from repro.modem.config import ModemConfig
from repro.modem.dfe import DFEDemodulator
from repro.obs import Observer, use_observer
from repro.phy.pipeline import PacketSimulator
from repro.phy.receiver import PhyReceiver
from repro.phy.streaming import StreamingReceiver, _GrowBuffer


@pytest.fixture(scope="module")
def sim(fast_config):
    return PacketSimulator(config=fast_config, payload_bytes=6, rng=5)


@pytest.fixture(scope="module")
def capture(sim):
    return sim.make_capture(rng=17)


def chunks_of(x, size):
    return [x[i : i + size] for i in range(0, x.size, size)]


class TestGrowBuffer:
    def test_append_and_view_round_trip(self):
        buf = _GrowBuffer(np, initial_capacity=2)
        pieces = [np.arange(3) + 0j, np.arange(5) * 1j, np.zeros(0, dtype=complex)]
        for p in pieces:
            buf.append(p)
        np.testing.assert_array_equal(buf.view(), np.concatenate(pieces))

    def test_growth_is_capacity_doubling(self):
        buf = _GrowBuffer(np, initial_capacity=1)
        for i in range(100):
            buf.append(np.full(7, i, dtype=complex))
        assert buf.size == 700
        assert buf._data.size >= 700
        np.testing.assert_array_equal(
            buf.view(), np.repeat(np.arange(100), 7).astype(complex)
        )


class TestCaptureLifecycle:
    def test_push_after_close_raises(self, sim):
        rx = StreamingReceiver(sim.receiver)
        rx.close()
        with pytest.raises(RuntimeError, match="closed"):
            rx.push(np.zeros(4, dtype=complex))

    def test_close_is_idempotent(self, sim, capture):
        rx = StreamingReceiver(sim.receiver, search_stop=capture.search_stop)
        # With a bounded window the full-capture push decodes mid-push.
        outs = rx.push(capture.samples)
        assert len(outs) == 1
        assert rx.close() == []
        assert rx.close() == []

    def test_negative_search_start_rejected(self, sim):
        with pytest.raises(ValueError, match="search_start"):
            StreamingReceiver(sim.receiver, search_start=-1, search_stop=100)

    def test_non_1d_chunk_rejected(self, sim):
        rx = StreamingReceiver(sim.receiver)
        with pytest.raises(ValueError, match="1-D"):
            rx.push(np.zeros((2, 2), dtype=complex))

    def test_empty_chunks_are_harmless(self, sim, capture):
        rx = StreamingReceiver(sim.receiver, search_stop=capture.search_stop)
        outs = []
        empty = np.zeros(0, dtype=complex)
        outs.extend(rx.push(empty))
        for c in chunks_of(capture.samples, 500):
            outs.extend(rx.push(c))
            outs.extend(rx.push(empty))
        outs.extend(rx.close())
        assert len(outs) == 1 and outs[0].crc_ok

    def test_end_capture_without_samples_is_a_no_op(self, sim):
        rx = StreamingReceiver(sim.receiver)
        assert rx.end_capture() == []
        assert rx.captures_completed == 0

    def test_run_generator_yields_one_output_per_capture(self, sim):
        caps = [sim.make_capture(rng=s) for s in (21, 22)]
        n = max(c.samples.size for c in caps)
        padded = [
            np.concatenate([c.samples, np.full(n - c.samples.size, c.samples[-1])])
            for c in caps
        ]
        rx = StreamingReceiver(sim.receiver, capture_samples=n)
        outs = list(rx.run(chunks_of(np.concatenate(padded), 333)))
        assert len(outs) == 2
        assert [o.crc_ok for o in outs] == [True, True]
        assert rx.captures_completed == 2
        assert rx.packets_emitted == 2

    def test_chunk_spanning_capture_boundary_splits_correctly(self, sim):
        cap = sim.make_capture(rng=23)
        n = cap.samples.size
        stream = np.concatenate([cap.samples, cap.samples])
        rx = StreamingReceiver(sim.receiver, capture_samples=n)
        # One push covering capture 1's tail and capture 2's head.
        outs = []
        outs.extend(rx.push(stream[: n - 100]))
        outs.extend(rx.push(stream[n - 100 : n + 300]))
        outs.extend(rx.push(stream[n + 300 :]))
        outs.extend(rx.close())
        assert len(outs) == 2
        assert outs[0].crc_ok and outs[1].crc_ok
        assert outs[0].payload == outs[1].payload

    def test_mid_push_emission_in_fixed_mode(self, sim):
        """With a bounded window and a fixed capture size, the decode
        completes as soon as the frame is buffered — before the capture
        boundary, so the output arrives mid-push."""
        cap = sim.make_capture(rng=29)
        pad = np.full(4000, cap.samples[-1])
        stream = np.concatenate([cap.samples, pad])
        rx = StreamingReceiver(
            sim.receiver, capture_samples=stream.size, search_stop=cap.search_stop
        )
        outs = rx.push(cap.samples)
        assert len(outs) == 1 and outs[0].crc_ok
        assert rx.buffered_samples == 0  # capture buffer freed at emission
        assert rx.push(pad) == []  # draining to the boundary re-buffers nothing


class TestRaisingCapture:
    """A capture whose stages raise raises once, as ``receive`` does, and
    the stream carries on with the next capture."""

    @pytest.fixture
    def rig(self, fast_config, monkeypatch):
        sim = PacketSimulator(config=fast_config, payload_bytes=6, rng=99, hardened=False)
        runs = []
        run_stages = PhyReceiver._run_stages

        def counting(self, *args, **kwargs):
            runs.append(1)
            return run_stages(self, *args, **kwargs)

        monkeypatch.setattr(PhyReceiver, "_run_stages", counting)
        return sim, runs

    @staticmethod
    def _push_all(rx, chunks) -> tuple[list, int]:
        outs, raises = [], 0
        for chunk in chunks:
            try:
                outs.extend(rx.push(chunk))
            except EqualizationError:
                raises += 1
        return outs, raises

    def test_end_capture_mode_raises_once(self, rig, monkeypatch):
        sim, runs = rig

        def fail(self, *args, **kwargs):
            raise EqualizationError("injected")

        monkeypatch.setattr(DFEDemodulator, "demodulate", fail)
        cap = sim.make_capture(rng=3)
        rx = StreamingReceiver(sim.receiver, search_stop=cap.search_stop)
        outs, raises = self._push_all(rx, chunks_of(cap.samples, 256))
        assert (outs, raises, len(runs)) == ([], 1, 1)
        assert rx.close() == []
        assert len(runs) == 1 and rx.captures_completed == 1

    def test_fixed_capture_mode_carries_on_after_a_raise(self, rig, monkeypatch):
        sim, runs = rig
        demodulate = DFEDemodulator.demodulate
        calls = []

        def fail_first(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise EqualizationError("injected")
            return demodulate(self, *args, **kwargs)

        monkeypatch.setattr(DFEDemodulator, "demodulate", fail_first)
        caps = [sim.make_capture(rng=seed) for seed in (3, 4)]
        n = max(cap.samples.size for cap in caps) + 300
        padded = [np.concatenate([c.samples, np.full(n - c.samples.size, c.samples[-1])]) for c in caps]
        stop = max(cap.search_stop for cap in caps)
        rx = StreamingReceiver(sim.receiver, capture_samples=n, search_stop=stop)
        first, first_raises = self._push_all(rx, chunks_of(padded[0], 256))
        second, second_raises = self._push_all(rx, chunks_of(padded[1], 256))
        assert (first, first_raises, second_raises, len(second)) == ([], 1, 0, 1)
        assert rx.close() == []
        batch = sim.receiver.receive(padded[1], search_stop=stop)
        out = second[0]
        assert out.crc_ok and batch.crc_ok and out.payload == batch.payload == caps[1].payload
        np.testing.assert_array_equal(out.levels_i, batch.levels_i)
        np.testing.assert_array_equal(out.levels_q, batch.levels_q)
        assert out.equalizer_mse == batch.equalizer_mse
        assert out.detection == batch.detection and out.events == batch.events


class TestRaisingCaptureInOnePush:
    """A push that spans several captures delivers one outcome per capture,
    in capture order, and ingests every sample even when a capture in the
    middle raises."""

    @staticmethod
    def _outcomes(rx, chunks) -> list:
        """Every outcome the stream delivers: outputs and raised errors,
        pushing each chunk, then closing until nothing is left."""
        got = []
        for chunk in chunks:
            try:
                got.extend(rx.push(chunk))
            except EqualizationError as exc:
                got.append(exc)
        while True:
            try:
                outs = rx.close()
            except EqualizationError as exc:
                got.append(exc)
                continue
            if not outs:
                return got
            got.extend(outs)

    @pytest.mark.parametrize("one_push", [True, False], ids=["one-push", "push-per-capture"])
    def test_middle_capture_raises(self, fast_config, monkeypatch, one_push):
        sim = PacketSimulator(config=fast_config, payload_bytes=6, rng=99, hardened=False)
        caps = [sim.make_capture(rng=seed) for seed in (3, 4, 5)]
        n = max(cap.samples.size for cap in caps) + 300
        padded = [
            np.concatenate([c.samples, np.full(n - c.samples.size, c.samples[-1])])
            for c in caps
        ]
        stop = max(cap.search_stop for cap in caps)
        batch = [sim.receiver.receive(x, search_stop=stop) for x in padded]
        demodulate = DFEDemodulator.demodulate
        calls = []

        def fail_second(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise EqualizationError("injected")
            return demodulate(self, *args, **kwargs)

        monkeypatch.setattr(DFEDemodulator, "demodulate", fail_second)
        rx = StreamingReceiver(sim.receiver, capture_samples=n, search_stop=stop)
        chunks = [np.concatenate(padded)] if one_push else padded
        got = self._outcomes(rx, chunks)
        assert [type(o).__name__ for o in got] == [
            "ReceiverOutput",
            "EqualizationError",
            "ReceiverOutput",
        ]
        assert len(calls) == 3 and rx.captures_completed == 3
        for out, want, cap in zip((got[0], got[2]), (batch[0], batch[2]), (caps[0], caps[2])):
            assert out.crc_ok and out.payload == want.payload == cap.payload
            np.testing.assert_array_equal(out.levels_i, want.levels_i)
            np.testing.assert_array_equal(out.levels_q, want.levels_q)
            assert out.equalizer_mse == want.equalizer_mse
            assert out.detection == want.detection and out.events == want.events


class TestBackpressure:
    def test_oversized_capture_is_dropped_and_classified(self, sim, capture):
        rx = StreamingReceiver(sim.receiver, max_buffered_samples=64)
        outs = []
        for c in chunks_of(capture.samples, 50):
            outs.extend(rx.push(c))
        outs.extend(rx.close())
        assert len(outs) == 1
        out = outs[0]
        assert not out.crc_ok
        assert out.failure is not None
        assert out.failure.stage is FailureStage.CAPTURE
        assert out.failure.code == "backpressure_drop"

    def test_drop_counter_and_stream_continues(self, sim, capture):
        obs = Observer()
        with use_observer(obs):
            rx = StreamingReceiver(
                sim.receiver,
                capture_samples=capture.samples.size,
                max_buffered_samples=64,
                observer=obs,
            )
            outs = list(rx.run(chunks_of(np.concatenate([capture.samples] * 2), 50)))
        assert len(outs) == 2
        assert all(o.failure.code == "backpressure_drop" for o in outs)
        series = {
            e["name"]: e for e in obs.metrics.snapshot()["series"] if not e["labels"]
        }
        assert series["stream.backpressure_drops"]["value"] == 2.0

    def test_bound_must_be_positive(self, sim):
        with pytest.raises(ValueError, match="max_buffered_samples"):
            StreamingReceiver(sim.receiver, max_buffered_samples=0)


class TestStreamGauges:
    def test_stream_gauges_are_exported(self, sim, capture):
        obs = Observer()
        with use_observer(obs):
            rx = StreamingReceiver(
                sim.receiver, search_stop=capture.search_stop, observer=obs
            )
            list(rx.run(chunks_of(capture.samples, 256)))
        names = {e["name"] for e in obs.metrics.snapshot()["series"]}
        for gauge in (
            "stream.chunks_total",
            "stream.buffered_samples",
            "stream.packets_emitted_total",
            "stream.sustained_pps",
            "stream.agc_rms",
            "stream.agc_dc_mag",
        ):
            assert gauge in names, gauge

    def test_agc_tracks_signal_moments(self, sim, capture):
        obs = Observer()
        x = capture.samples
        with use_observer(obs):
            rx = StreamingReceiver(sim.receiver, observer=obs)
            rx.push(x)
            rx.close()
        series = {
            e["name"]: e for e in obs.metrics.snapshot()["series"] if not e["labels"]
        }
        rms = float(np.sqrt(np.mean(np.abs(x) ** 2)))
        dc = float(np.abs(np.mean(x)))
        assert series["stream.agc_rms"]["value"] == pytest.approx(rms)
        assert series["stream.agc_dc_mag"]["value"] == pytest.approx(dc)


class TestTruncatedBuffer:
    """A buffer cut short of its frame runs the batch truncation ladder:
    classified as ``truncated_capture`` when hardened, a ``ValueError``
    when not."""

    @pytest.fixture(scope="class", params=[True, False], ids=["hardened", "unhardened"])
    def rig(self, request, fast_config):
        s = PacketSimulator(config=fast_config, payload_bytes=6, hardened=request.param, rng=5)
        cap = s.make_capture(rng=31)
        full = s.receiver.receive(cap.samples, 0, cap.search_stop)
        assert full.crc_ok
        return s, cap, full

    def test_runs_the_truncation_ladder(self, rig):
        sim, cap, full = rig
        needed = sim.receiver.frame_samples_after_offset()
        prefix = cap.samples[: full.detection.offset + needed - 600]
        if sim.receiver.hardened:
            out = sim.receiver.receive(prefix, 0, cap.search_stop)
            assert out.failure is not None
            assert out.failure.stage is FailureStage.CAPTURE
            assert out.failure.code == "truncated_capture"
        else:
            with pytest.raises(ValueError, match="truncated"):
                sim.receiver.receive(prefix, 0, cap.search_stop)


def _stage_counters(obs) -> dict:
    """Counter series, without the chunking- and cache-dependent ones."""
    return {
        (e["name"], tuple(sorted(e["labels"].items()))): e["value"]
        for e in obs.metrics.snapshot()["series"]
        if e["kind"] == "counter" and not e["name"].startswith(("stream.", "opcache."))
    }


class TestStageEffectsMatchBatch:
    """A streamed capture records the stage counters and spans of the batch
    decode of the same samples: both run the receiver's one sequence."""

    @staticmethod
    def _rig(config):
        obs = Observer()
        sim = PacketSimulator(config=config, payload_bytes=6, rng=99, observer=obs)
        cap = sim.make_capture(rng=3)
        obs.tracer.clear()  # drop the synthesis spans
        return obs, sim, cap

    def test_fixed_capture_closed_early_counts_stages_like_batch(self, fast_config):
        """Closing a fixed-length capture before its frame arrived records
        one preamble search and no training solve, as batch does."""
        obs_b, sim_b, cap = self._rig(fast_config)
        batch = sim_b.receiver.receive(cap.samples[:-200], search_stop=cap.search_stop)
        obs_s, sim_s, cap_s = self._rig(fast_config)
        rx = StreamingReceiver(
            sim_s.receiver,
            capture_samples=cap_s.samples.size,
            search_stop=cap_s.search_stop,
            observer=obs_s,
        )
        outs = rx.push(cap_s.samples[:-200]) + rx.close()
        assert len(outs) == 1
        assert outs[0].failure.code == batch.failure.code == "truncated_capture"
        streamed = _stage_counters(obs_s)
        assert streamed == _stage_counters(obs_b)
        assert streamed[("phy.preamble.searches_total", (("outcome", "hit"),))] == 1
        assert ("training.solves_total", ()) not in streamed

    def test_dfe_feeds_run_inside_the_equalize_span(self, fast_config, monkeypatch):
        from repro.modem.dfe import DFEBlockSession

        innermost: list = []
        original = DFEBlockSession.feed

        def feed(session, *args, **kwargs):
            stack = current.tracer._stack
            innermost.append(stack[-1].name if stack else None)
            return original(session, *args, **kwargs)

        monkeypatch.setattr(DFEBlockSession, "feed", feed)
        trees = {}
        for path in ("batch", "stream"):
            current, sim, cap = self._rig(fast_config)
            innermost.clear()
            if path == "batch":
                outs = [sim.receiver.receive(cap.samples, search_stop=cap.search_stop)]
            else:
                rx = StreamingReceiver(sim.receiver, search_stop=cap.search_stop)
                outs = list(rx.run(chunks_of(cap.samples, 256)))
            assert len(outs) == 1 and outs[0].crc_ok, path
            assert innermost and set(innermost) == {"equalize"}, (path, innermost)
            trees[path] = [s.name for s in current.tracer.roots]
        assert trees["stream"] == trees["batch"] == [
            "preamble",
            "rotation",
            "training",
            "equalize",
            "decode",
        ]


class TestPipelineCaptureFactory:
    def test_make_capture_is_deterministic_per_seed(self, sim):
        a, b = sim.make_capture(rng=41), sim.make_capture(rng=41)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.payload == b.payload
        assert (a.offset, a.search_stop) == (b.offset, b.search_stop)

    def test_run_packet_consumes_make_capture(self, sim):
        """The packet loop and the factory must stay the same synthesis:
        decoding the factory's capture reproduces run_packet on the seed."""
        res = sim.run_packet(rng=np.random.default_rng(43))
        cap = sim.make_capture(rng=np.random.default_rng(43))
        assert res.snr_link_db == cap.link_snr_db
        rx = sim.receiver.receive(cap.samples, 0, cap.search_stop)
        assert rx.crc_ok == res.crc_ok
        assert rx.equalizer_mse == res.equalizer_mse
        assert (rx.payload == cap.payload) == (res.n_bit_errors == 0)

    def test_make_streaming_receiver_wires_the_inner_receiver(self, sim):
        rx = sim.make_streaming_receiver(search_stop=123)
        assert isinstance(rx, StreamingReceiver)
        assert rx._inner is sim.receiver
        assert rx.search_stop == 123
