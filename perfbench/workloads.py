"""The benchmark workloads: inputs made from a seed, one operation, checks.

Every workload is a closed loop on one thread: the next operation starts
when the previous one has returned.  An operation is a packet
(``phy_batch_8k``), a streamed capture (``phy_stream_1k``) or a whole fleet
run (the fleet workloads).  ``run_op(i)`` times operation ``i`` and checks
its outputs; its inputs depend only on the seed and ``i``, so a traced pass
that replays operations from ``i = 0`` sees exactly the inputs of the
untraced pass.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.channel.link import OpticalLink
from repro.faults.network import network_scenario
from repro.modem.config import ModemConfig
from repro.network.core import EventQueue
from repro.network.fleet import FleetConfig, FleetSimulator
from repro.obs import Observer, use_observer
from repro.optics.geometry import LinkGeometry
from repro.phy.pipeline import PacketSimulator
from repro.phy.receiver import PhyReceiver
from repro.utils.opcache import OpCache, fingerprint, set_global_opcache

from spans import patched

#: Chunk size of the streaming workload (the CLI's default chunk).
CHUNK_SAMPLES = 256

#: The streaming benchmark's operating point: L=2, P=4, T=2 ms, fs=10 kHz.
STREAM_CONFIG = dict(dsm_order=2, pqam_order=4, slot_s=2.0e-3, fs=10e3, tail_memory=2)


@dataclass
class OpResult:
    """One operation: its wall time, work done, latency samples and checks."""

    wall_s: float
    work: float
    latencies_s: list[float]
    #: The operation's outcome as one line of integers and bytes; the
    #: default-seed digest hashes the first few of these.
    record: str
    problems: list[str] = field(default_factory=list)
    #: ``perf_counter()`` when the timed part began.
    start_s: float = 0.0
    #: When each latency sample began, if not all at ``start_s``.
    latency_starts_s: list[float] = field(default_factory=list)


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()[:16]


def _fresh_opcache() -> None:
    """Start set-up from an empty operating-point cache, so repeated set-ups
    each pay the cost a fresh process pays."""
    set_global_opcache(OpCache())


class PhyBatch:
    """Packets through ``PacketSimulator.measure_ber``, one at a time.

    The Table 1 operating point with 128-byte payloads, a trained bank and
    the global opcache, cycling over links at 2, 4, 6 and 7 m: clean links
    up to about half the packets failing CRC, so the decode-failure path
    runs too.  The work unit is one packet; latency is per packet.
    """

    name = "phy_batch_8k"
    setup_reps = 5
    speed_sensitivity = 1.0
    digest_ops = 16

    def __init__(self, config: ModemConfig | None = None, distances=(2.0, 4.0, 6.0, 7.0),
                 payload_bytes: int = 128):
        self.config = config if config is not None else ModemConfig()
        self.distances = tuple(distances)
        self.payload_bytes = payload_bytes
        self._sent: list[bytes] = []
        self._received: list = []

    def setup(self, seed: int) -> None:
        _fresh_opcache()
        self.seed = seed
        self.sims = [
            PacketSimulator(
                config=self.config,
                link=OpticalLink(geometry=LinkGeometry(distance_m=d)),
                payload_bytes=self.payload_bytes,
                bank_mode="trained",
                n_bases=2,
                k_branches=16,
                rng=np.random.default_rng([seed, 0, j]),
            )
            for j, d in enumerate(self.distances)
        ]
        # One warm-up packet per link fills the opcache.
        for j, sim in enumerate(self.sims):
            sim.measure_ber(n_packets=1, rng=np.random.default_rng([seed, 1, j]))

    def probes(self):
        """Record the bytes sent and the receiver's output of each packet."""

        def on_capture(original):
            def make_capture(sim, *args, **kwargs):
                cap = original(sim, *args, **kwargs)
                self._sent.append(cap.payload)
                return cap

            return make_capture

        def on_receive(original):
            def receive(receiver, *args, **kwargs):
                out = original(receiver, *args, **kwargs)
                self._received.append(out)
                return out

            return receive

        return patched([(PacketSimulator, "make_capture", on_capture),
                        (PhyReceiver, "receive", on_receive)])

    def run_op(self, i: int) -> OpResult:
        link = i % len(self.sims)
        gen = np.random.default_rng([self.seed, 2, i])
        self._sent.clear()
        self._received.clear()
        t0 = perf_counter()
        measured = self.sims[link].measure_ber(n_packets=1, rng=gen, keep_results=True)
        wall = perf_counter() - t0
        result = measured.results[0]
        if len(self._sent) != 1 or len(self._received) != 1:
            return OpResult(wall, 1.0, [wall], f"{i}:{link}:?", [
                f"packet {i}: {len(self._sent)} captures and "
                f"{len(self._received)} receives for one packet"], t0)
        sent, out = self._sent[0], self._received[0]
        problems = []
        if out.crc_ok != result.crc_ok:
            problems.append(f"packet {i}: receiver and packet result disagree on the CRC")
        if result.crc_ok and (out.payload != sent or result.n_bit_errors):
            problems.append(f"packet {i}: CRC ok but the payload differs from the bytes sent")
        if result.n_bits != 8 * self.payload_bytes:
            problems.append(f"packet {i}: scored {result.n_bits} bits")
        record = (f"{i}:{link}:{int(result.crc_ok)}:{result.n_bit_errors}:"
                  f"{sent.hex()}:{out.payload.hex()}")
        return OpResult(wall, 1.0, [wall], record, problems, t0)

    def final_problems(self) -> list[str]:
        return []


def _output_key(out) -> str:
    """The fields of a ``ReceiverOutput`` that the digest covers."""
    levels = _sha(np.asarray(out.levels_i).tobytes(), np.asarray(out.levels_q).tobytes())
    failure = out.failure.code if out.failure is not None else "-"
    return f"{int(out.crc_ok)}:{out.payload.hex()}:{out.detection.offset}:{levels}:{failure}"


class PhyStream:
    """Captures streamed through a ``StreamingReceiver`` in 256-sample chunks.

    The streaming benchmark's operating point with 6-byte payloads.  The
    captures are made during set-up and cycled, so synthesis is outside the
    timed loop.  An enabled ``Observer`` is ambient, as in
    ``Session.stream``.  The work unit is a thousand samples; latency is per
    capture, from its first ``push`` to its output.  (Single pushes are
    either near-free buffering or a whole stage, so their median jumps
    between the two from run to run.)
    """

    name = "phy_stream_1k"
    setup_reps = 7
    speed_sensitivity = 1.0
    digest_ops = 16

    def __init__(self, n_captures: int = 48, payload_bytes: int = 6):
        self.n_captures = n_captures
        self.payload_bytes = payload_bytes

    def setup(self, seed: int) -> None:
        _fresh_opcache()
        self.obs = Observer()
        self.sim = PacketSimulator(
            config=ModemConfig(**STREAM_CONFIG),
            payload_bytes=self.payload_bytes,
            observer=self.obs,
            rng=np.random.default_rng([seed, 0]),
        )
        gen = np.random.default_rng([seed, 1])
        self.captures = [self.sim.make_capture(rng=gen) for _ in range(self.n_captures)]
        #: Pool index -> (digest key, full key) of its first streamed output.
        self.streamed: dict[int, tuple[str, str]] = {}
        with use_observer(self.obs):
            self._stream(self.captures[0])  # warm-up fills the opcache

    def probes(self):
        return use_observer(self.obs)

    def _stream(self, cap):
        rx = self.sim.make_streaming_receiver(search_stop=cap.search_stop, observer=self.obs)
        outputs: list = []
        samples = cap.samples
        chunks = [samples[lo : lo + CHUNK_SAMPLES] for lo in range(0, samples.size, CHUNK_SAMPLES)]
        t0 = perf_counter()
        for chunk in chunks:
            outputs.extend(rx.push(chunk))
        outputs.extend(rx.close())
        return outputs, t0, perf_counter() - t0

    @staticmethod
    def _keys(out) -> tuple[str, str]:
        """The digest key, and that key plus the float equalizer MSE."""
        key = _output_key(out)
        return key, f"{key}:{out.equalizer_mse!r}"

    def run_op(self, i: int) -> OpResult:
        j = i % len(self.captures)
        cap = self.captures[j]
        outputs, t0, wall = self._stream(cap)
        work = cap.samples.size / 1e3
        if len(outputs) != 1:
            return OpResult(wall, work, [wall], f"{i}:{j}:?",
                            [f"capture {i}: {len(outputs)} outputs for one capture"], t0)
        out = outputs[0]
        problems = []
        if out.crc_ok and out.payload != cap.payload:
            problems.append(f"capture {i}: CRC ok but the payload differs from the bytes sent")
        keys = self._keys(out)
        if self.streamed.setdefault(j, keys) != keys:
            problems.append(f"capture {i}: pool capture {j} decoded differently on a repeat")
        return OpResult(wall, work, [wall], f"{i}:{j}:{keys[0]}", problems, t0)

    def final_problems(self) -> list[str]:
        """Streamed outputs must equal the batch receiver on the same captures."""
        problems = []
        with use_observer(self.obs):
            for j, (_, full) in sorted(self.streamed.items()):
                cap = self.captures[j]
                batch = self.sim.receiver.receive(cap.samples, search_stop=cap.search_stop)
                if self._keys(batch)[1] != full:
                    problems.append(f"pool capture {j}: streamed output differs from batch")
        return problems


def fleet_record(result) -> str:
    """A fleet run's outcome: the timeline, per-tag outcome counters, totals.

    ``timeline_digest`` alone hashes transitions and handoffs only, so runs
    that deliver different frames can share it; the per-tag
    delivered/abandoned/attempts arrays close that gap.
    """
    store = result.store
    per_tag = _sha(store.delivered.tobytes(), store.abandoned.tobytes(), store.attempts.tobytes())
    timeline = fingerprint(result.transitions, result.handoff_log)
    return (f"{timeline}:{per_tag}:{result.delivered}:{result.abandoned}:"
            f"{result.attempts}:{len(result.handoff_log)}")


class Fleet:
    """Whole ``FleetSimulator.run`` calls of the fleet-scale deployment.

    Three readers, 90 one-second rounds, ``queue_capacity=n_tags``, under a
    named chaos scenario.  Building the fleet happens inside ``run``, so it
    is timed: users pay it on every run.  The work unit is a million
    tag-rounds; latency is per simulated round (from one round's first poll
    to the next), which leaves the build out.
    """

    setup_reps = 200
    digest_ops = 1
    n_rounds = 90

    def __init__(self, name: str, n_tags: int, scenario: str, array_bound: bool = False):
        self.name = name
        self.n_tags = n_tags
        self.scenario = scenario
        # A run dominated by large-array work and allocation (the 1M-tag
        # build and serve) slows about half as much, in log terms, as the
        # interpreter-bound reference kernel under the host's contention
        # (1.25x against 1.65x), and sampling the kernel inside it evicts
        # its working set and slows the next round, so it samples rarely.
        # The failover run's event loop is interpreter-bound like the kernel.
        self.speed_sensitivity = 0.5 if array_bound else 1.0
        self.sample_every_s = 0.5 if array_bound else 0.1
        self.sim: FleetSimulator | None = None
        #: A ``speed.SpeedMeter`` to sample while a run is going, or None.
        self.meter = None
        self._round_starts: list[float] = []
        self._sampling_s: list[float] = []
        self._first_record: str | None = None

    def _make_sim(self) -> FleetSimulator:
        config = FleetConfig(
            n_readers=3,
            n_tags=self.n_tags,
            duration_s=float(self.n_rounds),
            queue_capacity=self.n_tags,
            airtime_duty=1.0,
            payload_bytes=8,
            overhead_s=0.002,
        )
        return FleetSimulator(
            config, fault_plan=network_scenario(self.scenario, config.duration_s),
            root_seed=self.seed,
        )

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.sim = self._make_sim()

    def probes(self):
        """Stamp the start of each round: reader 0's poll is popped first.

        A fleet run lasts seconds, so the speed meter is also sampled while
        it runs, on event pushes and pops; the time that takes is recorded
        per round (entry 0: before the first round) and left out.
        """
        starts, spent = self._round_starts, self._sampling_s
        pending = [0.0]

        def sample() -> None:
            if self.meter is not None:
                pending[0] += self.meter.maybe_sample(self.sample_every_s)

        def on_pop(original):
            def pop(queue):
                event = original(queue)
                sample()
                if event.kind == "poll_round" and event.payload["reader_id"] == 0:
                    spent.append(pending[0])
                    pending[0] = 0.0
                    starts.append(perf_counter())
                return event

            return pop

        def on_push(original):
            def push(queue, *args, **kwargs):
                sample()
                return original(queue, *args, **kwargs)

            return push

        def on_run(original):
            def run(sim):
                try:
                    return original(sim)
                finally:
                    spent.append(pending[0])
                    pending[0] = 0.0

            return run

        return patched([(EventQueue, "pop", on_pop), (EventQueue, "push", on_push),
                        (FleetSimulator, "run", on_run)])

    def run_op(self, i: int) -> OpResult:
        sim, self.sim = (self.sim or self._make_sim()), None
        self._round_starts.clear()
        self._sampling_s.clear()
        t0 = perf_counter()
        result = sim.run()
        t1 = perf_counter()
        stamps = self._round_starts + [t1]
        rounds = [b - a - s for a, b, s in zip(stamps, stamps[1:], self._sampling_s[1:])]
        problems = []
        if len(rounds) != self.n_rounds:
            problems.append(f"fleet run {i}: {len(rounds)} rounds, expected {self.n_rounds}")
        violation = result.check_contract()
        if violation is not None:
            problems.append(f"fleet run {i}: {violation}")
        store = result.store
        delivered, abandoned, attempts = store.delivered, store.abandoned, store.attempts
        if (delivered < 0).any() or (abandoned < 0).any():
            problems.append(f"fleet run {i}: negative per-tag counter")
        if (delivered + abandoned > attempts).any():
            problems.append(f"fleet run {i}: a tag delivered or abandoned more than it attempted")
        if (store.pending_attempts >= store.arq.max_attempts).any():
            problems.append(f"fleet run {i}: a tag holds more retries than its ARQ budget")
        if int(attempts.sum()) != sum(r.frames_served for r in result.readers):
            problems.append(f"fleet run {i}: tag attempts differ from frames served")
        record = fleet_record(result)
        # Every run replays the same seed, so every run must agree.
        if self._first_record is None:
            self._first_record = record
        elif record != self._first_record:
            problems.append(f"fleet run {i}: outcome differs from the first run")
        work = self.n_tags * self.n_rounds / 1e6
        wall = t1 - t0 - sum(self._sampling_s)
        return OpResult(wall, work, rounds, record, problems, t0, self._round_starts[:])

    def final_problems(self) -> list[str]:
        return []


#: Every workload, by its ``BENCHMARK.json`` name.
WORKLOADS = {
    "phy_batch_8k": PhyBatch,
    "phy_stream_1k": PhyStream,
    "fleet_steady_1m": lambda: Fleet("fleet_steady_1m", 1_000_000, "occlusion", array_bound=True),
    "fleet_failover_300k": lambda: Fleet("fleet_failover_300k", 300_000, "reader_crash"),
}
