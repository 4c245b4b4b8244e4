"""One observed run of a :class:`~repro.api.ScenarioSpec`."""

from __future__ import annotations

import numpy as np

from repro.api.spec import ScenarioSpec
from repro.obs import Observer, RunReport, use_observer
from repro.utils.rng import ensure_rng

__all__ = ["Session", "trajectory_summary"]


def trajectory_summary(sim, n_packets: int, gen) -> dict:
    """Run ``n_packets`` along ``sim``'s trajectory and summarise.

    Shared between :meth:`Session.run` and the ``trajectory_study`` sweep
    task so both produce identical rows for identical inputs.  Consumes
    only ``gen`` (one payload draw + one noise stream per packet); any
    observer metrics ride alongside without touching the RNG.
    """
    bers, crcs = zip(*(sim.run_packet(rng=gen) for _ in range(n_packets)))
    n_ok = int(sum(crcs))
    sim_time_s = float(sim.t_s)
    goodput_bps = (
        8.0 * sim.frame.payload_bytes * n_ok / sim_time_s if sim_time_s > 0 else 0.0
    )
    return {
        "ber": float(np.mean(bers)),
        "crc_ok_rate": n_ok / n_packets,
        "goodput_bps": goodput_bps,
        "n_packets": n_packets,
        "sim_time_s": sim_time_s,
        "trajectory": sim.trajectory.name,
        "trajectory_duration_s": sim.trajectory.duration_s,
    }


class Session:
    """One observed run of a :class:`ScenarioSpec`.

    The session installs its observer as the *ambient* observer for the
    duration of :meth:`run`, so every instrumented layer underneath —
    receiver stages, DFE, training solves, MAC outcomes — records into
    the same registry and span forest, which :meth:`run` returns as a
    :class:`~repro.obs.RunReport`.
    """

    def __init__(self, spec: ScenarioSpec, observer: Observer | None = None):
        if not isinstance(spec, ScenarioSpec):
            raise TypeError(f"Session needs a ScenarioSpec, got {type(spec).__name__}")
        self.spec = spec
        self.observer = observer if observer is not None else Observer()
        if not self.observer.enabled:
            raise ValueError("Session requires an enabled Observer (it emits a RunReport)")

    def run(self, n_packets: int = 4, rng=None) -> RunReport:
        """Run ``n_packets`` packets (frames, for the MAC kinds).

        Returns the :class:`~repro.obs.RunReport`; write it with
        ``report.write(path)`` or inspect ``report.summary`` directly.
        """
        if n_packets < 1:
            raise ValueError("n_packets must be >= 1")
        obs = self.observer
        runner = getattr(self, f"_run_{self.spec.kind}")
        with use_observer(obs):
            with obs.span("session", kind=self.spec.kind, n_packets=n_packets):
                summary = runner(n_packets, rng)
        return obs.run_report(self.spec.kind, scenario=self.spec.describe(), summary=summary)

    def stream(self, n_packets: int = 4, rng=None, chunk_samples: int | None = None):
        """Generator over live streaming decodes (``kind="stream"`` only).

        Synthesizes ``n_packets`` captures through the spec's link, feeds
        each to a :class:`~repro.phy.streaming.StreamingReceiver` in
        ``chunk_samples``-sized chunks, and yields ``(capture, output)``
        pairs — the :class:`~repro.phy.pipeline.CaptureSpec` (ground
        truth: sent payload, true offset) alongside each
        :class:`~repro.phy.receiver.ReceiverOutput` as it is emitted.
        The session observer is ambient for the duration, so
        ``stream.*`` gauges and the usual ``phy.*`` metrics accumulate in
        its registry; call :meth:`run` instead for a summarised report.
        """
        if self.spec.kind != "stream":
            raise ValueError(f"Session.stream() needs kind='stream', got {self.spec.kind!r}")
        if n_packets < 1:
            raise ValueError("n_packets must be >= 1")
        size = self.spec.stream.chunk_samples if chunk_samples is None else int(chunk_samples)
        if size < 1:
            raise ValueError("chunk_samples must be >= 1")
        obs = self.observer
        with use_observer(obs):
            sim = self.spec.build(obs)
            gen = ensure_rng(self.spec.seed + 1 if rng is None else rng)
            for _ in range(n_packets):
                cap = sim.make_capture(rng=gen)
                rx = sim.make_streaming_receiver(
                    search_stop=cap.search_stop,
                    max_buffered_samples=self.spec.stream.max_buffered_samples,
                    observer=obs,
                )
                for lo in range(0, cap.samples.size, size):
                    for out in rx.push(cap.samples[lo : lo + size]):
                        yield cap, out
                for out in rx.close():
                    yield cap, out

    # ------------------------------------------------------- kind runners

    def _run_stream(self, n_packets: int, rng) -> dict:
        from repro.utils.bits import bit_errors, bytes_to_bits

        outputs = []
        errors = bits = 0
        for cap, out in self.stream(n_packets=n_packets, rng=rng):
            outputs.append(out)
            sent = bytes_to_bits(cap.payload)
            if out.crc_ok and out.payload:
                errors += int(bit_errors(sent, bytes_to_bits(out.payload)))
            else:
                errors += sent.size
            bits += sent.size
        n_ok = sum(1 for out in outputs if out.crc_ok)
        return {
            "ber": errors / bits if bits else 0.0,
            "crc_ok_rate": n_ok / len(outputs) if outputs else 0.0,
            "n_packets": len(outputs),
            "n_bits": bits,
            "chunk_samples": self.spec.stream.chunk_samples,
        }

    def _run_packet(self, n_packets: int, rng) -> dict:
        sim = self.spec.build(self.observer)
        m = sim.measure_ber(
            n_packets=n_packets, rng=self.spec.seed + 1 if rng is None else rng
        )
        return {
            "ber": m.ber,
            "packet_error_rate": m.packet_error_rate,
            "detection_rate": m.detection_rate,
            "n_packets": m.n_packets,
            "n_bits": m.n_bits,
            "snr_db": sim.link.effective_snr_db(),
        }

    def _run_mobility(self, n_packets: int, rng) -> dict:
        sim = self.spec.build(self.observer)
        gen = ensure_rng(self.spec.seed + 1 if rng is None else rng)
        bers, crcs = zip(*(sim.run_packet(rng=gen) for _ in range(n_packets)))
        return {
            "ber": float(np.mean(bers)),
            "crc_ok_rate": float(np.mean(crcs)),
            "n_packets": n_packets,
        }

    def _run_trajectory(self, n_packets: int, rng) -> dict:
        sim = self.spec.build(self.observer)
        gen = ensure_rng(self.spec.seed + 1 if rng is None else rng)
        return trajectory_summary(sim, n_packets, gen)

    def _run_arq(self, n_frames: int, rng) -> dict:
        arq = self.spec.build(self.observer)
        mac = self.spec.mac
        stats = arq.simulate(
            mac.success_probability,
            n_frames,
            rng=self.spec.seed if rng is None else rng,
        )
        return {
            "delivered": stats.delivered,
            "gave_up": stats.gave_up,
            "attempts": stats.attempts,
            "mean_attempts": stats.mean_attempts,
            "efficiency": stats.efficiency(),
            "expected_attempts": arq.expected_attempts(mac.success_probability),
        }

    def _run_watchdog(self, n_frames: int, rng) -> dict:
        from repro.mac.arq import StopAndWaitARQ

        dog = self.spec.build(self.observer)
        mac = self.spec.mac
        stats = dog.simulate(
            lambda rate: mac.success_probability,
            n_frames,
            arq=StopAndWaitARQ(max_attempts=mac.max_attempts),
            rng=self.spec.seed if rng is None else rng,
        )
        return {
            "delivered": stats.delivered,
            "gave_up": stats.gave_up,
            "attempts": stats.attempts,
            "total_backoff_s": stats.total_backoff_s,
            "final_rate_bps": stats.final_rate_bps,
        }
