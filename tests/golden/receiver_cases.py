"""Frozen receiver-record corpus, shared by the generator and the test.

Each case names a simulator set-up (hardened or not, a fault scenario, a
bank mode), the capture seeds, and how the capture is presented to the
receiver: the preamble search window, a cut (the capture ends inside the
preamble, the training or the payload), or one non-finite sample planted in
a span.  A case with several capture seeds is one continuous stream of
fixed-length captures.

``make_goldens.py --receiver`` runs every case through the batch receiver
and freezes, per case, the sha256 of the capture samples and the complete
receiver record (:func:`replay_batch`).  ``test_golden_receiver.py``
replays each case through ``PhyReceiver.receive`` and through the
:class:`~repro.phy.streaming.StreamingReceiver` at several chunkings and
demands the frozen record, so a change to either receiver — or to the
shared stage sequence they both run — fails here even when batch and
stream still agree with each other.

Only seeds are stored, not waveforms: a transmitter or channel change
shows up as a capture-hash mismatch with its own message.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import asdict, dataclass

import numpy as np

CONFIG = dict(dsm_order=2, pqam_order=4, slot_s=2.0e-3, fs=10e3, tail_memory=2)
PAYLOAD_BYTES = 6
SIM_SEED = 99
FAULT_SEED = 3

#: Metric families left out of the record: ``opcache.*`` depends on the
#: cache's state, ``stream.*`` on the chunking and the clock.
EXCLUDED_METRIC_PREFIXES = ("opcache.", "stream.")


@dataclass(frozen=True)
class ReceiverCase:
    name: str
    hardened: bool = True
    scenario: str | None = None  # fault scenario; None is a clean link
    bank: str = "trained"  # trained | nominal | genie
    capture_seeds: tuple[int, ...] = (1,)
    window: str = "bounded"  # bounded | unbounded | offset | empty | late
    cut: str | None = None  # preamble | training | payload | short
    damage: str | None = None  # "<span>:<value>", e.g. "payload:nan"
    one_sample: bool = False  # also replay the stream in 1-sample chunks

    @classmethod
    def from_dict(cls, spec: dict) -> "ReceiverCase":
        spec = dict(spec)
        spec["capture_seeds"] = tuple(spec["capture_seeds"])
        return cls(**spec)

    def to_dict(self) -> dict:
        spec = asdict(self)
        spec["capture_seeds"] = list(self.capture_seeds)
        return spec


def _corpus() -> list[ReceiverCase]:
    cases: list[ReceiverCase] = []
    tag = {True: "hard", False: "soft"}
    scenarios = [
        None,
        "payload_burst",
        "preamble_corruption",
        "training_burst",
        "truncation",
        "compound",
        "ambient_flash",
    ]
    for hardened in (True, False):
        h = tag[hardened]
        for scenario in scenarios:
            for seed in (1, 2, 3):
                cases.append(
                    ReceiverCase(
                        f"{h}-{scenario or 'clean'}-s{seed}",
                        hardened=hardened,
                        scenario=scenario,
                        capture_seeds=(seed,),
                        one_sample=(hardened and scenario is None and seed == 1),
                    )
                )
        for bank in ("nominal", "genie"):
            for scenario in (None, "training_burst"):
                cases.append(
                    ReceiverCase(
                        f"{h}-{scenario or 'clean'}-{bank}",
                        hardened=hardened,
                        scenario=scenario,
                        bank=bank,
                    )
                )
        for scenario in (None, "preamble_corruption"):
            for window in ("unbounded", "offset", "empty", "late"):
                cases.append(
                    ReceiverCase(
                        f"{h}-{scenario or 'clean'}-window-{window}",
                        hardened=hardened,
                        scenario=scenario,
                        window=window,
                    )
                )
        for scenario in (None, "payload_burst"):
            for cut in ("preamble", "training", "payload"):
                cases.append(
                    ReceiverCase(
                        f"{h}-{scenario or 'clean'}-cut-{cut}",
                        hardened=hardened,
                        scenario=scenario,
                        cut=cut,
                    )
                )
        cases.append(
            ReceiverCase(f"{h}-clean-cut-payload-unbounded", hardened=hardened,
                         cut="payload", window="unbounded")
        )
        cases.append(ReceiverCase(f"{h}-clean-cut-short", hardened=hardened, cut="short"))
        for damage in ("search:nan", "preamble:nan", "training:inf", "payload:nan",
                       "payload:-inf"):
            cases.append(
                ReceiverCase(
                    f"{h}-clean-{damage.replace(':', '-')}", hardened=hardened, damage=damage
                )
            )
    for name, kwargs in {
        "stream3-hard-clean-bounded": dict(),
        "stream3-hard-clean-unbounded": dict(window="unbounded"),
        "stream3-soft-clean-bounded": dict(hardened=False),
        "stream3-hard-burst-bounded": dict(scenario="payload_burst"),
    }.items():
        cases.append(ReceiverCase(name, capture_seeds=(4, 5, 6), **kwargs))
    return cases


CASES: list[ReceiverCase] = _corpus()


# ------------------------------------------------------------------ set-up


def build_simulator(case: ReceiverCase, observer=None):
    from repro.faults import scenario
    from repro.modem.config import ModemConfig
    from repro.phy.pipeline import PacketSimulator

    plan = None if case.scenario is None else scenario(case.scenario, seed=FAULT_SEED)
    return PacketSimulator(
        config=ModemConfig(**CONFIG),
        payload_bytes=PAYLOAD_BYTES,
        hardened=case.hardened,
        bank_mode=case.bank,
        fault_plan=plan,
        observer=observer,
        rng=SIM_SEED,
    )


def build_inputs(case: ReceiverCase, sim) -> tuple[list[np.ndarray], int, int | None]:
    """``(captures, search_start, search_stop)`` exactly as the case states.

    Several captures are padded with their last sample to one fixed length,
    as a continuous stream of fixed-length captures would carry them.
    """
    specs = [sim.make_capture(rng=seed) for seed in case.capture_seeds]
    captures = [spec.samples.copy() for spec in specs]
    first = specs[0]
    ctx = sim._fault_context(first.offset, first.samples)
    x = captures[0]
    if case.cut is not None:
        end = {
            "preamble": ctx.preamble_start + (ctx.preamble_end - ctx.preamble_start) * 3 // 4,
            "training": (ctx.training_start + ctx.training_end) // 2,
            "payload": (ctx.payload_start + ctx.payload_end) // 2,
            "short": sim.frame.preamble.n_samples // 2,
        }[case.cut]
        x = x[:end]
    if case.damage is not None:
        span, value = case.damage.split(":")
        pos = {
            "search": first.search_stop + 1,
            "preamble": ctx.preamble_start + 5,
            "training": ctx.training_start + 7,
            "payload": ctx.payload_start + 13,
        }[span]
        x[pos] = float(value)
    captures[0] = x
    if len(captures) > 1:
        n = max(c.size for c in captures)
        captures = [np.concatenate([c, np.full(n - c.size, c[-1])]) for c in captures]
    search_stop = max(spec.search_stop for spec in specs)
    search_start = 0
    if case.window == "unbounded":
        search_stop = None
    elif case.window == "offset":
        search_start = max(ctx.preamble_start - 2 * sim.config.samples_per_slot, 1)
    elif case.window == "empty":
        search_start = search_stop + 1
    elif case.window == "late":
        search_start = ctx.preamble_start + 300
        search_stop = ctx.preamble_start + 400
    return captures, search_start, search_stop


def samples_digest(captures: list[np.ndarray]) -> str:
    h = hashlib.sha256()
    for x in captures:
        h.update(np.ascontiguousarray(x, dtype=complex).tobytes())
    return h.hexdigest()


def chunk_plans(case: ReceiverCase, n: int) -> dict[str, list[int]]:
    """The stream chunkings every case replays (sizes summing to ``n``)."""
    rng = np.random.default_rng(zlib.crc32(case.name.encode()))
    cuts = rng.choice(np.arange(1, n), size=min(9, n - 1), replace=False) if n > 1 else []
    edges = [0, *sorted(int(c) for c in cuts), n]
    plans = {
        "whole": [n],
        "by256": [min(256, n - lo) for lo in range(0, n, 256)],
        "random": [b - a for a, b in zip(edges, edges[1:])],
    }
    if case.one_sample:
        plans["by1"] = [1] * n
    return plans


# ------------------------------------------------------------------ record


def _fresh(observer) -> None:
    """Empty the observer's registry and span forest between replays."""
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import Tracer

    observer.metrics = MetricsRegistry()
    observer.tracer = Tracer()


def _hex(value: float) -> str:
    return float(value).hex()


def output_record(out) -> dict:
    det = out.detection
    corrector = det.corrector
    levels = hashlib.sha256()
    for arr in (out.levels_i, out.levels_q):
        arr = np.asarray(arr, dtype=np.int64)
        levels.update(repr(arr.shape).encode())
        levels.update(arr.tobytes())
    return {
        "payload": out.payload.hex(),
        "crc_ok": bool(out.crc_ok),
        "detected": bool(det.detected),
        "offset": int(det.offset),
        "cost": _hex(det.normalised_cost),
        "detection_snr_db": _hex(det.snr_db),
        "snr_est_db": _hex(out.snr_est_db),
        "corrector": [
            _hex(part) for v in (corrector.a, corrector.b, corrector.c) for part in (v.real, v.imag)
        ],
        "mse": _hex(out.equalizer_mse),
        "levels": levels.hexdigest()[:16],
        "failure": None
        if out.failure is None
        else [out.failure.stage.value, out.failure.code, out.failure.detail],
        "events": [[e.stage.value, e.status, e.detail] for e in out.events],
    }


def metrics_record(observer) -> dict:
    """Counter values and gauge/histogram observation counts."""
    record = {}
    for s in observer.metrics.snapshot()["series"]:
        if s["name"].startswith(EXCLUDED_METRIC_PREFIXES):
            continue
        labels = ",".join(f"{k}={v}" for k, v in sorted(s["labels"].items()))
        key = f"{s['name']}{{{labels}}}"
        if s["kind"] == "counter":
            record[key] = s["value"]
        else:
            record[key + "#n"] = s["count"]
    return record


def span_record(observer) -> list:
    def tree(span):
        return [span.name, span.status, [tree(c) for c in span.children]]

    return [tree(s) for s in observer.tracer.roots]


def _finish(observer, outputs=None, exc: BaseException | None = None) -> dict:
    record: dict = {}
    if exc is not None:
        record["raises"] = [type(exc).__name__, str(exc)]
    else:
        record["outputs"] = [output_record(o) for o in outputs]
    record["metrics"] = metrics_record(observer)
    record["spans"] = span_record(observer)
    return record


def replay_batch(sim, observer, captures, search_start, search_stop) -> dict:
    """One ``receive`` per capture, under one fresh observer."""
    _fresh(observer)
    outputs = []
    try:
        for x in captures:
            outputs.append(sim.receiver.receive(x, search_start, search_stop))
    except Exception as exc:  # noqa: BLE001 - the raise is part of the record
        return _finish(observer, exc=exc)
    return _finish(observer, outputs)


def replay_stream(sim, observer, captures, search_start, search_stop, sizes) -> dict:
    """The captures as one chunked stream (fixed-length when several)."""
    from repro.phy.streaming import StreamingReceiver

    _fresh(observer)
    stream = np.concatenate(captures)
    rx = StreamingReceiver(
        sim.receiver,
        capture_samples=captures[0].size if len(captures) > 1 else None,
        search_start=search_start,
        search_stop=search_stop,
    )
    outputs, lo = [], 0
    try:
        for size in sizes:
            outputs.extend(rx.push(stream[lo : lo + size]))
            lo += size
        outputs.extend(rx.close())
    except Exception as exc:  # noqa: BLE001
        return _finish(observer, exc=exc)
    return _finish(observer, outputs)


def run_case(case: ReceiverCase) -> tuple[str, dict, dict[str, dict]]:
    """``(samples sha256, batch record, {chunking: stream record})``."""
    from repro.obs import Observer

    observer = Observer()
    sim = build_simulator(case, observer)
    captures, start, stop = build_inputs(case, sim)
    n = sum(x.size for x in captures)
    batch = replay_batch(sim, observer, captures, start, stop)
    streams = {
        label: replay_stream(sim, observer, captures, start, stop, sizes)
        for label, sizes in chunk_plans(case, n).items()
    }
    return samples_digest(captures), batch, streams
