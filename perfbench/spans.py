"""In-memory span recorder and the wrappers that time each layer from outside.

The benchmark never edits the program to time it.  For a traced run it
patches the public entry point of each layer (a class attribute) with a
wrapper that opens a span around the call, in the manner of a ``timeit``
decorator filling a per-method time log.  Spans stay in memory as parallel
lists and are written out when the run ends.

A span is ``(name, start, end, parent, request)``.  Its *self time* is its
duration minus the durations of its children; the benchmark is single
threaded, so children never overlap and the self times of one request sum to
the duration of its root span.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class SpanRecorder:
    """Spans of one traced pass, plus counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        #: True when no enclosing open span has the same name, so summing
        #: the durations of outer spans never counts nested time twice.
        self.outer: list[bool] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._open_by_name: Counter = Counter()

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.outer.append(self._open_by_name[name] == 0)
        self._open_by_name[name] += 1
        self.ends.append(math.nan)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        """Close span ``index`` and any span still open inside it."""
        now = perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.ends[top] = now
            self._open_by_name[self.names[top]] -= 1
            if top == index:
                return
        raise RuntimeError(f"span {index} ({self.names[index]}) is not open")

    # ------------------------------------------------------------ analysis

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        dur = self.durations()
        own = list(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[i]
        return own

    def busy(self, name: str) -> float:
        """Wall time inside ``name``: outermost spans only, children included."""
        return sum(
            e - s
            for n, s, e, outer in zip(self.names, self.starts, self.ends, self.outer)
            if n == name and outer
        )

    def self_time(self, name: str) -> float:
        return sum(t for n, t in zip(self.names, self.self_times()) if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for n in self.names if n == name)

    def calls_under(self, name: str, parent_name: str) -> int:
        """Spans named ``name`` whose direct parent is named ``parent_name``."""
        return sum(
            1
            for n, p in zip(self.names, self.parents)
            if n == name and p >= 0 and self.names[p] == parent_name
        )

    def self_by_name(self) -> dict[str, float]:
        totals: Counter = Counter()
        for n, t in zip(self.names, self.self_times()):
            totals[n] += t
        return dict(totals)

    def coverage(self, wall_s: float) -> float:
        """Sum of all self times over the traced wall time (1.0 = all of it)."""
        return sum(self.self_times()) / wall_s if wall_s > 0 else 0.0

    def to_json(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "request"],
            "spans": [
                [n, s, e, p, r]
                for n, s, e, p, r in zip(
                    self.names, self.starts, self.ends, self.parents, self.requests
                )
            ],
            "counts": dict(self.counts),
        }


# --------------------------------------------------------------- patching


@contextmanager
def patched(patches):
    """Install ``(cls, attr, make_wrapper)`` patches; restore them on exit.

    ``make_wrapper(original)`` returns the replacement.  Patches apply in
    order, so a later patch of the same attribute wraps an earlier one.
    """
    saved = []
    try:
        for cls, attr, make_wrapper in patches:
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, functools.wraps(original)(make_wrapper(original)))
        yield
    finally:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)


def timed(rec: SpanRecorder, name: str, after=None):
    """Wrapper factory: a span named ``name`` around every call.

    ``after(result)`` runs outside the span, to take counts from the result.
    """

    def make(original):
        def wrapper(*args, **kwargs):
            index = rec.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                rec.close(index)
            if after is not None:
                after(result)
            return result

        return wrapper

    return make


def counted(rec: SpanRecorder, key: str):
    """Wrapper factory: count calls without a span (for very hot calls)."""

    def make(original):
        def wrapper(*args, **kwargs):
            rec.counts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    return make


# ---------------------------------------------------------------- layers


def phy_patches(rec: SpanRecorder) -> list:
    """Spans at the public entry point of every PHY layer."""
    from repro.lcm.response import LCResponseModel
    from repro.modem.dfe import DFEBlockSession, DFEDemodulator
    from repro.modem.preamble import Preamble, RotationCorrector
    from repro.obs import Observer
    from repro.phy.frame import FrameFormat
    from repro.phy.pipeline import PacketSimulator
    from repro.phy.receiver import PhyReceiver
    from repro.phy.streaming import StreamingReceiver
    from repro.phy.transmitter import PhyTransmitter
    from repro.training.online import OnlineTrainer

    def count_symbols(results) -> None:
        rec.counts["modem.dfe.symbols"] += sum(len(r.levels_i) for r in results)

    def count_push(_outputs) -> None:
        rec.counts["phy.streaming.pushes"] += 1

    return [
        (PacketSimulator, "measure_ber", timed(rec, "phy.pipeline")),
        (PhyTransmitter, "transmit", timed(rec, "phy.transmitter")),
        (LCResponseModel, "simulate", timed(rec, "lcm.response")),
        (PhyReceiver, "receive", timed(rec, "phy.receiver")),
        (Preamble, "detect", timed(rec, "modem.preamble.detect")),
        (Preamble, "offset_cost", timed(rec, "modem.preamble.coarse")),
        (RotationCorrector, "apply", timed(rec, "modem.preamble.rotation")),
        (OnlineTrainer, "solve_with_diagnostics", timed(rec, "training.online.solve")),
        (OnlineTrainer, "build_bank", timed(rec, "training.online.build_bank")),
        (DFEDemodulator, "demodulate", timed(rec, "modem.dfe")),
        (DFEDemodulator, "begin_block", timed(rec, "modem.dfe")),
        (DFEBlockSession, "feed", timed(rec, "modem.dfe")),
        (DFEBlockSession, "finish", timed(rec, "modem.dfe", after=count_symbols)),
        (FrameFormat, "decode_payload", timed(rec, "phy.frame.decode")),
        (StreamingReceiver, "push", timed(rec, "phy.streaming", after=count_push)),
        (StreamingReceiver, "close", timed(rec, "phy.streaming")),
        (Observer, "count", counted(rec, "obs.calls")),
        (Observer, "gauge", counted(rec, "obs.calls")),
        (Observer, "observe", counted(rec, "obs.calls")),
        (Observer, "span", counted(rec, "obs.calls")),
    ]


def fleet_patches(rec: SpanRecorder) -> list:
    """Spans over a fleet run, split at the event queue.

    ``FleetSimulator.run`` builds the fleet, then loops ``while len(queue):
    dispatch(queue.pop())``.  So the build is the time from entering ``run``
    to the first ``len`` call; each event lasts from its ``pop`` to the next
    ``len`` call and is named by the popped event's kind; the finish is the
    time from the ``len`` call that finds the queue empty to ``run``
    returning.  The ``pop`` itself is the event queue's own span.
    """
    from repro.network.core import EventQueue
    from repro.network.fleet import FleetSimulator
    from repro.network.linkstore import LinkStateStore

    state = {"run": -1, "phase": -1}

    def wrap_run(original):
        def run(self):
            state["run"] = rec.open("network.fleet.run")
            state["phase"] = rec.open("network.fleet.build")
            try:
                return original(self)
            finally:
                rec.close(state["run"])
                state["run"] = state["phase"] = -1

        return run

    def wrap_len(original):
        def length(self):
            n = original(self)
            if state["run"] >= 0:
                if state["phase"] >= 0:
                    rec.close(state["phase"])
                    state["phase"] = -1
                if n == 0:
                    state["phase"] = rec.open("network.fleet.finish")
            return n

        return length

    def wrap_pop(original):
        def pop(self):
            if state["run"] < 0:
                return original(self)
            index = rec.open("network.core.pop")
            try:
                event = original(self)
            finally:
                rec.close(index)
            rec.counts["network.core.events"] += 1
            if event.kind == "reassoc":
                rec.counts["network.fleet.reassoc_events"] += 1
            state["phase"] = rec.open("network.fleet." + event.kind)
            return event

        return pop

    def count_served(result) -> None:
        rec.counts["network.linkstore.served"] += result.n_served

    return [
        (FleetSimulator, "run", wrap_run),
        (EventQueue, "__len__", wrap_len),
        (EventQueue, "pop", wrap_pop),
        (LinkStateStore, "serve_round", timed(rec, "network.linkstore.serve", after=count_served)),
    ]


def layer_metrics(rec: SpanRecorder, n_ops: int, opcache_delta: tuple[int, int]) -> dict:
    """The per-layer metrics of one traced pass (zero for layers not run)."""
    dfe_busy = rec.busy("modem.dfe")
    symbols = rec.counts["modem.dfe.symbols"]
    detect_calls = rec.calls("modem.preamble.detect")
    solves = rec.calls("training.online.solve")
    hits, misses = opcache_delta
    lookups = hits + misses
    return {
        "modem.dfe.busy_s": (dfe_busy, "s"),
        "modem.dfe.symbols": (symbols, "count"),
        "modem.dfe.sym_per_s": (symbols / dfe_busy if dfe_busy > 0 else 0.0, "1/s"),
        "phy.transmitter.self_s": (rec.self_time("phy.transmitter"), "s"),
        "lcm.response.busy_s": (rec.busy("lcm.response"), "s"),
        "modem.preamble.coarse_busy_s": (rec.busy("modem.preamble.coarse"), "s"),
        "modem.preamble.detect_busy_s": (rec.busy("modem.preamble.detect"), "s"),
        "modem.preamble.detect_calls": (detect_calls, "count"),
        "modem.preamble.retries": (max(detect_calls - n_ops, 0), "count"),
        "modem.preamble.rotation_busy_s": (rec.busy("modem.preamble.rotation"), "s"),
        "training.online.busy_s": (
            rec.busy("training.online.solve") + rec.busy("training.online.build_bank"),
            "s",
        ),
        "training.online.fallbacks": (solves - rec.calls("training.online.build_bank"), "count"),
        "phy.frame.decode_busy_s": (rec.busy("phy.frame.decode"), "s"),
        "phy.receiver.self_s": (rec.self_time("phy.receiver"), "s"),
        "phy.pipeline.self_s": (rec.self_time("phy.pipeline"), "s"),
        "phy.streaming.self_s": (rec.self_time("phy.streaming"), "s"),
        "phy.streaming.pushes": (rec.counts["phy.streaming.pushes"], "count"),
        "phy.streaming.delegations": (rec.calls_under("phy.receiver", "phy.streaming"), "count"),
        "obs.calls": (rec.counts["obs.calls"], "count"),
        "utils.opcache.hits": (hits, "count"),
        "utils.opcache.misses": (misses, "count"),
        "utils.opcache.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "network.fleet.build_s": (rec.busy("network.fleet.build"), "s"),
        "network.fleet.finish_s": (rec.busy("network.fleet.finish"), "s"),
        "network.fleet.poll_round_s": (rec.busy("network.fleet.poll_round"), "s"),
        "network.linkstore.serve_busy_s": (rec.busy("network.linkstore.serve"), "s"),
        "network.linkstore.serve_calls": (rec.calls("network.linkstore.serve"), "count"),
        "network.linkstore.served": (rec.counts["network.linkstore.served"], "count"),
        "network.fleet.tag_check_s": (rec.busy("network.fleet.tag_check"), "s"),
        "network.fleet.reassoc_s": (rec.busy("network.fleet.reassoc"), "s"),
        "network.fleet.reassoc_events": (rec.counts["network.fleet.reassoc_events"], "count"),
        "network.core.events": (rec.counts["network.core.events"], "count"),
        "network.core.pop_busy_s": (rec.busy("network.core.pop"), "s"),
    }
