"""Streaming chunked receiver: the §4.3 receive pipeline over a sample stream.

:class:`StreamingReceiver` wraps a :class:`~repro.phy.receiver.PhyReceiver`
and consumes the capture in arbitrary-sized chunks — down to single samples,
split anywhere including mid-preamble or mid-training — while emitting the
*identical* :class:`~repro.phy.receiver.ReceiverOutput` (failure, stage
events, stage metrics and raised exceptions included) that
``receiver.receive`` produces on the whole capture.  The stream runs no
stage of its own: the receiver's preamble search commits once its window
is buffered, then the receiver's one stage sequence decodes the buffer.
The bit-identity is pinned by ``tests/phy/test_streaming_equivalence.py``
and the golden walls.

**Capture model.**  A stream is a sequence of *captures* — the unit the
batch receiver decodes.  Captures are delimited either by a fixed
``capture_samples`` length (continuous ingest; the output can be emitted
mid-push, before the capture boundary) or by explicit
:meth:`StreamingReceiver.end_capture` calls.  Each capture yields exactly
one outcome, equal to ``receiver.receive(capture, search_start,
search_stop)`` on the concatenated samples: an output, or the exception
``receive`` raises.

**Delivery.**  A push ingests its whole chunk, whatever the captures in it
raise, and queues each capture's outcome in capture order.  A call
(:meth:`~StreamingReceiver.push`, :meth:`~StreamingReceiver.end_capture`,
:meth:`~StreamingReceiver.close`) returns the queued outputs ahead of the
first queued exception; with no output ahead of it, it raises that
exception.  What stays queued goes out on the next call, so a caller that
keeps calling after a raise (``close()`` included) gets every capture's
outcome and no pushed sample is lost.

**Commit by detect.**  The batch first pass,
:meth:`~repro.modem.preamble.Preamble.detect` over ``search_start ..
search_stop``, reads only ``x[search_start : search_stop + k]`` (``k`` the
reference length).  So with a bounded search window the stream *commits*
once ``search_stop + k`` samples are buffered: it runs that same ``detect``
on the buffered prefix, which is the batch first pass on the same samples.
An unbounded window is searched at the capture's end by the stage sequence,
as in batch.

**One certainty rule.**  The stages run once a committed detection's whole
frame is buffered.  Every stage reads only the frame's samples and rotation
correction is elementwise, so the stage sequence on the buffered prefix is
the batch decode; its output is emitted from that push.  Everything else
runs at the capture's end on the whole buffer: a hardened first-pass miss
(its retry ladder searches the whole capture), a frame that overruns a
fixed-length capture or a capture that ends short (the truncation ladder),
and a capture whose window never committed.

**Backpressure.**  By default the capture buffer grows to the capture size
(memory is O(capture), freed at the boundary).  ``max_buffered_samples``
arms a drop policy: a capture whose buffer exceeds the bound before a
detection commits is abandoned with a
``FailureReason(CAPTURE, "backpressure_drop")`` output and counted on
``stream.backpressure_drops`` — by construction this breaks equivalence for
that capture, so the default is off.

Observability: stage spans and metrics are the receiver's, on its observer;
the stream adds ``stream.*`` gauges — buffered samples, backpressure drops,
sustained emitted pkt/s — plus rolling AGC/normalisation state (running RMS
and DC estimates of the ingested samples; observational only, so the decode
stays bit-identical).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Iterable, Iterator

import numpy as np

from repro.errors import FailureReason, FailureStage
from repro.modem.preamble import PreambleDetection
from repro.obs import ensure_observer
from repro.phy.receiver import PhyReceiver, ReceiverOutput
from repro.utils.backend import active_backend
from repro.utils.logging import get_logger

__all__ = ["StreamingReceiver"]

log = get_logger(__name__)

# Capture-lifecycle states.
_SCANNING = "scanning"  # pre-detection: buffering the search window
_WAITING = "waiting"  # committed detection: waiting for its whole frame
_DEFER = "defer"  # decoded at capture end, on the whole buffer
_DONE = "done"  # output emitted; draining to the capture boundary


class _GrowBuffer:
    """An append-only complex sample buffer with amortised O(1) growth.

    Doubling capacity keeps total copy work linear in the capture size even
    under 1-sample pushes; ``view()`` is a zero-copy window of the valid
    prefix, which every detector/stage read slices (slice-locality is what
    makes those reads bit-identical to reads of the final whole buffer).
    """

    __slots__ = ("_data", "size", "_xp")

    def __init__(self, xp, initial_capacity: int = 4096):
        self._xp = xp
        self._data = xp.empty(max(int(initial_capacity), 1), dtype=complex)
        self.size = 0

    def append(self, chunk) -> None:
        xp = self._xp
        chunk = xp.asarray(chunk, dtype=complex)
        n = int(chunk.size)
        need = self.size + n
        if need > self._data.size:
            cap = self._data.size
            while cap < need:
                cap *= 2
            grown = xp.empty(cap, dtype=complex)
            grown[: self.size] = self._data[: self.size]
            self._data = grown
        self._data[self.size : need] = chunk
        self.size = need

    def view(self):
        """Zero-copy view of the buffered samples."""
        return self._data[: self.size]


class StreamingReceiver:
    """Chunked front-end over a :class:`PhyReceiver` (see module docstring).

    Parameters
    ----------
    receiver:
        The configured batch receiver whose outputs this stream reproduces.
    capture_samples:
        Fixed capture length for continuous ingest.  ``None`` means captures
        are delimited by :meth:`end_capture` calls instead.
    search_start, search_stop:
        The per-capture preamble search window, exactly as passed to
        :meth:`PhyReceiver.receive`.  A bounded ``search_stop`` is what
        enables mid-stream detection commit.
    max_buffered_samples:
        Optional backpressure bound on the pre-decode capture buffer (see
        module docstring).  ``None`` (default) preserves equivalence.
    observer:
        Registry of the ``stream.*`` gauges; defaults to the wrapped
        receiver's observer.  Stage spans and metrics always land on the
        receiver's own observer, as they do for ``receive``.
    """

    def __init__(
        self,
        receiver: PhyReceiver,
        capture_samples: int | None = None,
        search_start: int = 0,
        search_stop: int | None = None,
        max_buffered_samples: int | None = None,
        observer=None,
    ):
        if capture_samples is not None and capture_samples < 1:
            raise ValueError("capture_samples must be positive")
        if max_buffered_samples is not None and max_buffered_samples < 1:
            raise ValueError("max_buffered_samples must be positive")
        if search_start < 0:
            # The preamble search rejects it; a stream would reject it at
            # every push of every capture.
            raise ValueError("search_start must be non-negative")
        self._inner = receiver
        self.capture_samples = capture_samples
        self.search_start = int(search_start)
        self.search_stop = None if search_stop is None else int(search_stop)
        self.max_buffered_samples = max_buffered_samples
        self._obs = ensure_observer(observer) if observer is not None else receiver._obs
        self._backend = active_backend()

        self.packets_emitted = 0
        self.captures_completed = 0
        #: Capture outcomes not yet delivered, in capture order: a
        #: ReceiverOutput, or the exception the capture raised.
        self._pending: deque[ReceiverOutput | Exception] = deque()
        self._closed = False
        self._t_first_push: float | None = None

        # Rolling AGC/normalisation state (running first/second moments of
        # the ingested samples; observational only).
        self._agc_power_sum = 0.0
        self._agc_dc_sum = 0.0 + 0.0j
        self._agc_n = 0

        self._reset_capture()

    # ------------------------------------------------------- capture state

    def _reset_capture(self) -> None:
        self._buf: _GrowBuffer | None = None
        self._fill = 0  # samples ingested into the current capture
        self._state = _SCANNING
        self._detection: PreambleDetection | None = None  # committed first pass
        self._frame_end = 0  # buffered samples the committed frame needs

    @property
    def buffered_samples(self) -> int:
        """Samples currently held for the open capture."""
        return 0 if self._buf is None else self._buf.size

    # --------------------------------------------------------------- push

    def push(self, chunk) -> list[ReceiverOutput]:
        """Ingest one chunk (any length, including empty); deliver the
        outcomes of the captures it completed (see "Delivery" in the module
        docstring).

        In fixed-``capture_samples`` mode a chunk may span capture
        boundaries; each completed capture contributes its outcome in order.
        """
        if self._closed:
            raise RuntimeError("stream is closed")
        if self._t_first_push is None:
            self._t_first_push = time.monotonic()
        xp = self._backend.xp
        chunk = xp.asarray(chunk, dtype=complex)
        if chunk.ndim != 1:
            raise ValueError(f"chunk must be 1-D, got shape {chunk.shape}")
        obs = self._obs
        if obs.enabled:
            obs.count("stream.chunks_total")
            self._update_agc(chunk)
        pos = 0
        n = int(chunk.size)
        while pos < n:
            if self.capture_samples is None:
                take = n - pos
            else:
                take = min(n - pos, self.capture_samples - self._fill)
            self._ingest(chunk[pos : pos + take])
            pos += take
            if self.capture_samples is not None and self._fill >= self.capture_samples:
                self._finalize_capture()
        if obs.enabled:
            obs.gauge("stream.buffered_samples", self.buffered_samples)
            self._emit_throughput()
        return self._deliver()

    def end_capture(self) -> list[ReceiverOutput]:
        """Close the open capture explicitly (if any samples were ingested)
        and deliver queued outcomes.  Only meaningful without
        ``capture_samples``.
        """
        if self._closed:
            raise RuntimeError("stream is closed")
        self._end_open_capture()
        return self._deliver()

    def close(self) -> list[ReceiverOutput]:
        """End the stream, finalising any partially-ingested capture, and
        deliver queued outcomes; call again after a raise for the rest."""
        if not self._closed:
            self._end_open_capture()
            self._closed = True
        return self._deliver()

    def _end_open_capture(self) -> None:
        if self._fill == 0:
            return
        self._finalize_capture()
        if self._obs.enabled:
            self._obs.gauge("stream.buffered_samples", self.buffered_samples)
            self._emit_throughput()

    def _deliver(self) -> list[ReceiverOutput]:
        """Pop the queued outputs ahead of the first queued exception, or
        raise that exception when it heads the queue."""
        pending = self._pending
        if pending and isinstance(pending[0], Exception):
            raise pending.popleft()
        outputs = []
        while pending and not isinstance(pending[0], Exception):
            outputs.append(pending.popleft())
        return outputs

    def run(self, chunks: Iterable[np.ndarray]) -> Iterator[ReceiverOutput]:
        """Generator front-end: drive the stream from a chunk iterable and
        yield outputs as captures complete (the Iris ``Receiver.run`` idiom).
        """
        for chunk in chunks:
            yield from self.push(chunk)
        yield from self.close()

    # ------------------------------------------------------------- ingest

    def _ingest(self, piece) -> None:
        """Append one capture-local piece and advance the state machine."""
        self._fill += int(piece.size)
        if self._state == _DONE:
            return  # output already emitted; drain to the boundary
        if self._buf is None:
            self._buf = _GrowBuffer(self._backend.xp)
        self._buf.append(piece)
        if (
            self.max_buffered_samples is not None
            and self._state in (_SCANNING, _DEFER)
            and self._buf.size > self.max_buffered_samples
        ):
            self._drop_capture()
            return
        try:
            if self._state == _SCANNING:
                self._advance_scan()
            if self._state == _WAITING and self._buf.size >= self._frame_end:
                self._decode()
        except Exception as exc:
            # The capture raised once, as batch does: queue the exception in
            # its place and drain the capture to its boundary.
            self._emit(exc)

    def _update_agc(self, chunk) -> None:
        """Fold a chunk into the rolling AGC estimate and export gauges."""
        if chunk.size == 0:
            return
        backend = self._backend
        xp = backend.xp
        power = float(backend.scalar(xp.sum(chunk.real**2 + chunk.imag**2)))
        dc = complex(backend.scalar(xp.sum(chunk)))
        self._agc_power_sum += power
        self._agc_dc_sum += dc
        self._agc_n += int(chunk.size)
        obs = self._obs
        obs.gauge("stream.agc_rms", (self._agc_power_sum / self._agc_n) ** 0.5)
        obs.gauge("stream.agc_dc_mag", abs(self._agc_dc_sum / self._agc_n))

    def _emit_throughput(self) -> None:
        if self.packets_emitted and self._t_first_push is not None:
            elapsed = time.monotonic() - self._t_first_push
            if elapsed > 0:
                self._obs.gauge("stream.sustained_pps", self.packets_emitted / elapsed)

    # -------------------------------------------------------------- commit

    def _advance_scan(self) -> None:
        """Commit the batch first-pass detection once its search window is
        buffered."""
        sstop = self.search_stop
        if sstop is None:
            return  # unbounded window: searched at capture end
        if self.search_start > sstop:
            # Degenerate window: the batch detector raises "empty search
            # range" — the stage sequence reproduces it at capture end.
            self._state = _DEFER
            return
        inner = self._inner
        preamble = inner.frame.preamble
        if self._buf.size < sstop + preamble.n_samples:
            return
        detection = preamble.detect(self._buf.view(), self.search_start, sstop)
        self._detection = detection
        self._frame_end = detection.offset + inner.frame_samples_after_offset()
        if (not detection.detected and inner.hardened) or (
            self.capture_samples is not None and self._frame_end > self.capture_samples
        ):
            # The retry ladder searches the whole capture, and a frame that
            # overruns the capture runs the truncation ladder on all of it.
            self._state = _DEFER
        else:
            self._state = _WAITING

    # -------------------------------------------------------------- decode

    def _decode(self) -> None:
        """Run the receiver's stages on the buffered prefix, which now holds
        the committed detection's whole frame."""
        x = self._backend.to_host(self._buf.view())
        self._emit(
            self._inner._run_stages(
                x, self.search_start, self.search_stop, detection=self._detection
            )
        )

    def _emit(self, outcome: ReceiverOutput | Exception) -> None:
        """Queue the capture's one outcome and release the capture buffer."""
        self._pending.append(outcome)
        self._state = _DONE
        self._buf = None  # bounded memory: the capture buffer dies here
        if isinstance(outcome, Exception):
            return
        self.packets_emitted += 1
        if self._obs.enabled:
            self._obs.count("stream.packets_emitted_total")

    def _finalize_capture(self) -> None:
        """Capture boundary: run the stages on the whole buffer unless the
        capture's outcome is already queued."""
        if self._state != _DONE:
            x = self._backend.to_host(self._buf.view())
            try:
                output = self._inner._run_stages(
                    x, self.search_start, self.search_stop, detection=self._detection
                )
            except Exception as exc:
                # A raising capture (e.g. one shorter than the preamble, as
                # in batch) still closes, so the stream can continue.
                output = exc
            self._emit(output)
        self.captures_completed += 1
        self._reset_capture()

    def _drop_capture(self) -> None:
        """Backpressure: abandon the capture (policy, not equivalence)."""
        obs = self._obs
        obs.count("stream.backpressure_drops")
        log.warning(
            "backpressure: dropping capture with %d buffered samples (bound %d)",
            self._buf.size,
            self.max_buffered_samples,
        )
        self._emit(
            self._inner._failure_output(
                PreambleDetection.miss(),
                FailureReason(
                    FailureStage.CAPTURE,
                    "backpressure_drop",
                    f"buffered {self._fill} samples above bound {self.max_buffered_samples}",
                ),
                [],
            )
        )
