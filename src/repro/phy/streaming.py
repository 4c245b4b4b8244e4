"""Streaming chunked receiver: the §4.3 receive pipeline over a sample stream.

:class:`StreamingReceiver` wraps a :class:`~repro.phy.receiver.PhyReceiver`
and consumes the capture in arbitrary-sized chunks — down to single samples,
split anywhere including mid-preamble or mid-training — while emitting the
*identical* :class:`~repro.phy.receiver.ReceiverOutput` (failure, stage
events, stage metrics and raised exceptions included) that
``receiver.receive`` produces on the whole capture.  The stream runs no
stage of its own: a detector scans the incoming samples, then the
receiver's one stage sequence decodes the buffer.  The bit-identity is
pinned by ``tests/phy/test_streaming_equivalence.py`` and the golden walls.

**Capture model.**  A stream is a sequence of *captures* — the unit the
batch receiver decodes.  Captures are delimited either by a fixed
``capture_samples`` length (continuous ingest; the output can be emitted
mid-push, before the capture boundary) or by explicit
:meth:`StreamingReceiver.end_capture` calls.  Each capture yields exactly
one output, equal to ``receiver.receive(capture, search_start, search_stop)``
on the concatenated samples.

**Incremental preamble search.**  The batch detector's coarse scan is a
running ``min`` over slice-local costs (each candidate offset reads only
``x[off : off + k]`` — see :meth:`~repro.modem.preamble.Preamble.offset_cost`),
so the scan streams: a rolling ``(cost, offset)`` tuple-min advances as far
as the buffered samples allow after every chunk.  With a bounded search
window the scan *commits* once every coarse offset and the fine-pass margin
are buffered; the committed detection equals the batch first pass by
construction.  With an unbounded window the coarse minimum is handed to the
stage sequence at capture end as a ``coarse_offset`` hint, skipping the
re-scan.

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
_SCANNING = "scanning"  # pre-detection: incremental coarse scan running
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
        self._inner = receiver
        self.capture_samples = capture_samples
        self.search_start = int(search_start)
        self.search_stop = None if search_stop is None else int(search_stop)
        self.max_buffered_samples = max_buffered_samples
        self._obs = ensure_observer(observer) if observer is not None else receiver._obs
        self._backend = active_backend()

        self.packets_emitted = 0
        self.captures_completed = 0
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
        # Incremental coarse-scan state: the detector tail carried across
        # chunk boundaries.
        self._matched = None  # (y, skip, ref_power) of the primary search
        self._coarse_next = self.search_start
        self._coarse_best: tuple[float, int] | None = None
        self._detection: PreambleDetection | None = None  # committed first pass
        self._frame_end = 0  # buffered samples the committed frame needs

    @property
    def buffered_samples(self) -> int:
        """Samples currently held for the open capture."""
        return 0 if self._buf is None else self._buf.size

    # --------------------------------------------------------------- push

    def push(self, chunk) -> list[ReceiverOutput]:
        """Ingest one chunk (any length, including empty); return any outputs
        completed by it.

        In fixed-``capture_samples`` mode a chunk may span capture
        boundaries; each completed capture contributes its output in order.
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
        outputs: list[ReceiverOutput] = []
        pos = 0
        n = int(chunk.size)
        while pos < n:
            if self.capture_samples is None:
                take = n - pos
            else:
                take = min(n - pos, self.capture_samples - self._fill)
            self._ingest(chunk[pos : pos + take], outputs)
            pos += take
            if self.capture_samples is not None and self._fill >= self.capture_samples:
                outputs.extend(self._finalize_capture())
        if obs.enabled:
            obs.gauge("stream.buffered_samples", self.buffered_samples)
            self._emit_throughput()
        return outputs

    def end_capture(self) -> list[ReceiverOutput]:
        """Close the open capture explicitly and return its output (if any
        samples were ingested).  Only meaningful without ``capture_samples``.
        """
        if self._closed:
            raise RuntimeError("stream is closed")
        if self._fill == 0:
            return []
        outputs = self._finalize_capture()
        if self._obs.enabled:
            self._obs.gauge("stream.buffered_samples", self.buffered_samples)
            self._emit_throughput()
        return outputs

    def close(self) -> list[ReceiverOutput]:
        """End the stream, finalising any partially-ingested capture."""
        if self._closed:
            return []
        outputs = self.end_capture() if self._fill else []
        self._closed = True
        return outputs

    def run(self, chunks: Iterable[np.ndarray]) -> Iterator[ReceiverOutput]:
        """Generator front-end: drive the stream from a chunk iterable and
        yield outputs as captures complete (the Iris ``Receiver.run`` idiom).
        """
        for chunk in chunks:
            yield from self.push(chunk)
        yield from self.close()

    # ------------------------------------------------------------- ingest

    def _ingest(self, piece, outputs: list[ReceiverOutput]) -> None:
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
            self._drop_capture(outputs)
            return
        if self._state == _SCANNING:
            self._advance_scan()
        if self._state == _WAITING and self._buf.size >= self._frame_end:
            self._decode(outputs)

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

    # ---------------------------------------------------------------- scan

    def _advance_scan(self) -> None:
        """Advance the incremental coarse scan; commit detection when the
        batch detector's full first-pass window is buffered."""
        preamble = self._inner.frame.preamble
        if self._matched is None:
            self._matched = preamble.matched_reference()
        y, _skip, _ref_power = self._matched
        k = y.size
        x = self._buf.view()
        avail = self._buf.size
        stride = preamble.default_coarse_stride
        sstop = self.search_stop
        # The running tuple-min over (cost, offset) is exactly the batch
        # coarse pass's min(); evaluating each offset as soon as its slice
        # is buffered gives the same floats (slice-local costs).
        limit = avail - k
        while self._coarse_next <= limit and (sstop is None or self._coarse_next <= sstop):
            cand = (
                preamble.offset_cost(x, self._coarse_next, self._matched),
                self._coarse_next,
            )
            if self._coarse_best is None or cand < self._coarse_best:
                self._coarse_best = cand
            self._coarse_next += stride
        if sstop is None:
            return  # unbounded window: can only finalise at capture end
        if self.search_start > sstop:
            # Degenerate window: the batch detector raises "empty search
            # range" — the stage sequence reproduces it at capture end.
            self._state = _DEFER
            return
        if self._coarse_next <= sstop or avail < sstop + k:
            return  # scan or fine-pass margin still incomplete
        # Commit: the batch first-pass detection over any longer buffer is
        # now fully determined by the buffered prefix.
        inner = self._inner
        detection = preamble.detect(
            x,
            search_start=self.search_start,
            search_stop=sstop,
            coarse_offset=self._coarse_best[1],
        )
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

    def _decode(self, outputs: list[ReceiverOutput]) -> None:
        """Run the receiver's stages on the buffered prefix, which now holds
        the committed detection's whole frame."""
        x = self._backend.to_host(self._buf.view())
        self._emit(
            self._inner._run_stages(
                x, self.search_start, self.search_stop, detection=self._detection
            ),
            outputs,
        )

    def _emit(self, output: ReceiverOutput, outputs: list[ReceiverOutput]) -> None:
        """Deliver one capture output and release the capture buffer."""
        outputs.append(output)
        self.packets_emitted += 1
        self._state = _DONE
        self._buf = None  # bounded memory: the capture buffer dies here
        if self._obs.enabled:
            self._obs.count("stream.packets_emitted_total")

    def _finalize_capture(self) -> list[ReceiverOutput]:
        """Capture boundary: run the stages on the whole buffer unless the
        output was already emitted."""
        outputs: list[ReceiverOutput] = []
        try:
            if self._state != _DONE:
                x = self._backend.to_host(self._buf.view())
                hint = None if self._detection is not None else self._coarse_hint()
                self._emit(
                    self._inner._run_stages(
                        x,
                        self.search_start,
                        self.search_stop,
                        detection=self._detection,
                        coarse_offset=hint,
                    ),
                    outputs,
                )
        finally:
            # A raising capture (e.g. one shorter than the preamble, as in
            # batch) still closes, so the stream can continue.
            self.captures_completed += 1
            self._reset_capture()
        return outputs

    def _coarse_hint(self) -> int | None:
        """The incremental scan's coarse minimum, iff it covered exactly the
        offsets the batch first pass will scan (then the hint is an identity
        optimisation; otherwise the first pass re-scans from scratch)."""
        if self._coarse_best is None:
            return None
        y, skip, _ = self._matched
        stop = self._buf.size - y.size - skip
        if self.search_stop is not None:
            stop = min(self.search_stop, stop)
        if stop < self.search_start:
            return None
        best_off = self._coarse_best[1]
        if self._coarse_next <= stop or not self.search_start <= best_off <= stop:
            return None
        return best_off

    def _drop_capture(self, outputs: list[ReceiverOutput]) -> None:
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
            ),
            outputs,
        )
