"""Reader-side PHY: samples -> detection -> training -> equalisation -> bits.

Implements the full receive pipeline of paper §4.3 on a corrected sample
stream: preamble detection with rotation correction, per-packet online
channel training over the offline KL bases, and K-branch DFE demodulation
primed with the known training tail.

The receiver is *hardened* by default: every stage either succeeds, recovers
through a bounded degradation ladder, or reports a typed
:class:`~repro.errors.FailureReason` — it never raises on channel-induced
damage and never silently fabricates payload bytes.  The ladder:

1. **Detection** — on a failed preamble search, retry once over the full
   capture, then once more matching only the preamble's tail (survives a
   burst that obliterated the preamble's head).  A detection whose frame
   would overrun the capture triggers a fit-constrained re-search before
   being classified as a truncated capture.
2. **Training** — an online solve that is rank-deficient, non-finite, or
   whose residual far exceeds the noise floor implied by the detection SNR
   falls back to the nominal reference bank instead of demodulating with a
   poisoned one.
3. **Equalisation/decode** — demodulator errors are classified, and a CRC
   mismatch is recorded as a decode-stage failure reason.

Pass ``hardened=False`` for the original fragile behaviour (used by tests
to demonstrate the recovery ladder's value).

The stage sequence lives in one method, :meth:`PhyReceiver._run_stages`:
:meth:`PhyReceiver.receive` runs it on a whole capture, and the streaming
receiver (:mod:`repro.phy.streaming`) runs it on its buffer once a
detection's frame has arrived or the capture has ended.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import EqualizationError, FailureReason, FailureStage, StageEvent
from repro.lcm.fingerprint import FingerprintTable
from repro.modem.dfe import DFEDemodulator
from repro.modem.preamble import PreambleDetection
from repro.modem.references import ReferenceBank
from repro.obs import ensure_observer
from repro.phy.frame import FrameFormat
from repro.training.online import OnlineTrainer
from repro.utils.logging import get_logger

__all__ = ["PhyReceiver", "ReceiverOutput"]

log = get_logger(__name__)


@dataclass
class ReceiverOutput:
    """Everything the receiver learned from one packet.

    ``failure`` is ``None`` only for a clean decode; ``events`` is the
    per-stage audit trail (including recoveries that still ended in a clean
    decode).
    """

    payload: bytes
    crc_ok: bool
    detection: PreambleDetection
    snr_est_db: float
    levels_i: np.ndarray
    levels_q: np.ndarray
    equalizer_mse: float
    failure: FailureReason | None = None
    events: list[StageEvent] = field(default_factory=list)


class PhyReceiver:
    """A reader configured for one frame format.

    Parameters
    ----------
    frame:
        Frame format (must match the transmitter's).
    basis_tables:
        Offline-training output: the KL basis tables online training will
        fit per group.  A single nominal table (S = 1) is the cheap default.
    k_branches:
        DFE beam width.
    online_training:
        Disable to demodulate straight off the nominal bank (ablation knob
        for the Fig 16c / 17b studies).
    fixed_bank:
        Bypass training entirely with a caller-provided bank (e.g. the
        genie bank in tests).
    fallback_tables:
        Nominal fingerprint tables backing the degraded-mode reference
        bank; defaults to ``basis_tables[0]`` (correct when S = 1, but
        callers running KL bases should pass the true nominal table).
    hardened:
        Enable the recovery ladder (retry / fallback / classify).  With
        ``False`` the receiver reproduces the original fragile behaviour:
        no retries, no training fallback, and a truncated detected packet
        raises ``ValueError``.
    max_detection_retries:
        Bound on fallback preamble searches (0-2).
    training_residual_factor / training_residual_floor:
        The trained bank is rejected when the solve's residual ratio
        exceeds ``factor * (10^(-snr/10) + floor)`` — i.e. far above the
        noise floor the detection SNR predicts.
    opcache:
        Operating-point artifact cache (:mod:`repro.utils.opcache`),
        forwarded to the online trainer so the training design matrix and
        its factorization are derived once per operating point.
    """

    def __init__(
        self,
        frame: FrameFormat,
        basis_tables: list[FingerprintTable],
        k_branches: int = 16,
        online_training: bool = True,
        fixed_bank: ReferenceBank | None = None,
        fallback_tables: list[FingerprintTable] | None = None,
        hardened: bool = True,
        max_detection_retries: int = 2,
        training_residual_factor: float = 10.0,
        training_residual_floor: float = 0.02,
        observer=None,
        opcache=None,
    ):
        self.frame = frame
        self.config = frame.config
        self.basis_tables = basis_tables
        self.k_branches = k_branches
        self.online_training = online_training
        self.fixed_bank = fixed_bank
        self.hardened = hardened
        self.max_detection_retries = max_detection_retries
        self.training_residual_factor = training_residual_factor
        self.training_residual_floor = training_residual_floor
        self._obs = ensure_observer(observer)
        self._trainer = OnlineTrainer(
            self.config,
            basis_tables,
            frame.training,
            preceding_levels=frame.preamble.levels,
            observer=self._obs,
            opcache=opcache,
        )
        nominal_source = (fallback_tables or basis_tables)[0]
        self._nominal_bank = ReferenceBank.from_unit_table(self.config, nominal_source)

    def install_reference(self, preamble_reference: np.ndarray) -> None:
        """Install the offline-recorded preamble reference waveform."""
        self.frame.preamble.install_reference(preamble_reference)

    # ----------------------------------------------------------- internals

    def _event(
        self,
        events: list[StageEvent],
        stage: FailureStage,
        status: str,
        detail: str = "",
    ) -> None:
        """Record one stage outcome on the audit trail *and* the metrics.

        The span tracer carries timing; this counter series carries the
        outcome taxonomy (the labelled successor of raw StageEvent lists).
        """
        events.append(StageEvent(stage, status, detail))
        self._obs.count("phy.stage_events_total", stage=stage.value, status=status)

    def frame_samples_after_offset(self) -> int:
        """Samples needed from the preamble start to the payload's end.

        Public because the streaming receiver waits until a committed
        detection's whole frame is buffered before running the stages.
        """
        frame = self.frame
        ts = self.config.samples_per_slot
        return (frame.preamble_slots + frame.training.n_slots + frame.payload_slots) * ts

    def _failure_output(
        self,
        detection: PreambleDetection,
        failure: FailureReason,
        events: list[StageEvent],
    ) -> ReceiverOutput:
        """A classified loss: no payload bytes, never zero-padding."""
        self._event(events, failure.stage, "failed", failure.code)
        log.info("packet lost: %s", failure)
        return ReceiverOutput(
            payload=b"",
            crc_ok=False,
            detection=detection,
            snr_est_db=detection.snr_db,
            levels_i=np.zeros(0, dtype=int),
            levels_q=np.zeros(0, dtype=int),
            equalizer_mse=float("inf"),
            failure=failure,
            events=events,
        )

    def _retry_detection(
        self,
        x: np.ndarray,
        detection: PreambleDetection,
        events: list[StageEvent],
    ) -> PreambleDetection:
        """The bounded fallback ladder after a first-pass search over ``x``."""
        if detection.detected or not self.hardened:
            if detection.detected:
                self._event(events, FailureStage.DETECTION, "ok")
            return detection
        frame = self.frame
        retries = []
        # Retry 1: the caller's window may simply have been too narrow.
        retries.append(("widened search window", dict(search_start=0, search_stop=None)))
        # Retry 2: match only the preamble tail — survives a corrupted head.
        tail_slots = max(frame.preamble.n_slots // 2, 2 * self.config.dsm_order)
        if tail_slots < frame.preamble.n_slots:
            retries.append(
                (
                    "tail-reference search",
                    dict(search_start=0, search_stop=None, reference_tail_slots=tail_slots),
                )
            )
        for detail, kwargs in retries[: self.max_detection_retries]:
            try:
                retry = frame.preamble.detect(x, **kwargs)
            except ValueError:
                continue
            if retry.detected:
                self._event(events, FailureStage.DETECTION, "retried", detail)
                log.info("preamble recovered via %s at offset %d", detail, retry.offset)
                return retry
        return detection

    def _train_bank(
        self,
        segment: np.ndarray,
        snr_db: float,
        events: list[StageEvent],
    ) -> ReferenceBank:
        """Online training with the ill-conditioned-solve fallback on the
        corrected training span ``segment``."""
        if not self.hardened:
            return self._trainer.train(segment)
        try:
            coefficients, diag = self._trainer.solve_with_diagnostics(segment)
        except (ValueError, np.linalg.LinAlgError) as exc:
            self._event(events, FailureStage.TRAINING, "fallback", f"solve failed: {exc}")
            log.warning("online training failed (%s); using nominal bank", exc)
            return self._nominal_bank
        noise_ratio = 10.0 ** (-snr_db / 10.0) if np.isfinite(snr_db) else 1.0
        limit = self.training_residual_factor * (noise_ratio + self.training_residual_floor)
        if not diag.finite or diag.rank_deficient:
            self._event(
                events,
                FailureStage.TRAINING,
                "fallback",
                f"ill-conditioned solve (rank {diag.rank}/{diag.n_columns})",
            )
            log.warning("online training ill-conditioned; using nominal bank")
            return self._nominal_bank
        if diag.residual_ratio > limit:
            self._event(
                events,
                FailureStage.TRAINING,
                "fallback",
                f"residual {diag.residual_ratio:.3g} above limit {limit:.3g}",
            )
            log.warning(
                "online training residual %.3g exceeds limit %.3g; using nominal bank",
                diag.residual_ratio,
                limit,
            )
            return self._nominal_bank
        self._event(events, FailureStage.TRAINING, "ok")
        return self._trainer.build_bank(coefficients)

    # ------------------------------------------------------------- receive

    def receive(
        self,
        x: np.ndarray,
        search_start: int = 0,
        search_stop: int | None = None,
    ) -> ReceiverOutput:
        """Run the full pipeline on one whole capture of raw receiver samples."""
        return self._run_stages(np.asarray(x, dtype=complex), search_start, search_stop)

    def _run_stages(
        self,
        x: np.ndarray,
        search_start: int,
        search_stop: int | None,
        detection: PreambleDetection | None = None,
    ) -> ReceiverOutput:
        """The stage sequence on capture buffer ``x`` (a complex host array).

        ``detection`` is a first-pass search over ``x`` that already ran
        (the streaming receiver commits one mid-stream); without it the
        first pass runs here.  Both receivers decode through this one
        method.
        """
        frame = self.frame
        cfg = self.config
        ts = cfg.samples_per_slot
        events: list[StageEvent] = []
        obs = self._obs
        with obs.span("preamble") as det_span:
            if detection is None:
                detection = frame.preamble.detect(
                    x, search_start=search_start, search_stop=search_stop
                )
            detection = self._retry_detection(x, detection, events)
            if obs.enabled:
                det_span.annotate(detected=detection.detected, offset=int(detection.offset))
                obs.count(
                    "phy.preamble.searches_total",
                    outcome="hit" if detection.detected else "miss",
                )
                if not detection.detected:
                    det_span.set_status("failed", "preamble_not_found")
        if self.hardened and not detection.detected:
            return self._failure_output(
                detection,
                FailureReason(
                    FailureStage.DETECTION,
                    "preamble_not_found",
                    f"best normalised cost {detection.normalised_cost:.3g}",
                ),
                events,
            )

        needed = self.frame_samples_after_offset()
        if detection.offset + needed > x.size:
            if not self.hardened:
                if detection.detected:
                    raise ValueError(
                        f"packet truncated: need {detection.offset + needed} samples, "
                        f"have {x.size}"
                    )
                # A failed detection latched onto noise near the end of the
                # capture; report a lost packet instead of crashing.
                return ReceiverOutput(
                    payload=bytes(frame.payload_bytes),
                    crc_ok=False,
                    detection=detection,
                    snr_est_db=detection.snr_db,
                    levels_i=np.zeros(frame.payload_slots, dtype=int),
                    levels_q=np.zeros(frame.payload_slots, dtype=int),
                    equalizer_mse=float("inf"),
                    failure=FailureReason(FailureStage.DETECTION, "preamble_not_found"),
                    events=events,
                )
            # Perhaps a late false latch: re-search among offsets where a
            # complete frame still fits in the capture.
            recovered = None
            max_offset = x.size - needed
            if max_offset >= 0:
                try:
                    retry = frame.preamble.detect(x, search_start=0, search_stop=max_offset)
                except ValueError:
                    retry = None
                if retry is not None and retry.detected:
                    recovered = retry
            if recovered is None:
                return self._failure_output(
                    detection,
                    FailureReason(
                        FailureStage.CAPTURE,
                        "truncated_capture",
                        f"need {detection.offset + needed} samples, have {x.size}",
                    ),
                    events,
                )
            self._event(events, FailureStage.DETECTION, "retried", "fit-constrained re-search")
            log.info("frame overran capture; re-detected at offset %d", recovered.offset)
            detection = recovered

        with obs.span("rotation"):
            corrected = detection.corrector.apply(x)
        preamble_end = detection.offset + frame.preamble_slots * ts
        training_end = preamble_end + frame.training.n_slots * ts
        payload_end = training_end + frame.payload_slots * ts

        if self.fixed_bank is not None:
            bank = self.fixed_bank
        elif self.online_training:
            with obs.span("training") as train_span:
                bank = self._train_bank(
                    corrected[preamble_end:training_end], detection.snr_db, events
                )
                if obs.enabled and bank is self._nominal_bank:
                    train_span.set_status("fallback", "nominal bank")
        else:
            bank = self._nominal_bank

        try:
            with obs.span("equalize") as eq_span:
                dfe = DFEDemodulator(bank, k_branches=self.k_branches, observer=obs)
                result = dfe.demodulate(
                    corrected[training_end:payload_end],
                    frame.payload_slots,
                    prime_levels=frame.prime_levels(),
                )
                if obs.enabled:
                    eq_span.annotate(mse=result.mse, n_branches=result.n_branches)
            with obs.span("decode"):
                payload, crc_ok = frame.decode_payload(result.levels_i, result.levels_q)
        except (EqualizationError, ValueError, np.linalg.LinAlgError) as exc:
            if not self.hardened:
                raise
            code = (
                "equalization_error" if isinstance(exc, EqualizationError) else "demodulator_error"
            )
            return self._failure_output(
                detection,
                FailureReason(FailureStage.EQUALIZATION, code, str(exc)),
                events,
            )
        self._event(events, FailureStage.EQUALIZATION, "ok")
        failure = None
        if not crc_ok:
            failure = FailureReason(FailureStage.DECODE, "crc_mismatch")
            self._event(events, FailureStage.DECODE, "failed", "crc_mismatch")
        else:
            self._event(events, FailureStage.DECODE, "ok")
        return ReceiverOutput(
            payload=payload,
            crc_ok=crc_ok,
            detection=detection,
            snr_est_db=detection.snr_db,
            levels_i=result.levels_i,
            levels_q=result.levels_q,
            equalizer_mse=result.mse,
            failure=failure,
            events=events,
        )
