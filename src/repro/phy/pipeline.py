"""End-to-end packet simulation: the workhorse behind every BER experiment.

``PacketSimulator`` wires together a (heterogeneous) tag array, the optical
link, and the full receiver pipeline, and measures bit error rates the way
the paper does (§7.1: 30 packets of 128 bytes per data point; a link is
"reliable" below 1% BER).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.channel.link import OpticalLink
from repro.errors import FailureReason, StageEvent
from repro.faults.plan import FaultContext, FaultPlan
from repro.lcm.array import LCMArray
from repro.lcm.heterogeneity import HeterogeneityModel
from repro.modem.config import ModemConfig
from repro.modem.references import ReferenceBank
from repro.obs import ensure_observer
from repro.phy.frame import FrameFormat
from repro.phy.receiver import PhyReceiver
from repro.phy.transmitter import PhyTransmitter
from repro.training.offline import OfflineTrainer
from repro.utils.bits import bit_errors, bytes_to_bits
from repro.utils.opcache import fingerprint, fingerprint_array, fingerprint_config, resolve_opcache
from repro.utils.rng import ensure_rng

__all__ = ["CaptureSpec", "PacketResult", "PacketSimulator"]


@dataclass
class CaptureSpec:
    """One synthesized reader capture, ready for any receive front-end.

    ``samples`` is exactly what :meth:`PacketSimulator.run_packet` hands
    the batch receiver; ``search_stop`` the preamble window it pairs with.
    The streaming receiver consumes the same capture chunk-wise.
    """

    samples: np.ndarray
    payload: bytes
    search_stop: int
    offset: int
    link_snr_db: float


@dataclass
class PacketResult:
    """Outcome of one simulated packet.

    A lost packet (undetected, truncated, demodulator failure) is scored
    as *all bits errored* and carries the receiver's classified
    ``failure`` — it is never silently scored against fabricated padding.
    """

    ber: float
    n_bit_errors: int
    n_bits: int
    detected: bool
    crc_ok: bool
    snr_link_db: float
    snr_est_db: float
    equalizer_mse: float
    failure: FailureReason | None = None
    events: list[StageEvent] = field(repr=False, default_factory=list)

    @property
    def lost(self) -> bool:
        """True when no payload was recovered at all."""
        return self.n_bit_errors == self.n_bits and not self.crc_ok


@dataclass
class BERMeasurement:
    """Aggregate over a batch of packets (one experiment data point)."""

    ber: float
    n_packets: int
    n_bits: int
    n_bit_errors: int
    packet_error_rate: float
    detection_rate: float
    mean_snr_est_db: float
    results: list[PacketResult] = field(repr=False, default_factory=list)

    @property
    def reliable(self) -> bool:
        """The paper's reliability criterion: BER below 1%."""
        return self.ber < 0.01


class PacketSimulator:
    """A configured tag + link + reader, ready to push packets through.

    Parameters
    ----------
    config:
        Modem operating point.
    link:
        Channel (geometry, budget, ambient, mobility, front-end).
    heterogeneity:
        Pixel spread of the tag under test.
    payload_bytes / preamble_slots / training_rounds:
        Frame sizing (defaults are sim-friendly; the paper's timing is
        available through ``FrameFormat.paper_default``).
    bank_mode:
        ``"trained"`` (offline KL bases + per-packet online training, the
        paper's receiver), ``"nominal"`` (offline reference only — the
        ablation of Fig 16c/17b), or ``"genie"`` (exact per-pixel
        references, perfect-knowledge upper bound).
    n_bases:
        KL basis count S for ``"trained"`` mode.
    k_branches:
        DFE beam width.
    fault_plan:
        Optional :class:`repro.faults.plan.FaultPlan`.  Tag-stage injectors
        (dead/stuck pixels) mutate the tag once at construction; capture-
        stage injectors impair every packet's sample stream before the
        receiver sees it.
    hardened:
        Passed through to :class:`repro.phy.receiver.PhyReceiver`; disable
        to run the original fragile receiver (for ablation/regression
        comparisons).
    observer:
        Optional :class:`repro.obs.Observer`; when given, every packet
        records per-stage spans and the metric series catalogued in
        DESIGN.md §9.  ``None`` (default) is the no-op singleton.
    fidelity / polarization:
        Polarization rung of the *tag under test* (see
        :class:`repro.lcm.array.LCMArray`): ``"malus"`` (default, the
        frozen paper model), ``"jones"`` or ``"stokes"`` with an optional
        ``PolarStackConfig``.  The reader's nominal references always
        assume the Malus model — running a higher rung therefore measures
        the emulation error a real reader would suffer against dispersive,
        leaky hardware.
    rng:
        Seeds the tag's heterogeneity draw and yaw illumination spread.
    opcache:
        Operating-point artifact cache (:mod:`repro.utils.opcache`).
        ``True`` (default) shares the process-global cache — repeated
        simulators at the same operating point reuse unit tables, the TX
        prefix waveform, the preamble reference, and the training
        factorization.  ``False``/``None`` disables caching; an
        :class:`~repro.utils.opcache.OpCache` instance scopes it.  Results
        are bit-identical either way (keys are content fingerprints and
        cached artifacts are replayed, not approximated).
    """

    def __init__(
        self,
        config: ModemConfig | None = None,
        link: OpticalLink | None = None,
        heterogeneity: HeterogeneityModel | None = None,
        payload_bytes: int = 32,
        preamble_slots: int | None = None,
        training_rounds: int | None = None,
        bank_mode: str = "trained",
        n_bases: int = 2,
        k_branches: int = 16,
        codec=None,
        fault_plan: FaultPlan | None = None,
        hardened: bool = True,
        observer=None,
        rng: np.random.Generator | int | None = None,
        opcache=True,
        fidelity: str = "malus",
        polarization=None,
    ):
        if bank_mode not in ("trained", "nominal", "genie"):
            raise ValueError(f"unknown bank_mode {bank_mode!r}")
        gen = ensure_rng(rng)
        self._obs = ensure_observer(observer)
        self._opcache = resolve_opcache(opcache)
        self.config = config or ModemConfig()
        if link is None:
            from repro.optics.geometry import LinkGeometry

            link = OpticalLink(geometry=LinkGeometry(distance_m=2.0))
        self.link = link
        self.bank_mode = bank_mode
        self.fault_plan = fault_plan
        het = heterogeneity if heterogeneity is not None else HeterogeneityModel()

        # --- tag under test (heterogeneous, yaw-perturbed) ---------------
        self.array = LCMArray.build(
            groups_per_channel=self.config.dsm_order,
            levels_per_group=self.config.levels_per_axis,
            heterogeneity=het,
            rng=gen,
            fidelity=fidelity,
            polarization=polarization,
        )
        yaw_gains = link.geometry.sample_yaw_pixel_gains(self.array.n_pixels, gen)
        for pixel, g in zip(self.array.pixels, yaw_gains):
            pixel.gain *= float(g)
        # Permanent tag hardware defects (dead/stuck pixels) apply here so
        # the transmitter and any genie bank see the faulted hardware.
        if fault_plan is not None:
            pre_fault_fp = (
                fingerprint_array(self.array) if self._opcache is not None else None
            )
            fault_plan.apply_tag(self.array, gen)
            if self._opcache is not None:
                # Content keys already make stale hits impossible; this
                # sweeps the pre-fault array's artifacts out of capacity.
                self._opcache.invalidate(token=pre_fault_fp)
        # Rebuild the cached amplitude vectors after mutating gains.  The
        # fidelity rung rides along; params are already temperature-scaled
        # by build(), so re-wrapping never double-scales.
        self.array = LCMArray(
            self.array.groups,
            params=self.array.params,
            fidelity=self.array.fidelity,
            polarization=self.array.polarization,
        )

        self.frame = FrameFormat(
            self.config,
            payload_bytes=payload_bytes,
            preamble_slots=preamble_slots,
            training_rounds=training_rounds,
            codec=codec,
        )
        self.transmitter = PhyTransmitter(self.frame, self.array, opcache=self._opcache)

        # --- reader-side offline artifacts (nominal tag) ------------------
        nominal_array = LCMArray.build(
            groups_per_channel=self.config.dsm_order,
            levels_per_group=self.config.levels_per_axis,
        )
        from repro.modem.dsm_pqam import DsmPqamModulator

        nominal_modulator = DsmPqamModulator(self.config, nominal_array)

        offline = OfflineTrainer(self.config, observer=self._obs, opcache=self._opcache)
        if bank_mode == "trained" and n_bases > 1:
            scales = [0.85, 0.95, 1.0, 1.05, 1.15]
            tables = offline.collect_condition_tables(time_scales=scales)
            bases, _ = offline.extract_bases(tables, n_bases=n_bases)
            fallback = [tables[scales.index(1.0)]]
        else:
            tables = offline.collect_condition_tables(time_scales=[1.0])
            bases = tables
            fallback = tables

        fixed_bank = (
            ReferenceBank.genie(self.config, self.array, opcache=self._opcache)
            if bank_mode == "genie"
            else None
        )
        self.receiver = PhyReceiver(
            self.frame,
            basis_tables=bases,
            k_branches=k_branches,
            online_training=(bank_mode == "trained"),
            fixed_bank=fixed_bank,
            fallback_tables=fallback,
            hardened=hardened,
            observer=self._obs,
            opcache=self._opcache,
        )
        if bank_mode == "genie":
            # Perfect channel knowledge includes the tag's own preamble
            # waveform; the corrector then only undoes roll/AGC/offset.
            self.frame.preamble.record_reference(self.transmitter.modulator)
        elif self._opcache is not None:
            # The nominal preamble reference depends only on the operating
            # point (config + the canonical nominal array), not on this
            # simulator's heterogeneous tag.
            pre_i, pre_q = self.frame.preamble.levels
            key = (fingerprint_config(self.config), fingerprint([pre_i, pre_q]))
            ref = self._opcache.get(
                "preamble_reference",
                key,
                lambda: nominal_modulator.waveform_for_levels(pre_i, pre_q)[
                    : self.frame.preamble.n_samples
                ],
            )
            self.frame.preamble.install_reference(ref)
        else:
            self.frame.preamble.record_reference(nominal_modulator)

    # ----------------------------------------------------------------- run

    def run_packet(
        self,
        payload: bytes | None = None,
        rng: np.random.Generator | int | None = None,
        lead_slots: int = 4,
    ) -> PacketResult:
        """Simulate one packet end to end and score it."""
        obs = self._obs
        with obs.span("packet") as packet_span:
            cap = self.make_capture(payload=payload, rng=rng, lead_slots=lead_slots)
            payload = cap.payload
            out_snr_db = cap.link_snr_db
            rx = self.receiver.receive(
                cap.samples, search_start=0, search_stop=cap.search_stop
            )

            sent_bits = bytes_to_bits(payload)
            if len(rx.payload) == len(payload) and rx.detection.detected:
                got_bits = bytes_to_bits(rx.payload)
                errors = bit_errors(sent_bits, got_bits)
            else:
                # Lost packet (no detection, or a classified receiver failure
                # with no recovered bytes): every bit counts as errored — never
                # score fabricated zero padding as received data.
                errors = int(sent_bits.size)
            if obs.enabled:
                m = obs.metrics
                m.count("phy.packets_total", crc="ok" if rx.crc_ok else "fail")
                m.count("phy.bits_total", sent_bits.size)
                m.count("phy.bit_errors_total", errors)
                m.observe("phy.packet_ber", errors / sent_bits.size)
                m.observe("link.snr_db", out_snr_db)
                if np.isfinite(rx.snr_est_db):
                    m.observe("phy.snr_est_db", rx.snr_est_db)
                if np.isfinite(rx.equalizer_mse):
                    m.observe("phy.equalizer_mse", rx.equalizer_mse)
                packet_span.annotate(
                    crc_ok=rx.crc_ok, ber=errors / sent_bits.size, detected=rx.detection.detected
                )
                if rx.failure is not None:
                    packet_span.set_status("failed", str(rx.failure))
        return PacketResult(
            ber=errors / sent_bits.size,
            n_bit_errors=errors,
            n_bits=int(sent_bits.size),
            detected=rx.detection.detected,
            crc_ok=rx.crc_ok,
            snr_link_db=out_snr_db,
            snr_est_db=rx.snr_est_db,
            equalizer_mse=rx.equalizer_mse,
            failure=rx.failure,
            events=rx.events,
        )

    def make_capture(
        self,
        payload: bytes | None = None,
        rng: np.random.Generator | int | None = None,
        lead_slots: int = 4,
    ) -> CaptureSpec:
        """Synthesize one reader capture (transmit + channel + faults).

        Extracted from the packet loop so alternative receive front-ends
        (the streaming receiver, benchmarks) consume byte-identical
        captures: the RNG draw order matches `run_packet`'s exactly, so
        the same seed produces the same capture either way.
        """
        obs = self._obs
        gen = ensure_rng(rng)
        if payload is None:
            payload = gen.integers(0, 256, size=self.frame.payload_bytes, dtype=np.uint8).tobytes()
        with obs.span("transmit"):
            u = self.transmitter.transmit(payload)
        # Random start offset: the reader sees some idle pedestal first.
        # A short trailing stretch keeps slightly-late detections (noisy
        # timing) inside the capture instead of truncating the packet.
        ts = self.config.samples_per_slot
        offset = int(gen.integers(0, max(lead_slots, 1))) * ts + int(gen.integers(0, ts))
        lead = np.full(offset, u[0], dtype=complex)
        tail = np.full(2 * ts, u[-1], dtype=complex)
        with obs.span("channel"):
            out = self.link.transmit(np.concatenate([lead, u, tail]), self.config.fs, gen)
            samples = out.samples
            if self.fault_plan is not None:
                samples = self.fault_plan.apply_capture(
                    samples, self._fault_context(offset, samples), gen
                )
        guard_samples = self.frame.guard_slots * ts
        search_stop = offset + guard_samples + 2 * ts
        return CaptureSpec(
            samples=samples,
            payload=payload,
            search_stop=search_stop,
            offset=offset,
            link_snr_db=out.snr_db,
        )

    def make_streaming_receiver(self, **kwargs):
        """A :class:`~repro.phy.streaming.StreamingReceiver` over this
        simulator's configured receiver (chunked front-end; see
        :mod:`repro.phy.streaming`)."""
        from repro.phy.streaming import StreamingReceiver

        return StreamingReceiver(self.receiver, **kwargs)

    def _fault_context(self, frame_start: int, samples: np.ndarray) -> FaultContext:
        """Frame geometry of this capture, for capture-stage injectors."""
        frame = self.frame
        ts = self.config.samples_per_slot
        preamble_start = frame_start + frame.guard_slots * ts
        preamble_end = preamble_start + frame.preamble_slots * ts
        training_end = preamble_end + frame.training.n_slots * ts
        payload_end = training_end + frame.payload_slots * ts
        return FaultContext(
            fs=self.config.fs,
            samples_per_slot=ts,
            frame_start=frame_start,
            preamble_start=preamble_start,
            preamble_end=preamble_end,
            training_start=preamble_end,
            training_end=training_end,
            payload_start=training_end,
            payload_end=payload_end,
            n_samples=samples.size,
        )

    def measure_ber(
        self,
        n_packets: int = 30,
        rng: np.random.Generator | int | None = None,
        keep_results: bool = False,
    ) -> BERMeasurement:
        """The paper's data-point procedure: aggregate BER over packets.

        ``keep_results=False`` (the default) aggregates incrementally and
        returns an empty ``results`` list — a large sweep then holds one
        packet's result (and its event list) at a time instead of all of
        them.  Pass ``keep_results=True`` to retain every
        :class:`PacketResult` for per-packet inspection.
        """
        gen = ensure_rng(rng)
        results: list[PacketResult] = []
        n_bits = n_errors = n_crc_fail = n_detected = 0
        snr_sum = 0.0
        snr_n = 0
        for _ in range(n_packets):
            r = self.run_packet(rng=gen)
            n_bits += r.n_bits
            n_errors += r.n_bit_errors
            n_crc_fail += not r.crc_ok
            n_detected += r.detected
            if np.isfinite(r.snr_est_db):
                snr_sum += r.snr_est_db
                snr_n += 1
            if keep_results:
                results.append(r)
        return BERMeasurement(
            ber=n_errors / n_bits if n_bits else 1.0,
            n_packets=n_packets,
            n_bits=n_bits,
            n_bit_errors=n_errors,
            packet_error_rate=n_crc_fail / max(n_packets, 1),
            detection_rate=n_detected / max(n_packets, 1),
            mean_snr_est_db=snr_sum / snr_n if snr_n else float("-inf"),
            results=results,
        )

