"""Packet frame format: slot layout and payload bit processing.

Responsibilities: compute the slot layout (guard | preamble | training |
payload), keep every section a multiple of ``L`` slots, and convert payload
bytes to scrambled, CRC-protected, Gray-labelled PQAM levels and back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.coding.crc import crc16, crc16_check
from repro.coding.interleaver import BlockInterleaver
from repro.coding.reed_solomon import RSCodec, RSDecodeError
from repro.coding.scrambler import Scrambler
from repro.modem.config import ModemConfig
from repro.modem.preamble import Preamble
from repro.modem.symbols import PQAMConstellation
from repro.training.online import TrainingSequence

__all__ = ["FrameFormat", "round_up"]


def round_up(n: int, multiple: int) -> int:
    """Smallest multiple of ``multiple`` that is >= ``n``."""
    return ((n + multiple - 1) // multiple) * multiple


@dataclass
class FrameFormat:
    """Slot layout and payload mapping for one operating point.

    Parameters
    ----------
    config:
        The modem operating point.
    payload_bytes:
        User payload length (paper default: 128-byte packets).  Two CRC-16
        bytes are appended on the air.
    preamble_slots / training_rounds:
        Section sizes.  Defaults keep simulations brisk; pass
        ``paper_timing=True`` via :meth:`paper_default` for the prototype's
        50 ms preamble / 80 ms training.
    guard_slots:
        Idle slots before the preamble letting the LC settle at rest.
    codec:
        Optional Reed-Solomon codec for a *coded* frame (the Fig 18b
        configuration); the payload+CRC stream is RS-encoded, block-
        interleaved and scrambled before hitting the constellation.
    interleave_depth:
        Interleaver rows for coded frames; defaults to the RS block count
        so a slot-contiguous burst spreads across every block.
    """

    config: ModemConfig
    payload_bytes: int = 128
    preamble_slots: int | None = None
    training_rounds: int | None = None
    guard_slots: int | None = None
    scrambler: Scrambler = field(default_factory=Scrambler)
    codec: RSCodec | None = None
    interleave_depth: int | None = None

    def __post_init__(self) -> None:
        cfg = self.config
        if self.payload_bytes < 1:
            raise ValueError("payload must be at least one byte")
        wanted = self.preamble_slots if self.preamble_slots is not None else 40
        self.preamble_slots = round_up(max(wanted, 2 * cfg.dsm_order), cfg.dsm_order)
        self.guard_slots = self.guard_slots if self.guard_slots is not None else cfg.dsm_order
        if self.guard_slots % cfg.dsm_order:
            raise ValueError("guard_slots must be a multiple of the DSM order")
        self.preamble = Preamble(cfg, n_slots=self.preamble_slots)
        self.training = TrainingSequence(cfg, n_rounds=self.training_rounds)
        self.constellation = PQAMConstellation(cfg.pqam_order)
        if self.codec is not None:
            depth = self.interleave_depth or self._rs_blocks()
            if (self._rs_blocks() * self.codec.n) % depth:
                raise ValueError(
                    f"interleave depth {depth} must divide the coded length "
                    f"{self._rs_blocks() * self.codec.n}"
                )
            self.interleaver = BlockInterleaver(depth)
        else:
            self.interleaver = None

    def _rs_blocks(self) -> int:
        """Number of RS blocks covering payload + CRC."""
        assert self.codec is not None
        return -(-(self.payload_bytes + 2) // self.codec.k)

    @classmethod
    def paper_default(cls, config: ModemConfig, payload_bytes: int = 128) -> "FrameFormat":
        """The prototype's timing: ~50 ms preamble, ~80 ms online training."""
        preamble_slots = int(round(50e-3 / config.slot_s))
        training_rounds = max(
            int(round(80e-3 / (config.slot_s * config.dsm_order))), 2 * config.dsm_order
        )
        return cls(
            config,
            payload_bytes=payload_bytes,
            preamble_slots=preamble_slots,
            training_rounds=training_rounds,
        )

    # -------------------------------------------------------------- layout

    @property
    def on_air_bytes(self) -> int:
        """Bytes transmitted for the payload section (after any coding)."""
        if self.codec is None:
            return self.payload_bytes + 2
        return self._rs_blocks() * self.codec.n

    @property
    def payload_bits_on_air(self) -> int:
        """Scrambled on-air bits, padded to a whole number of symbols."""
        return round_up(self.on_air_bytes * 8, self.config.bits_per_symbol)

    @property
    def payload_slots(self) -> int:
        """Payload section length in slots."""
        return self.payload_bits_on_air // self.config.bits_per_symbol

    @property
    def total_slots(self) -> int:
        """Whole-frame length in slots."""
        return self.guard_slots + self.preamble_slots + self.training.n_slots + self.payload_slots

    @property
    def payload_start_slot(self) -> int:
        """First payload slot index within the frame."""
        return self.guard_slots + self.preamble_slots + self.training.n_slots

    @property
    def duration_s(self) -> float:
        """On-air frame duration."""
        return self.total_slots * self.config.slot_s

    def section_durations(self) -> dict[str, float]:
        """Per-section durations in seconds (latency bookkeeping)."""
        t = self.config.slot_s
        return {
            "guard": self.guard_slots * t,
            "preamble": self.preamble_slots * t,
            "training": self.training.n_slots * t,
            "payload": self.payload_slots * t,
        }

    # ---------------------------------------------------------------- bits

    def encode_payload(self, payload: bytes) -> tuple[np.ndarray, np.ndarray]:
        """Payload bytes -> (levels_i, levels_q) for the payload section.

        Pipeline: append CRC-16, optionally RS-encode and block-interleave,
        scramble (DC-stress avoidance), map to Gray-labelled levels.
        """
        if len(payload) != self.payload_bytes:
            raise ValueError(f"payload must be exactly {self.payload_bytes} bytes")
        on_air = payload + crc16(payload).to_bytes(2, "big")
        if self.codec is not None:
            on_air = self.interleaver.interleave(self.codec.encode_stream(on_air))
        scrambled = self.scrambler.scramble(on_air)
        bits = np.unpackbits(np.frombuffer(scrambled, dtype=np.uint8))
        pad = self.payload_bits_on_air - bits.size
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
        return self.constellation.bits_to_levels(bits)

    def decode_payload(self, levels_i: np.ndarray, levels_q: np.ndarray) -> tuple[bytes, bool]:
        """(levels_i, levels_q) -> (payload bytes, crc_ok).

        Coded frames de-interleave and RS-decode; an uncorrectable block
        falls back to the systematic bytes (so BER accounting still works)
        with the CRC flagging the loss.
        """
        bits = self.constellation.levels_to_bits(levels_i, levels_q)
        raw_bits = bits[: self.on_air_bytes * 8]
        stream = self.scrambler.descramble(np.packbits(raw_bits).tobytes())
        if self.codec is not None:
            coded = self.interleaver.deinterleave(stream)
            decoded = bytearray()
            n = self.codec.n
            for start in range(0, len(coded), n):
                block = coded[start : start + n]
                try:
                    msg, _ = self.codec.decode(block)
                except RSDecodeError:
                    msg = block[: self.codec.k]  # best-effort systematic bytes
                decoded += msg
            stream = bytes(decoded[: self.payload_bytes + 2])
        payload, ok = stream[:-2], crc16_check(stream)
        return payload, ok

    def prefix_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Level sequences of the payload-independent frame prefix.

        Guard, preamble and training are fixed per frame format — the same
        ``payload_start_slot`` slots precede every payload, which is what
        lets a transmitter synthesise (and cache) the prefix waveform once
        per operating point.
        """
        guard = np.zeros(self.guard_slots, dtype=int)
        pre_i, pre_q = self.preamble.levels
        trn_i, trn_q = self.training.levels()
        levels_i = np.concatenate([guard, pre_i, trn_i])
        levels_q = np.concatenate([guard, pre_q, trn_q])
        assert levels_i.size == self.payload_start_slot
        return levels_i, levels_q

    def body_levels(self, payload: bytes) -> tuple[np.ndarray, np.ndarray]:
        """Level sequences after the prefix: the payload section.

        A frame with sync sections between its payload blocks
        (:class:`~repro.phy.resync.ResyncFrameFormat`) interleaves them here,
        so the whole frame is always ``prefix_levels() + body_levels()``.
        """
        return self.encode_payload(payload)

    def frame_levels(self, payload: bytes) -> tuple[np.ndarray, np.ndarray]:
        """Level sequences for the complete frame (guard..payload)."""
        cfg = self.config
        pre_i, pre_q = self.prefix_levels()
        body_i, body_q = self.body_levels(payload)
        levels_i = np.concatenate([pre_i, body_i])
        levels_q = np.concatenate([pre_q, body_q])
        assert levels_i.size == self.total_slots
        assert self.payload_start_slot % cfg.dsm_order == 0
        return levels_i, levels_q

    def block_slot_counts(self) -> list[int]:
        """Payload slots per block; sync sections, if any, sit between blocks.

        The receiver equalizes block by block.  This frame is one block.
        """
        return [self.payload_slots]

    def prime_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Known level pairs immediately preceding the payload.

        Covers ``V * L`` slots (enough to settle both the DFE's prediction
        buffer and its tail-effect histories), taken from the training
        section's tail.
        """
        cfg = self.config
        need = cfg.tail_memory * cfg.dsm_order
        trn_i, trn_q = self.training.levels()
        if trn_i.size < need:
            raise ValueError("training section shorter than the DFE priming window")
        return trn_i[-need:], trn_q[-need:]
