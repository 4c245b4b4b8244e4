"""Mid-packet re-synchronization — the paper's §8 mobility proposal.

"One possible solution would be inserting multiple synchronization frames
based on the mobility level and packet length to perform dynamic channel
equalization."  This module holds the frame for exactly that:
:class:`ResyncFrameFormat` interleaves short *sync sections* (known
corner-level bursts) into the payload every ``sync_interval_slots``.

The one receiver decodes it: :meth:`~repro.phy.receiver.PhyReceiver._run_stages`
equalizes the frame's payload blocks in turn and, before each block after
the first, re-fits the widely-linear corrector (a, b, c) on the preceding
sync section against its *expected* waveform (synthesised from the trained
reference bank and the already-decided symbols), tracking slow
rotation/gain drift that a single head-of-packet estimate cannot.

All section lengths stay multiples of ``L`` so the DSM group rotation is
phase-aligned at every block boundary.
"""

from __future__ import annotations

import numpy as np

from repro.phy.frame import FrameFormat, round_up
from repro.utils.mseq import LFSR

__all__ = ["ResyncFrameFormat"]


class ResyncFrameFormat(FrameFormat):
    """Frame with known sync sections interleaved into the payload.

    Parameters (beyond :class:`FrameFormat`)
    ----------------------------------------
    sync_interval_slots:
        Payload slots between consecutive sync sections (rounded up to a
        multiple of L).  Choose from the expected mobility level: the
        channel must be quasi-static over one interval.
    sync_slots:
        Length of each sync section; defaults to ``V * L`` so it doubles
        as the next block's DFE priming window.
    """

    def __init__(
        self,
        config,
        payload_bytes: int = 128,
        sync_interval_slots: int = 64,
        sync_slots: int | None = None,
        **kwargs,
    ):
        super().__init__(config, payload_bytes=payload_bytes, **kwargs)
        l_order = config.dsm_order
        self.sync_interval_slots = round_up(max(sync_interval_slots, l_order), l_order)
        wanted_sync = sync_slots if sync_slots is not None else config.tail_memory * l_order
        self.sync_slots = round_up(max(wanted_sync, config.tail_memory * l_order), l_order)
        self._sync_levels = self._build_sync_levels()

    def _build_sync_levels(self) -> tuple[np.ndarray, np.ndarray]:
        m = self.config.levels_per_axis
        lfsr = LFSR(order=11, seed=0x155)
        bits = lfsr.run(2 * self.sync_slots)
        return (
            bits[: self.sync_slots].astype(int) * (m - 1),
            bits[self.sync_slots :].astype(int) * (m - 1),
        )

    @property
    def sync_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """The known level pairs of one sync section."""
        return self._sync_levels[0].copy(), self._sync_levels[1].copy()

    @property
    def n_sync_sections(self) -> int:
        """Sync sections inserted (one after each block except the last)."""
        return len(self.block_slot_counts()) - 1

    def block_slot_counts(self) -> list[int]:
        """Payload slots per block (sync sections sit *between* blocks)."""
        counts = []
        remaining = self.payload_slots
        while remaining > 0:
            take = min(self.sync_interval_slots, remaining)
            counts.append(take)
            remaining -= take
        return counts

    @property
    def total_slots(self) -> int:
        """Whole-frame length in slots, including sync sections."""
        return (
            self.guard_slots
            + self.preamble_slots
            + self.training.n_slots
            + self.payload_slots
            + self.n_sync_sections * self.sync_slots
        )

    def body_levels(self, payload: bytes) -> tuple[np.ndarray, np.ndarray]:
        """Payload blocks with a sync section between each pair."""
        pay_i, pay_q = self.encode_payload(payload)
        sync_i, sync_q = self._sync_levels
        parts_i: list[np.ndarray] = []
        parts_q: list[np.ndarray] = []
        start = 0
        for b, count in enumerate(self.block_slot_counts()):
            if b:
                parts_i.append(sync_i)
                parts_q.append(sync_q)
            parts_i.append(pay_i[start : start + count])
            parts_q.append(pay_q[start : start + count])
            start += count
        return np.concatenate(parts_i), np.concatenate(parts_q)
