"""The fleet served through the frozen scalar per-tag link path.

:class:`ReferenceFleetSimulator` runs the same timeline as
:class:`~repro.network.fleet.FleetSimulator` — events, association,
heartbeats and handoff bookkeeping are inherited — but attaches one
:class:`~reference.link_reference.ReferenceTagLinkState` per tag and serves
each round one Python call per slot.  The equivalence wall
(``tests/network/test_linkstore_equivalence.py``), the fleet golden and
``benchmarks/bench_fleet_scale.py`` compare the vectorized store path
against it bit for bit.

The serve loop is part of the executable spec: do not optimise it.
"""

from __future__ import annotations

from repro.network.fleet import FleetResult, FleetSimulator, TagTable
from repro.network.reader import Reader

from reference.link_reference import ReferenceTagLinkState

__all__ = ["ReferenceFleetSimulator"]


class ReferenceFleetSimulator(FleetSimulator):
    """A :class:`FleetSimulator` whose tags carry scalar link objects."""

    def _build(self) -> None:
        super()._build()
        cfg = self.config
        self._links = [
            ReferenceTagLinkState(
                self.profile,
                payload_bytes=cfg.payload_bytes,
                overhead_s=cfg.overhead_s,
                raise_after=cfg.raise_after,
                fail_threshold=cfg.fail_threshold,
                recover_after=cfg.recover_after,
            )
            for _ in range(cfg.n_tags)
        ]
        self.tags = TagTable(
            self.tags.position_m, self._links.__getitem__, self.handoff_log, self.readers
        )

    def run(self) -> FleetResult:
        """Run, then present the scalar links' counters through the result's
        store, which every aggregate and ``row()`` read."""
        result = super().run()
        for counter in ("delivered", "abandoned", "attempts"):
            getattr(result.store, counter)[:] = [
                getattr(link, counter) for link in self._links
            ]
        return result

    def _serve(self, reader: Reader, used: float, budget_s: float):
        """Frozen scalar data service — one Python call per served slot."""
        served = 0
        for tag_id in reader.service_order():
            link = self._links[tag_id]
            airtime = link.frame_airtime_s()
            if used + airtime > budget_s:
                break
            snr = float(self._snr[tag_id, reader.reader_id]) - reader.occlusion_db
            outcome = link.attempt_frame(
                snr, self._tag_rngs[tag_id], extra_fail_prob=reader.collision_prob
            )
            used += outcome.airtime_s
            served += 1
            if self.record_frames:
                self.frame_log.append(outcome)
            if self.obs.enabled:
                label = "delivered" if outcome.delivered else (
                    "abandoned" if outcome.abandoned else "retry"
                )
                self.obs.count(
                    "network.frames_total", outcome=label, reader=str(reader.reader_id)
                )
        return served, used
