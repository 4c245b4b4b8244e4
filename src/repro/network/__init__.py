"""Multi-reader fleet layer: readers, tags, handoff, chaos tolerance.

The paper's system is one reader and one tag; a deployment is a *fleet* —
many luminaire readers covering many tags, with readers failing, schedules
corrupting, and fields of view getting blocked.  This package hosts that
scale on a deterministic discrete-event core:

* :mod:`repro.network.core` — event queue + SeedSequence stream layout.
* :mod:`repro.network.reader` — reader health lifecycle and admission.
* :mod:`repro.network.linkstore` — migration-safe per-tag link/ARQ state
  as struct-of-arrays; the vectorized round engine million-tag schedules
  run through.
* :mod:`repro.network.fleet` — the simulator and its fault contract.

The frozen scalar per-tag path the store is walled against lives with its
tests, in ``tests/reference/``.

Chaos comes from :mod:`repro.faults.network`; results flow into the
sharded sweep engine via :mod:`repro.experiments.network_scale`.
"""

from repro.network.core import Event, EventQueue, spawn_streams
from repro.network.fleet import FleetConfig, FleetResult, FleetSimulator, TagState
from repro.network.linkstore import FrameOutcome, LinkStateStore, RoundServe, TagLinkView
from repro.network.reader import Reader, ReaderHealth

__all__ = [
    "Event",
    "EventQueue",
    "FleetConfig",
    "FleetResult",
    "FleetSimulator",
    "FrameOutcome",
    "LinkStateStore",
    "Reader",
    "ReaderHealth",
    "RoundServe",
    "TagLinkView",
    "TagState",
    "spawn_streams",
]
