"""Shared experiment plumbing: simulator factories and table rendering."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.channel.link import OpticalLink
from repro.modem.config import ModemConfig, preset_for_rate
from repro.obs import get_observer
from repro.optics.ambient import AmbientLight
from repro.optics.geometry import LinkGeometry
from repro.optics.retroreflector import LinkBudget
from repro.phy.pipeline import PacketSimulator

__all__ = [
    "SweepPoint",
    "emit_sweep_report",
    "format_table",
    "make_simulator",
    "simulate_grid_task",
]


@dataclass
class SweepPoint:
    """One data point of a sweep: the swept value plus measurements."""

    x: float
    ber: float
    extras: dict = field(default_factory=dict)

    def __iter__(self):
        yield self.x
        yield self.ber


def make_simulator(
    rate_bps: float = 8000,
    distance_m: float = 2.0,
    roll_deg: float = 0.0,
    yaw_deg: float = 0.0,
    ambient: AmbientLight | None = None,
    mobility=None,
    budget: LinkBudget | None = None,
    payload_bytes: int = 24,
    bank_mode: str = "trained",
    k_branches: int = 16,
    config: ModemConfig | None = None,
    rng=7,
    observer=None,
    **kwargs,
) -> PacketSimulator:
    """A PacketSimulator at a named experimental condition.

    Experiment defaults (payload, seeds) are sized for shape-faithful but
    tractable sweeps; pass ``payload_bytes=128`` etc. for paper-exact
    dimensions.  ``observer=None`` falls back to the *ambient* observer
    (:func:`repro.obs.get_observer`), so sweeps wrapped in
    ``use_observer(...)`` are instrumented without parameter threading.
    """
    if observer is None:
        observer = get_observer()
    geometry = LinkGeometry(
        distance_m=distance_m,
        roll_rad=float(np.deg2rad(roll_deg)),
        yaw_rad=float(np.deg2rad(yaw_deg)),
    )
    link_kwargs = {}
    if ambient is not None:
        link_kwargs["ambient"] = ambient
    if mobility is not None:
        link_kwargs["mobility"] = mobility
    link = OpticalLink(
        geometry=geometry,
        budget=budget or LinkBudget.experimental(),
        **link_kwargs,
    )
    return PacketSimulator(
        config=config or preset_for_rate(rate_bps),
        link=link,
        payload_bytes=payload_bytes,
        bank_mode=bank_mode,
        k_branches=k_branches,
        rng=rng,
        observer=observer,
        **kwargs,
    )


def simulate_grid_task(task, rng) -> dict:
    """BatchRunner task body shared by the figure harnesses.

    ``task.kwargs`` are :func:`make_simulator` keywords plus an optional
    ``n_packets``; the per-cell generator drives both simulator construction
    and the packet draws, so a cell's result depends only on its own seed.
    """
    params = task.kwargs
    n_packets = params.pop("n_packets", 4)
    sim = make_simulator(rng=rng, **params)
    m = sim.measure_ber(n_packets=n_packets, rng=rng)
    return {
        "ber": m.ber,
        "packet_error_rate": m.packet_error_rate,
        "n_bits": m.n_bits,
        "snr_db": sim.link.effective_snr_db(),
    }


def emit_sweep_report(observer, metrics_out, scenario: dict, summary: dict):
    """Write a ``kind="sweep"`` RunReport if a path was requested.

    Shared tail of the batched figure harnesses: no-op unless
    ``metrics_out`` is set, in which case the observer's state is
    assembled, schema-validated and written to that path.
    """
    if metrics_out is None:
        return None
    report = observer.run_report("sweep", scenario=scenario, summary=summary)
    report.write(metrics_out)
    return report


def format_table(headers: list[str], rows: list[tuple], title: str | None = None) -> str:
    """Plain-text table rendering for benchmark output."""
    cells = [[str(h) for h in headers]] + [
        [f"{v:.4g}" if isinstance(v, float) else str(v) for v in row] for row in rows
    ]
    widths = [max(len(r[c]) for r in cells) for c in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
