"""Fig 16 harnesses: BER versus distance/rate, roll, yaw, ambient light.

Paper shape targets: the 8 Kbps link is reliable (BER < 1%) to ~7.5 m and
4 Kbps to ~10.5 m (16a); roll has near-zero impact at any angle (16b); yaw
is tolerated to at least +-40deg with a cliff past ~+-55deg (16c); BER is
flat across dark/night/day illumination (16d).
"""

from __future__ import annotations

from repro.experiments.common import SweepPoint, make_simulator
from repro.optics.ambient import AMBIENT_PRESETS
from repro.utils.rng import ensure_rng

__all__ = [
    "ambient_sweep",
    "rate_vs_distance",
    "rate_vs_distance_grid",
    "roll_sweep",
    "working_range",
    "yaw_sweep",
]


def rate_vs_distance(
    rates_bps: list[float] | None = None,
    distances_m: list[float] | None = None,
    n_packets: int = 6,
    payload_bytes: int = 24,
    rng=11,
) -> dict[float, list[SweepPoint]]:
    """Fig 16a: BER against LoS distance for each uplink rate."""
    rates_bps = rates_bps or [4000, 8000]
    distances_m = distances_m or [1.0, 3.0, 5.0, 6.5, 7.5, 8.5, 10.0, 11.5]
    gen = ensure_rng(rng)
    out: dict[float, list[SweepPoint]] = {}
    for rate in rates_bps:
        points = []
        for d in distances_m:
            sim = make_simulator(rate_bps=rate, distance_m=d, payload_bytes=payload_bytes, rng=gen)
            m = sim.measure_ber(n_packets=n_packets, rng=gen)
            points.append(
                SweepPoint(x=d, ber=m.ber, extras={"snr_db": sim.link.effective_snr_db()})
            )
        out[rate] = points
    return out


def rate_vs_distance_grid(
    rates_bps: list[float] | None = None,
    distances_m: list[float] | None = None,
    n_packets: int = 6,
    payload_bytes: int = 24,
    n_workers: int | None = 1,
    root_seed: int = 11,
    observer=None,
    metrics_out=None,
    journal=None,
    shard=None,
    sweep: dict | None = None,
) -> dict[float, list[SweepPoint]]:
    """Fig 16a through the batched packet engine.

    Unlike :func:`rate_vs_distance` (one shared generator threaded through
    the sweep), every (rate, distance) cell gets its own spawned seed, so the
    grid is order-independent and can fan across workers.  Pass an
    ``observer`` (or just ``metrics_out``) for sweep-wide metrics and a
    written RunReport.  With ``journal`` the grid runs under the crash-safe
    :class:`~repro.experiments.sweeps.SweepRunner` (resumable; ``shard="i/n"``
    restricts execution to an index-derived slice; extra ``sweep`` options
    such as ``timeout_s``/``max_retries`` pass through).
    """
    from repro.experiments.batch import make_grid, rows_to_sweeps
    from repro.experiments.common import emit_sweep_report, simulate_grid_task
    from repro.experiments.sweeps import run_grid
    from repro.obs import Observer

    if observer is None and metrics_out is not None:
        observer = Observer()

    rates_bps = rates_bps or [4000, 8000]
    distances_m = distances_m or [1.0, 3.0, 5.0, 6.5, 7.5, 8.5, 10.0, 11.5]
    schemes = {
        f"{rate:g}": {
            "rate_bps": rate,
            "n_packets": n_packets,
            "payload_bytes": payload_bytes,
        }
        for rate in rates_bps
    }
    tasks = make_grid(schemes, distances_m, x_key="distance_m")
    rows = run_grid(
        simulate_grid_task,
        tasks,
        n_workers=n_workers,
        root_seed=root_seed,
        observer=observer,
        journal=journal,
        shard=shard,
        **(sweep or {}),
    )
    out = {float(scheme): points for scheme, points in rows_to_sweeps(rows).items()}
    if observer is not None:
        emit_sweep_report(
            observer,
            metrics_out,
            scenario={"figure": "16a", "rates_bps": rates_bps, "distances_m": distances_m},
            summary={
                f"{rate:g}": {"working_range_m": working_range(points)}
                for rate, points in out.items()
            },
        )
    return out


def working_range(points: list[SweepPoint], ber_limit: float = 0.01) -> float:
    """Largest swept distance whose BER stays under the reliability limit."""
    good = [p.x for p in points if p.ber < ber_limit]
    return max(good) if good else 0.0


def roll_sweep(
    roll_degs: list[float] | None = None,
    distance_m: float = 5.0,
    n_packets: int = 4,
    rng=12,
) -> list[SweepPoint]:
    """Fig 16b: BER against roll misalignment (PQAM rotation tolerance)."""
    roll_degs = roll_degs or [0, 15, 30, 45, 60, 75, 90, 120, 150, 180]
    gen = ensure_rng(rng)
    points = []
    for roll in roll_degs:
        sim = make_simulator(distance_m=distance_m, roll_deg=roll, rng=gen)
        m = sim.measure_ber(n_packets=n_packets, rng=gen)
        points.append(SweepPoint(x=roll, ber=m.ber))
    return points


def yaw_sweep(
    yaw_degs: list[float] | None = None,
    distance_m: float = 3.0,
    n_packets: int = 4,
    online_training: bool = True,
    rng=13,
) -> list[SweepPoint]:
    """Fig 16c: BER against yaw; channel training absorbs the deviation
    until the retroreflective cliff (~55deg)."""
    yaw_degs = yaw_degs or [0, 10, 20, 30, 40, 50, 55, 60, 70]
    gen = ensure_rng(rng)
    points = []
    for yaw in yaw_degs:
        sim = make_simulator(
            distance_m=distance_m,
            yaw_deg=yaw,
            bank_mode="trained" if online_training else "nominal",
            rng=gen,
        )
        m = sim.measure_ber(n_packets=n_packets, rng=gen)
        points.append(
            SweepPoint(x=yaw, ber=m.ber, extras={"detection_rate": m.detection_rate})
        )
    return points


def ambient_sweep(
    distance_m: float = 5.0,
    n_packets: int = 4,
    rng=14,
) -> dict[str, SweepPoint]:
    """Fig 16d: BER across the dark / night / day illumination presets."""
    gen = ensure_rng(rng)
    out: dict[str, SweepPoint] = {}
    for name, ambient in AMBIENT_PRESETS.items():
        sim = make_simulator(distance_m=distance_m, ambient=ambient, rng=gen)
        m = sim.measure_ber(n_packets=n_packets, rng=gen)
        out[name] = SweepPoint(x=ambient.lux, ber=m.ber)
    return out
