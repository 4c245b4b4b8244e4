"""Table 4 harness: BER under ambient human mobility.

Five test cases (no human; one person walking 10 cm off LoS; one walking
behind the tag; one working 5 cm off LoS; three walking around the LoS) —
the paper measures < 0.3% BER in all of them thanks to downlink
directionality and uplink retroreflectivity.
"""

from __future__ import annotations

from repro.experiments.common import SweepPoint, make_simulator
from repro.optics.ambient import MOBILITY_CASES
from repro.utils.rng import ensure_rng

__all__ = ["mobility_study", "mobility_study_grid"]


def mobility_study(
    distance_m: float = 5.0,
    n_packets: int = 6,
    rng=41,
) -> dict[str, SweepPoint]:
    """BER for each Table 4 mobility case at the default link."""
    gen = ensure_rng(rng)
    out: dict[str, SweepPoint] = {}
    for name, mobility in MOBILITY_CASES.items():
        sim = make_simulator(distance_m=distance_m, mobility=mobility, rng=gen)
        m = sim.measure_ber(n_packets=n_packets, rng=gen)
        out[name] = SweepPoint(x=mobility.rate_hz, ber=m.ber)
    return out


def mobility_study_grid(
    cases: list[str] | None = None,
    distance_m: float = 5.0,
    n_packets: int = 6,
    n_workers: int | None = 1,
    root_seed: int = 41,
    observer=None,
    metrics_out=None,
    journal=None,
    shard=None,
    sweep: dict | None = None,
) -> dict[str, SweepPoint]:
    """Table 4 through the batched packet engine (per-case spawned seeds).

    One grid cell per mobility case, all at the same link distance.
    ``journal``/``shard``/``sweep`` select the crash-safe resumable engine —
    see :func:`repro.experiments.sweeps.run_grid`.
    """
    from repro.experiments.batch import make_grid
    from repro.experiments.common import emit_sweep_report, simulate_grid_task
    from repro.experiments.sweeps import run_grid
    from repro.obs import Observer

    if observer is None and metrics_out is not None:
        observer = Observer()

    names = cases or list(MOBILITY_CASES)
    unknown = [name for name in names if name not in MOBILITY_CASES]
    if unknown:
        known = ", ".join(sorted(MOBILITY_CASES))
        raise ValueError(f"unknown mobility case(s) {unknown}; known: {known}")
    schemes = {
        name: {"mobility": MOBILITY_CASES[name], "n_packets": n_packets} for name in names
    }
    tasks = make_grid(schemes, [distance_m], x_key="distance_m")
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
    out = {
        row["scheme"]: SweepPoint(
            x=MOBILITY_CASES[row["scheme"]].rate_hz,
            ber=row["ber"],
            extras={"packet_error_rate": row["packet_error_rate"]},
        )
        for row in rows
    }
    if observer is not None:
        emit_sweep_report(
            observer,
            metrics_out,
            scenario={"figure": "table4", "cases": names, "distance_m": distance_m},
            summary={name: {"ber": point.ber} for name, point in out.items()},
        )
    return out
