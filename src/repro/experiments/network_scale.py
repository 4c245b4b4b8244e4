"""Fleet-scale sweep: goodput and recovery vs tag count under chaos.

The network-layer analogue of the figure harnesses: a grid of
``scenario x n_tags`` cells, each one full :class:`~repro.network.fleet.
FleetSimulator` run, fanned over the sharded sweep engine.  Every cell is
a pure function of its grid index and the root seed (the fleet's own seed
is drawn from the cell's spawned generator), so rows — including each
run's ``timeline_digest`` — are bit-identical across worker counts,
shards, and resumes.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.batch import GridTask, make_grid

__all__ = ["fleet_scale_task", "network_scale_grid"]

#: Scenario name meaning "no chaos plan" (the control column).
BASELINE = "none"


def fleet_scale_task(task: GridTask, rng: np.random.Generator) -> dict:
    """One grid cell: a full fleet run under a named chaos scenario.

    Module-level (process pools pickle it).  The fleet's root seed is the
    first draw from the cell's index-derived generator, so the simulation
    inherits the batch engine's bit-identity guarantee without threading
    generators through the simulator.
    """
    from repro.faults.network import network_scenario
    from repro.network.fleet import FleetConfig, FleetSimulator

    kwargs = task.kwargs
    scenario = kwargs.get("scenario", BASELINE)
    config = FleetConfig(
        n_readers=int(kwargs.get("n_readers", 3)),
        n_tags=int(kwargs["n_tags"]),
        duration_s=float(kwargs.get("duration_s", 30.0)),
    )
    plan = None
    if scenario != BASELINE:
        plan = network_scenario(scenario, config.duration_s)
    fleet_seed = int(rng.integers(2**63))
    result = FleetSimulator(config, fault_plan=plan, root_seed=fleet_seed).run()
    row = result.row()
    row["scenario"] = scenario
    row["contract_violation"] = (
        str(result.check_contract()) if result.check_contract() else ""
    )
    return row


def network_scale_grid(
    scenarios: list[str] | None = None,
    n_tags_list: list[int] | None = None,
    n_readers: int = 3,
    duration_s: float = 30.0,
    n_workers: int | None = 1,
    root_seed: int = 0,
    observer=None,
    metrics_out=None,
    journal=None,
    shard=None,
    sweep: dict | None = None,
) -> dict[str, list[dict]]:
    """Fleet robustness matrix: ``scenario x n_tags`` through the engine.

    Returns rows grouped by scenario, each row the flat
    :meth:`~repro.network.fleet.FleetResult.row` record plus grid
    coordinates.  ``journal``/``shard``/``sweep`` select the crash-safe
    resumable engine — see :func:`repro.experiments.sweeps.run_grid`.
    """
    from repro.experiments.common import emit_sweep_report
    from repro.experiments.sweeps import run_grid
    from repro.faults.network import network_scenario_names
    from repro.obs import Observer

    if observer is None and metrics_out is not None:
        observer = Observer()

    names = scenarios or [BASELINE, *network_scenario_names()]
    known = {BASELINE, *network_scenario_names()}
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(f"unknown network scenario(s) {unknown}; known: {sorted(known)}")
    xs = n_tags_list or [4, 12, 24]
    schemes = {
        name: {"scenario": name, "n_readers": n_readers, "duration_s": duration_s}
        for name in names
    }
    tasks = make_grid(schemes, xs, x_key="n_tags")
    rows = run_grid(
        fleet_scale_task,
        tasks,
        n_workers=n_workers,
        root_seed=root_seed,
        observer=observer,
        journal=journal,
        shard=shard,
        **(sweep or {}),
    )
    out: dict[str, list[dict]] = {name: [] for name in names}
    for row in rows:
        out[row["scheme"]].append(row)
    if observer is not None:
        emit_sweep_report(
            observer,
            metrics_out,
            scenario={
                "figure": "network_scale",
                "scenarios": names,
                "n_tags": xs,
                "n_readers": n_readers,
                "duration_s": duration_s,
            },
            summary={
                name: {
                    "goodput_bps": [r["goodput_bps"] for r in rows_],
                    "orphaned_tags": [r["orphaned_tags"] for r in rows_],
                    "handoffs": [r["handoffs"] for r in rows_],
                    "fairness_jain": [r["fairness_jain"] for r in rows_],
                    "goodput_min_bps": [r["goodput_min_bps"] for r in rows_],
                    "goodput_median_bps": [r["goodput_median_bps"] for r in rows_],
                }
                for name, rows_ in out.items()
            },
        )
    return out
