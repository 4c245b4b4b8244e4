"""Fig 17 harnesses: DFE-branch microbenchmark and channel-training memory.

17a: single-branch DFE loses noticeably; 16 branches sit near the optimal
Viterbi detector.  Exact Viterbi needs ``P^((V-1)L + L - 1)`` states, so —
exactly like the paper's tractability argument — the comparison runs at a
reduced operating point where the full trellis fits (P = 4, L = 4, V = 1);
a wide-beam merged DFE serves as the near-MLSE proxy at the default point.

17b: training memory V = 1 leaves a system error floor even at high SNR
(the tail effect is unmodelled); V = 2 recovers almost all of it; V = 3
adds little for double the training cost.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.common import SweepPoint, make_simulator
from repro.modem.config import ModemConfig
from repro.utils.rng import ensure_rng

__all__ = ["dfe_comparison", "dfe_comparison_grid", "training_memory_sweep"]

#: Reduced operating point at which exact Viterbi is tractable.
VITERBI_CONFIG = ModemConfig(dsm_order=4, pqam_order=4, slot_s=1.0e-3, tail_memory=1)


def dfe_comparison(
    distances_m: list[float] | None = None,
    n_packets: int = 4,
    config: ModemConfig | None = None,
    rng=21,
) -> dict[str, list[SweepPoint]]:
    """Fig 17a: BER vs distance for 1-branch DFE, 16-branch DFE, Viterbi."""
    config = config or VITERBI_CONFIG
    distances_m = distances_m or [6.0, 8.0, 10.0, 11.0, 12.0, 13.0]
    viterbi_k = config.pqam_order ** (
        (config.tail_memory - 1) * config.dsm_order + config.dsm_order - 1
    )
    if viterbi_k > 65_536:
        raise ValueError("config too large for exact Viterbi; reduce P/L/V")
    gen = ensure_rng(rng)
    out: dict[str, list[SweepPoint]] = {}
    for label, k in (("dfe_1", 1), ("dfe_16", 16), ("viterbi", viterbi_k)):
        points = []
        for d in distances_m:
            sim = make_simulator(config=config, distance_m=d, k_branches=k, rng=gen)
            m = sim.measure_ber(n_packets=n_packets, rng=gen)
            points.append(SweepPoint(x=d, ber=m.ber))
        out[label] = points
    return out


def dfe_comparison_grid(
    distances_m: list[float] | None = None,
    n_packets: int = 4,
    config: ModemConfig | None = None,
    n_workers: int | None = 1,
    root_seed: int = 21,
    observer=None,
    metrics_out=None,
    journal=None,
    shard=None,
    sweep: dict | None = None,
) -> dict[str, list[SweepPoint]]:
    """Fig 17a through the batched packet engine (per-cell spawned seeds).

    ``journal``/``shard``/``sweep`` select the crash-safe resumable engine —
    see :func:`repro.experiments.sweeps.run_grid`.
    """
    from repro.experiments.batch import make_grid, rows_to_sweeps
    from repro.experiments.common import emit_sweep_report, simulate_grid_task
    from repro.experiments.sweeps import run_grid
    from repro.obs import Observer

    if observer is None and metrics_out is not None:
        observer = Observer()

    config = config or VITERBI_CONFIG
    distances_m = distances_m or [6.0, 8.0, 10.0, 11.0, 12.0, 13.0]
    viterbi_k = config.pqam_order ** (
        (config.tail_memory - 1) * config.dsm_order + config.dsm_order - 1
    )
    if viterbi_k > 65_536:
        raise ValueError("config too large for exact Viterbi; reduce P/L/V")
    schemes = {
        label: {"config": config, "k_branches": k, "n_packets": n_packets}
        for label, k in (("dfe_1", 1), ("dfe_16", 16), ("viterbi", viterbi_k))
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
    out = rows_to_sweeps(rows)
    if observer is not None:
        emit_sweep_report(
            observer,
            metrics_out,
            scenario={"figure": "17a", "distances_m": distances_m},
            summary={
                label: {"mean_ber": float(sum(p.ber for p in pts) / len(pts))}
                for label, pts in out.items()
            },
        )
    return out


def training_memory_sweep(
    memories: list[int] | None = None,
    distances_m: list[float] | None = None,
    n_packets: int = 4,
    rng=22,
) -> dict[int, list[SweepPoint]]:
    """Fig 17b: BER vs distance for tail-memory V = 1, 2, 3."""
    memories = memories or [1, 2, 3]
    distances_m = distances_m or [2.0, 4.0, 6.0, 7.5]
    gen = ensure_rng(rng)
    base = ModemConfig()
    out: dict[int, list[SweepPoint]] = {}
    for v in memories:
        config = replace(base, tail_memory=v)
        points = []
        for d in distances_m:
            sim = make_simulator(config=config, distance_m=d, rng=gen)
            m = sim.measure_ber(n_packets=n_packets, rng=gen)
            points.append(SweepPoint(x=d, ber=m.ber))
        out[v] = points
    return out
