"""Fleet round-engine scaling: vectorized store vs frozen scalar reference.

The committed artifact ``benchmarks/results/BENCH_fleet.json`` records, for
a fixed chaos deployment (3 readers, occlusion scenario, 90 TDMA rounds),
the vectorized engine's wall-clock and throughput at fleet sizes from one
thousand to one million tags, plus the frozen scalar reference's time at
the gated size.

Protocol:

* **Bit-identity is asserted in the same run** — at the small sizes both
  engines run and their ``row()`` records (including ``timeline_digest``
  and the per-tag ``outcome_digest``) and per-tag ``snapshot()`` states
  must match field-for-field before any timing is trusted.
* **One timed run per (engine, size)** — a fleet run is already a
  sustained workload (hundreds of rounds); run-to-run noise is far below
  the gated margin.
* **Gate**: at the gated size (100k tags) the vectorized engine must
  complete the same scenario at least ``MIN_SPEEDUP``x faster than the
  scalar reference.

The failover mode (``--failover``) writes
``benchmarks/results/BENCH_fleet_failover.json``: the ``reader_crash``
scenario, where one crash detaches a third of the fleet at one heartbeat
check, re-associated as one array event per wave (the production fleet)
against one event per tag (``PerAttemptFleetSimulator``, the same fleet
with the per-tag heartbeat check).  Two deployments:

* **ample** — 300k tags with ``queue_capacity=n_tags`` (the benchmark
  deployment above, the setting of perfbench's ``fleet_failover_300k``):
  the whole wave is admitted in bulk.  Gate: at least ``3x``.
* **binding** — 60k tags, capacity 25k, default service settings, 40 s:
  the surviving readers fill up mid-wave, the rest of the wave takes the
  per-attempt path and a retry storm follows.  Gate: at least ``0.9x``.

Protocol: the full end state (``row()``, both logs, every tag-table array,
each reader's schedule and counters) is asserted equal on the first round,
before any timing is trusted; then ``FAILOVER_ROUNDS`` interleaved
rounds, alternating which arm runs first, and the gate is on the median
per-round time ratio (per-attempt / wave), reported with its quartiles.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_fleet_scale.py              # full artifact
    PYTHONPATH=src python benchmarks/bench_fleet_scale.py --failover   # failover artifact
    PYTHONPATH=src python -m pytest benchmarks/bench_fleet_scale.py    # slow-lane smoke
"""

from __future__ import annotations

import argparse
import platform
import statistics
import time

import numpy as np
import pytest

from _common import emit, emit_json, format_table

from repro.faults.network import NETWORK_SCENARIOS
from repro.network.fleet import FleetConfig, FleetSimulator

from reference.fleet_reference import (
    PerAttemptFleetSimulator,
    ReferenceFleetSimulator,
    fleet_end_state,
)

#: Fleet sizes measured for the vectorized engine.
SIZES = (1_000, 10_000, 100_000, 1_000_000)

#: Sizes at which the scalar reference also runs, with full bit-identity
#: asserts (row + per-tag snapshots) before timings are recorded.
IDENTITY_SIZES = (1_000, 10_000)

#: Size at which the speedup gate applies (the reference runs here too).
GATED_SIZE = 100_000

#: The vectorized engine must beat the reference by at least this factor
#: at the gated size.
MIN_SPEEDUP = 5.0

#: Chaos scenario played against every deployment.
SCENARIO = "occlusion"

SEED = 3


def build_config(n_tags: int) -> FleetConfig:
    """The benchmark deployment: airtime-saturated rounds, ample queues.

    ``queue_capacity=n_tags`` keeps admission un-sheared so runs across
    sizes exercise the same code paths; the small payload and overhead
    maximize served slots per round, which is the serving engines' axis.
    """
    return FleetConfig(
        n_readers=3,
        n_tags=n_tags,
        duration_s=90.0,
        queue_capacity=n_tags,
        airtime_duty=1.0,
        payload_bytes=8,
        overhead_s=0.002,
    )


def run_once(n_tags: int, simulator: type[FleetSimulator]):
    cfg = build_config(n_tags)
    plan = NETWORK_SCENARIOS[SCENARIO](cfg.duration_s)
    sim = simulator(cfg, fault_plan=plan, root_seed=SEED)
    t0 = time.perf_counter()
    result = sim.run()
    return time.perf_counter() - t0, result


def assert_bit_identical(ref, vec, n_tags: int) -> None:
    tag = f"n_tags={n_tags}"
    assert ref.row() == vec.row(), tag  # includes both digests
    for tag_ref, tag_vec in zip(ref.tags, vec.tags):
        assert tag_ref.link.snapshot() == tag_vec.link.snapshot(), tag
    assert ref.transitions == vec.transitions, tag
    assert ref.handoff_log == vec.handoff_log, tag


def run_benchmark() -> dict:
    store_wall: dict[int, float] = {}
    store_rows: dict[int, dict] = {}
    reference_wall: dict[int, float] = {}

    for n_tags in SIZES:
        wall, result = run_once(n_tags, FleetSimulator)
        store_wall[n_tags] = wall
        store_rows[n_tags] = result.row()
        if n_tags in IDENTITY_SIZES or n_tags == GATED_SIZE:
            ref_wall, ref_result = run_once(n_tags, ReferenceFleetSimulator)
            reference_wall[n_tags] = ref_wall
            if n_tags in IDENTITY_SIZES:
                assert_bit_identical(ref_result, result, n_tags)
            else:
                # Full per-tag compare is wasteful at the gated size; the
                # digests + counters pin the dynamics and every tag's
                # delivery outcome.
                assert ref_result.row() == result.row(), f"n_tags={n_tags}"

    n_rounds = int(build_config(SIZES[0]).duration_s)  # round_interval_s=1
    speedup = reference_wall[GATED_SIZE] / store_wall[GATED_SIZE]
    return {
        "benchmark": "fleet_scale",
        "operating_point": {
            "scenario": SCENARIO,
            "n_readers": 3,
            "duration_s": 90.0,
            "n_rounds": n_rounds,
            "sizes": list(SIZES),
            "identity_checked_sizes": list(IDENTITY_SIZES),
            "gated_size": GATED_SIZE,
            "seed": SEED,
        },
        "protocol": {
            "kind": "single sustained chaos run per engine and size",
            "bit_exact_checked": True,
            "min_speedup": MIN_SPEEDUP,
        },
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "processor": platform.machine(),
        },
        "store_wall_s": {str(n): round(w, 3) for n, w in store_wall.items()},
        "reference_wall_s": {str(n): round(w, 3) for n, w in reference_wall.items()},
        "store_tag_rounds_per_s": {
            str(n): round(n * n_rounds / w, 1) for n, w in store_wall.items()
        },
        "speedup_at_gated_size": round(speedup, 2),
        "delivered": {str(n): row["delivered"] for n, row in store_rows.items()},
        "timeline_digest": {
            str(n): row["timeline_digest"] for n, row in store_rows.items()
        },
        "outcome_digest": {
            str(n): row["outcome_digest"] for n, row in store_rows.items()
        },
    }


def render(payload: dict) -> str:
    op = payload["operating_point"]
    rows = []
    for n in op["sizes"]:
        key = str(n)
        ref = payload["reference_wall_s"].get(key)
        rows.append(
            (
                f"{n:,} tags",
                payload["store_wall_s"][key],
                payload["store_tag_rounds_per_s"][key],
                ref if ref is not None else "-",
                round(ref / payload["store_wall_s"][key], 2) if ref else "-",
            )
        )
    return format_table(
        ["fleet size", "store wall (s)", "tag-rounds/s", "reference wall (s)", "speedup"],
        rows,
        title=(
            f"Vectorized fleet round engine - {op['scenario']} chaos, "
            f"{op['n_readers']} readers, {op['n_rounds']} rounds, "
            f"bit-exact vs frozen scalar reference"
        ),
    )


@pytest.mark.slow
def test_bench_fleet_scale():
    """Slow-lane smoke: regenerate BENCH_fleet.json and gate the speedup.

    Bit-identity (rows + per-tag snapshots at the small sizes, rows at the
    gated size) is asserted inside :func:`run_benchmark` before any timing
    is recorded; the gate then demands >= MIN_SPEEDUP x at 100k tags.
    """
    payload = run_benchmark()
    emit("BENCH_fleet_table", render(payload))
    path = emit_json("BENCH_fleet", payload)
    assert path.exists()
    assert payload["speedup_at_gated_size"] >= MIN_SPEEDUP, (
        f"vectorized engine fell below {MIN_SPEEDUP}x the scalar reference "
        f"at {GATED_SIZE:,} tags: {payload['speedup_at_gated_size']}x"
    )


#: Failover deployments: name -> (config, minimum median speedup).
FAILOVER_CASES = {
    "ample": (build_config(300_000), 3.0),
    "binding": (
        FleetConfig(n_readers=3, n_tags=60_000, duration_s=40.0, queue_capacity=25_000),
        0.9,
    ),
}

FAILOVER_SCENARIO = "reader_crash"

FAILOVER_SEED = 0

#: Interleaved timing rounds per failover case.
FAILOVER_ROUNDS = 5


def run_failover_once(config: FleetConfig, simulator: type[FleetSimulator]):
    plan = NETWORK_SCENARIOS[FAILOVER_SCENARIO](config.duration_s)
    sim = simulator(config, fault_plan=plan, root_seed=FAILOVER_SEED)
    t0 = time.perf_counter()
    result = sim.run()
    return time.perf_counter() - t0, sim, result


def run_failover(rounds: int = FAILOVER_ROUNDS) -> dict:
    arms = {"wave": FleetSimulator, "per_attempt": PerAttemptFleetSimulator}
    cases = {}
    for name, (config, min_speedup) in FAILOVER_CASES.items():
        walls: dict[str, list[float]] = {arm: [] for arm in arms}
        for k in range(rounds):
            order = list(arms) if k % 2 == 0 else list(arms)[::-1]
            states = {}
            for arm in order:
                wall, sim, result = run_failover_once(config, arms[arm])
                walls[arm].append(wall)
                if k == 0:
                    states[arm] = fleet_end_state(sim, result)
                del sim, result
            if k == 0:
                for key in states["wave"]:
                    assert states["wave"][key] == states["per_attempt"][key], (name, key)
                row = states["wave"]["row"]
                del states
        ratios = sorted(p / w for p, w in zip(walls["per_attempt"], walls["wave"]))
        q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        cases[name] = {
            "n_tags": config.n_tags,
            "queue_capacity": config.queue_capacity,
            "duration_s": config.duration_s,
            "wave_wall_s": [round(w, 3) for w in walls["wave"]],
            "per_attempt_wall_s": [round(w, 3) for w in walls["per_attempt"]],
            "speedup_median": round(median, 2),
            "speedup_iqr": [round(q1, 2), round(q3, 2)],
            "min_speedup": min_speedup,
            "handoffs": row["handoffs"],
            "shed_associations": row["shed_associations"],
            "events_processed": row["events_processed"],
            "timeline_digest": row["timeline_digest"],
            "outcome_digest": row["outcome_digest"],
        }
    return {
        "benchmark": "fleet_failover",
        "operating_point": {"scenario": FAILOVER_SCENARIO, "n_readers": 3, "seed": FAILOVER_SEED},
        "protocol": {
            "kind": "interleaved rounds, arm order alternating; median per-round ratio",
            "rounds": rounds,
            "full_state_identity_checked": True,
        },
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "processor": platform.machine(),
        },
        "cases": cases,
    }


def render_failover(payload: dict) -> str:
    rows = [
        (
            name,
            f"{case['n_tags']:,}",
            f"{case['queue_capacity']:,}",
            statistics.median(case["per_attempt_wall_s"]),
            statistics.median(case["wave_wall_s"]),
            f"{case['speedup_median']} [{case['speedup_iqr'][0]}, {case['speedup_iqr'][1]}]",
            case["min_speedup"],
        )
        for name, case in payload["cases"].items()
    ]
    return format_table(
        ["case", "tags", "capacity", "per-attempt wall (s)", "wave wall (s)",
         "speedup median [IQR]", "gate"],
        rows,
        title=(
            f"Detach wave as one array event vs one event per tag - "
            f"{payload['operating_point']['scenario']}, 3 readers, "
            f"{payload['protocol']['rounds']} interleaved rounds, full state identical"
        ),
    )


def failover_misses(payload: dict) -> list[str]:
    return [
        f"{name}: median {case['speedup_median']}x below the {case['min_speedup']}x gate"
        for name, case in payload["cases"].items()
        if case["speedup_median"] < case["min_speedup"]
    ]


@pytest.mark.slow
def test_bench_fleet_failover():
    """Slow-lane smoke: regenerate BENCH_fleet_failover.json and gate both cases."""
    payload = run_failover()
    emit("BENCH_fleet_failover_table", render_failover(payload))
    assert emit_json("BENCH_fleet_failover", payload).exists()
    assert not failover_misses(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--failover", action="store_true",
                        help="time the failover wave instead of the scaling sweep")
    args = parser.parse_args(argv)
    if args.failover:
        payload = run_failover()
        emit("BENCH_fleet_failover_table", render_failover(payload))
        print(f"wrote {emit_json('BENCH_fleet_failover', payload)}")
        misses = failover_misses(payload)
        for miss in misses:
            print(f"GATE MISS {miss}")
        return 1 if misses else 0
    payload = run_benchmark()
    emit("BENCH_fleet_table", render(payload))
    path = emit_json("BENCH_fleet", payload)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
