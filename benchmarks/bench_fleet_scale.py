"""Fleet round-engine scaling: vectorized store vs frozen scalar reference.

The committed artifact ``benchmarks/results/BENCH_fleet.json`` records, for
a fixed chaos deployment (3 readers, occlusion scenario, 90 TDMA rounds),
the vectorized engine's wall-clock and throughput at fleet sizes from one
thousand to one million tags, plus the frozen scalar reference's time at
1 k, 10 k and the gated 100 k tags.  One run of an arm is one fleet run
(``sim.run()``; the simulator is built untimed).

Before any timing, both engines run at the small sizes and their ``row()``
records (including ``timeline_digest`` and the per-tag ``outcome_digest``),
per-tag ``snapshot()`` states and logs must match field-for-field; at the
gated size their rows must match.  Gate: at 100 k tags the vectorized
engine is at least ``MIN_SPEEDUP``x the scalar reference.

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

The full end state (``row()``, both logs, every tag-table array, each
reader's schedule and counters) of the two arms is asserted equal before
any timing.  Timing protocol and gate rules: ``_timing.py``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_fleet_scale.py              # scaling artifact + gate
    PYTHONPATH=src python benchmarks/bench_fleet_scale.py --failover   # failover artifact + gates
    PYTHONPATH=src python -m pytest benchmarks/bench_fleet_scale.py    # both, slow lane
"""

from __future__ import annotations

import argparse
import statistics

import pytest

import _timing
from _common import format_table

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

REFERENCE_SIZES = IDENTITY_SIZES + (GATED_SIZE,)

#: The vectorized engine must beat the reference by at least this factor
#: at the gated size.
MIN_SPEEDUP = 5.0

#: Chaos scenario played against every deployment.
SCENARIO = "occlusion"

SEED = 3

N_ROUNDS = 5


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


def build_sim(n_tags: int, simulator: type[FleetSimulator]) -> FleetSimulator:
    cfg = build_config(n_tags)
    return simulator(cfg, fault_plan=NETWORK_SCENARIOS[SCENARIO](cfg.duration_s), root_seed=SEED)


def assert_bit_identical(ref, vec, n_tags: int) -> None:
    tag = f"n_tags={n_tags}"
    assert ref.row() == vec.row(), tag  # includes both digests
    for tag_ref, tag_vec in zip(ref.tags, vec.tags):
        assert tag_ref.link.snapshot() == tag_vec.link.snapshot(), tag
    assert ref.transitions == vec.transitions, tag
    assert ref.handoff_log == vec.handoff_log, tag


def _run(sim: FleetSimulator):
    return sim.run()


def run_benchmark() -> dict:
    rows: dict[int, dict] = {}
    for n_tags in SIZES:
        result = build_sim(n_tags, FleetSimulator).run()
        rows[n_tags] = result.row()
        if n_tags in IDENTITY_SIZES:
            assert_bit_identical(build_sim(n_tags, ReferenceFleetSimulator).run(), result, n_tags)
        elif n_tags == GATED_SIZE:
            # Full per-tag compare is wasteful at the gated size; the
            # digests + counters pin the dynamics and every tag's
            # delivery outcome.
            ref_row = build_sim(n_tags, ReferenceFleetSimulator).run().row()
            assert ref_row == rows[n_tags], f"n_tags={n_tags}"
        del result

    engines = {f"store_{n}": (n, FleetSimulator) for n in SIZES}
    engines.update({f"reference_{n}": (n, ReferenceFleetSimulator) for n in REFERENCE_SIZES})
    seconds = _timing.time_rounds(
        dict.fromkeys(engines, _run), N_ROUNDS, prepare=lambda arm: build_sim(*engines[arm])
    )

    n_rounds = int(build_config(SIZES[0]).duration_s)  # round_interval_s=1
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
            "kind": _timing.PROTOCOL,
            "n_rounds": N_ROUNDS,
            "bit_exact_checked": True,
            "min_speedup": MIN_SPEEDUP,
        },
        "store_wall_s": {str(n): _timing.summarize(seconds[f"store_{n}"]) for n in SIZES},
        "reference_wall_s": {
            str(n): _timing.summarize(seconds[f"reference_{n}"]) for n in REFERENCE_SIZES
        },
        "store_tag_rounds_per_s": {
            str(n): round(n * n_rounds / statistics.median(seconds[f"store_{n}"]), 1)
            for n in SIZES
        },
        "speedup": {
            str(n): _timing.ratio(seconds[f"reference_{n}"], seconds[f"store_{n}"])
            for n in REFERENCE_SIZES
        },
        "delivered": {str(n): row["delivered"] for n, row in rows.items()},
        "timeline_digest": {str(n): row["timeline_digest"] for n, row in rows.items()},
        "outcome_digest": {str(n): row["outcome_digest"] for n, row in rows.items()},
    }


def gates(payload: dict) -> dict[str, bool]:
    speedup = payload["speedup"][str(GATED_SIZE)]["median"]
    gate = f"store {speedup}x >= {MIN_SPEEDUP:g}x the reference at {GATED_SIZE:,} tags"
    return {gate: speedup >= MIN_SPEEDUP}


def render(payload: dict) -> str:
    op = payload["operating_point"]
    rows = []
    for n in op["sizes"]:
        key = str(n)
        rows.append(
            (
                f"{n:,} tags",
                _timing.cell(payload["store_wall_s"][key]),
                payload["store_tag_rounds_per_s"][key],
                _timing.cell(payload["reference_wall_s"][key])
                if key in payload["reference_wall_s"]
                else "-",
                _timing.cell(payload["speedup"][key]) if key in payload["speedup"] else "-",
            )
        )
    return format_table(
        ["fleet size", "store wall (s)", "tag-rounds/s", "reference wall (s)", "speedup"],
        rows,
        title=(
            f"Vectorized fleet round engine - {op['scenario']} chaos, "
            f"{op['n_readers']} readers, {op['n_rounds']} rounds, "
            f"bit-exact vs frozen scalar reference; median [IQR] over "
            f"{payload['protocol']['n_rounds']} timing rounds"
        ),
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

FAILOVER_ROUNDS = 5

FAILOVER_ARMS = {"wave": FleetSimulator, "per_attempt": PerAttemptFleetSimulator}


def build_failover_sim(config: FleetConfig, simulator: type[FleetSimulator]) -> FleetSimulator:
    plan = NETWORK_SCENARIOS[FAILOVER_SCENARIO](config.duration_s)
    return simulator(config, fault_plan=plan, root_seed=FAILOVER_SEED)


def failover_end_state(config: FleetConfig, simulator: type[FleetSimulator]) -> dict:
    sim = build_failover_sim(config, simulator)
    return fleet_end_state(sim, sim.run())


def run_failover() -> dict:
    cases = {}
    for name, (config, min_speedup) in FAILOVER_CASES.items():
        wave = failover_end_state(config, FleetSimulator)
        per_attempt = failover_end_state(config, PerAttemptFleetSimulator)
        for key in wave:
            assert wave[key] == per_attempt[key], (name, key)
        row = wave["row"]
        del wave, per_attempt

        seconds = _timing.time_rounds(
            dict.fromkeys(FAILOVER_ARMS, _run),
            FAILOVER_ROUNDS,
            prepare=lambda arm, config=config: build_failover_sim(config, FAILOVER_ARMS[arm]),
        )
        cases[name] = {
            "n_tags": config.n_tags,
            "queue_capacity": config.queue_capacity,
            "duration_s": config.duration_s,
            "wave_wall_s": _timing.summarize(seconds["wave"]),
            "per_attempt_wall_s": _timing.summarize(seconds["per_attempt"]),
            "speedup": _timing.ratio(seconds["per_attempt"], seconds["wave"]),
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
            "kind": _timing.PROTOCOL,
            "n_rounds": FAILOVER_ROUNDS,
            "full_state_identity_checked": True,
        },
        "cases": cases,
    }


def failover_gates(payload: dict) -> dict[str, bool]:
    met = {}
    for name, case in payload["cases"].items():
        speedup, floor = case["speedup"]["median"], case["min_speedup"]
        met[f"{name}: wave {speedup}x >= {floor}x per-attempt"] = speedup >= floor
    return met


def render_failover(payload: dict) -> str:
    rows = [
        (
            name,
            f"{case['n_tags']:,}",
            f"{case['queue_capacity']:,}",
            _timing.cell(case["per_attempt_wall_s"]),
            _timing.cell(case["wave_wall_s"]),
            _timing.cell(case["speedup"]),
            case["min_speedup"],
        )
        for name, case in payload["cases"].items()
    ]
    return format_table(
        ["case", "tags", "capacity", "per-attempt wall (s)", "wave wall (s)", "speedup", "gate"],
        rows,
        title=(
            f"Detach wave as one array event vs one event per tag - "
            f"{payload['operating_point']['scenario']}, 3 readers, full state identical; "
            f"median [IQR] over {payload['protocol']['n_rounds']} timing rounds"
        ),
    )


SCALE = _timing.Bench("BENCH_fleet", "BENCH_fleet_table", run_benchmark, render, gates)

FAILOVER = _timing.Bench(
    "BENCH_fleet_failover",
    "BENCH_fleet_failover_table",
    run_failover,
    render_failover,
    failover_gates,
)


@pytest.mark.slow
def test_bench_fleet_scale():
    _timing.run(SCALE)


@pytest.mark.slow
def test_bench_fleet_failover():
    _timing.run(FAILOVER)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--failover",
        action="store_true",
        help="time the failover wave instead of the scaling sweep",
    )
    _timing.run(FAILOVER if parser.parse_args().failover else SCALE)
