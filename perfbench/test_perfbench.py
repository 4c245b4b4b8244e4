"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
from repro.modem.config import ModemConfig
from repro.utils.opcache import set_global_opcache
from spans import SpanRecorder
from workloads import STREAM_CONFIG, WORKLOADS, Fleet, PhyBatch, PhyStream, fleet_record


@pytest.fixture(autouse=True)
def _reset_opcache():
    yield
    set_global_opcache(None)


def tiny(name: str):
    """Each workload at a size that runs in seconds, same code paths."""
    return {
        "phy_batch_8k": lambda: PhyBatch(config=ModemConfig(**STREAM_CONFIG),
                                         distances=(2.0, 7.0), payload_bytes=8),
        "phy_stream_1k": lambda: PhyStream(n_captures=4),
        "fleet_steady_1m": lambda: Fleet("fleet_steady_tiny", 2_000, "occlusion"),
        "fleet_failover_300k": lambda: Fleet("fleet_failover_tiny", 1_000, "reader_crash"),
    }[name]()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_its_checks(name):
    workload = tiny(name)
    outcome, raw = run.run_plain(workload, seed=3, seconds=0.2)
    assert run.problems_of(outcome["results"]) == []
    assert outcome["final"] == []
    assert all(value > 0 for value, _ in outcome["metrics"].values())
    assert raw["speed_samples"]


@pytest.mark.parametrize("name", ["phy_stream_1k", "fleet_failover_300k"])
def test_traced_run_covers_its_wall_time(name):
    outcome, raw = run.run_traced(tiny(name), seed=3, seconds=0.2)
    assert outcome["final"] == []  # includes the coverage check
    low, high = run.COVERAGE_RANGE
    assert low <= outcome["metrics"]["trace.self_coverage"][0] <= high
    layer = "phy.streaming.pushes" if name.startswith("phy") else "network.core.events"
    assert outcome["metrics"][layer][0] > 0
    assert raw["spans"]["spans"]


def test_coverage_check_sees_time_outside_spans():
    rec = SpanRecorder()
    t0 = time.perf_counter()
    root = rec.open("root")
    child = rec.open("child")
    time.sleep(0.01)
    rec.close(child)
    rec.close(root)
    time.sleep(0.01)  # benchmark time that no span covers
    wall = time.perf_counter() - t0
    assert sum(rec.self_times()) == pytest.approx(rec.durations()[root])
    assert rec.coverage(wall) < run.COVERAGE_RANGE[0]


def test_closing_a_span_closes_the_spans_left_open_inside_it():
    rec = SpanRecorder()
    root = rec.open("root")
    rec.open("left-open")
    rec.close(root)
    assert min(rec.self_times()) >= 0
    with pytest.raises(RuntimeError):
        rec.close(root)


@pytest.mark.parametrize("name", ["phy_stream_1k", "phy_batch_8k"])
def test_corrupted_output_trips_the_recorded_digest(name):
    table = json.loads(run.DIGESTS.read_text())
    workload = WORKLOADS[name]()
    workload.setup(table["seed"])
    with workload.probes():
        records = [run.safe_op(workload, n).record for n in range(workload.digest_ops)]
    digest, problem = run.check_digest(name, table["seed"], records, workload.digest_ops, table)
    assert problem is None and digest == table["workloads"][name]
    corrupted = list(records)
    corrupted[-1] = corrupted[-1][:-1] + ("0" if corrupted[-1][-1] != "0" else "1")
    _, problem = run.check_digest(name, table["seed"], corrupted, workload.digest_ops, table)
    assert problem is not None


def test_fleet_digest_covers_per_tag_outcomes():
    workload = tiny("fleet_steady_1m")
    workload.setup(3)
    result = workload.sim.run()
    record = fleet_record(result)
    table = {"seed": 3, "workloads": {workload.name: run.outcome_digest([record])}}
    assert run.check_digest(workload.name, 3, [record], 1, table)[1] is None
    # Move one delivered frame between tags: totals and timeline unchanged.
    delivered = result.store.delivered
    src = int(delivered.argmax())
    delivered[src] -= 1
    delivered[(src + 1) % delivered.size] += 1
    assert run.check_digest(workload.name, 3, [fleet_record(result)], 1, table)[1] is not None


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / run.HERE.name / "run.py"),
         "--workload", "phy_batch_8k", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
