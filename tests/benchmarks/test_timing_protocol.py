"""The perf benches' shared timing protocol and entry (``benchmarks/_timing.py``).

Cheap fake arms and fake benches only: these check the schedule, the
summary arithmetic and how a gate miss reaches pytest and the shell, not
any real workload.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCHMARKS_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
if str(BENCHMARKS_DIR) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS_DIR))

import _common  # noqa: E402
import _timing  # noqa: E402


def _recording_arms(names, calls):
    return {name: (lambda name=name: calls.append(name)) for name in names}


class TestRounds:
    def test_each_arm_runs_once_per_round_starting_at_r_mod_n(self):
        calls = []
        seconds = _timing.time_rounds(_recording_arms("abc", calls), n_rounds=5)
        rounds = [calls[i : i + 3] for i in range(0, len(calls), 3)]
        assert rounds == [
            ["a", "b", "c"],
            ["b", "c", "a"],
            ["c", "a", "b"],
            ["a", "b", "c"],
            ["b", "c", "a"],
        ]
        assert list(seconds) == ["a", "b", "c"]
        assert all(len(ts) == 5 and min(ts) >= 0.0 for ts in seconds.values())

    def test_two_arms_alternate(self):
        calls = []
        _timing.time_rounds(_recording_arms(["x", "y"], calls), n_rounds=4)
        assert calls == ["x", "y", "y", "x", "x", "y", "y", "x"]

    def test_prepare_builds_each_runs_argument(self):
        calls = []
        _timing.time_rounds(
            {"a": calls.append, "b": calls.append},
            n_rounds=2,
            prepare=lambda name: f"{name}{len(calls)}",
        )
        assert calls == ["a0", "b1", "b2", "a3"]


class TestSummary:
    def test_median_and_inclusive_quartiles_of_per_round_ratios(self):
        summary = _timing.ratio([2.0, 4.0, 9.0, 8.0], [2.0, 2.0, 3.0, 2.0])
        # ratios 1, 2, 3, 4: inclusive quartiles 1.75 and 3.25 (the
        # exclusive method would give 1.25 and 3.75).
        assert summary == {"median": 2.5, "iqr": [1.75, 3.25], "rounds": [1.0, 2.0, 3.0, 4.0]}
        assert _timing.cell(summary) == "2.5 [1.75, 3.25]"

    def test_rounds_to_three_decimals(self):
        summary = _timing.summarize([1 / 3, 2 / 3, 1.0])
        assert summary == {"median": 0.667, "iqr": [0.5, 0.833], "rounds": [0.333, 0.667, 1.0]}

    def test_ratio_rejects_unpaired_rounds(self):
        with pytest.raises(ValueError):
            _timing.ratio([1.0, 2.0, 3.0], [1.0, 2.0])


def _fake_bench(met: bool) -> _timing.Bench:
    return _timing.Bench(
        artifact="BENCH_fake",
        table="BENCH_fake_table",
        measure=lambda: {"speedup": _timing.ratio([3.0, 4.0, 5.0], [1.0, 1.0, 1.0])},
        render=lambda payload: f"fake speedup {_timing.cell(payload['speedup'])}",
        gates=lambda payload: {"fake speedup >= 2x": met},
    )


class TestEntry:
    def test_writes_table_and_stamped_json(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_common, "RESULTS_DIR", tmp_path)
        payload = _timing.run(_fake_bench(met=True))
        assert (tmp_path / "BENCH_fake_table.txt").read_text() == "fake speedup 4 [3.5, 4.5]\n"
        written = json.loads((tmp_path / "BENCH_fake.json").read_text())
        assert written == payload
        assert written["gates"] == {"fake speedup >= 2x": True}
        assert set(written["machine"]) == {"python", "numpy", "processor"}

    def test_gate_miss_fails_the_test_after_writing_the_artifact(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_common, "RESULTS_DIR", tmp_path)
        with pytest.raises(AssertionError, match="fake speedup >= 2x"):
            _timing.run(_fake_bench(met=False))
        written = json.loads((tmp_path / "BENCH_fake.json").read_text())
        assert written["gates"] == {"fake speedup >= 2x": False}

    @pytest.mark.parametrize("met, status", [(True, 0), (False, 1)])
    def test_script_exit_status(self, tmp_path, met, status):
        script = tmp_path / "bench_fake.py"
        script.write_text(
            textwrap.dedent(
                f"""
                import sys
                from pathlib import Path

                sys.path.insert(0, {str(BENCHMARKS_DIR)!r})
                sys.path.insert(0, {str(Path(__file__).parent)!r})
                import _common
                import _timing
                from test_timing_protocol import _fake_bench

                _common.RESULTS_DIR = Path(sys.argv[1])

                if __name__ == "__main__":
                    _timing.run(_fake_bench(met={met}))
                """
            )
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run(
            [sys.executable, str(script), str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == status, done.stderr
        assert ("GATE MISS" in done.stdout) is not met
