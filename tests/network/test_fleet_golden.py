"""Golden replay of the fleet's shared per-tag bookkeeping.

Both serving engines share the simulator's association, heartbeat and
handoff bookkeeping, so the engine-equivalence wall cannot see a defect in
it: a wrong ``silent_since`` or a lost detach count would agree on both
sides.  This wall pins that bookkeeping to values recorded from the
object-per-tag implementation the struct-of-arrays tag table replaced — the
full ``row()`` plus every tag's association fields, handoff latencies and
link snapshot — on a small fleet under every named chaos scenario, plus
one over-subscribed fleet (``queue_capacity`` below the tags each reader
would take) so the sequential initial association and the t=0
re-association wave run too.
Floats are stored as ``float.hex`` strings, so the replay is exact.

Regenerate deliberately (a knowing behaviour change, never to make a red
test green), from the repository root::

    PYTHONPATH=src python tests/network/test_fleet_golden.py --force
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import pytest

from repro.faults.network import network_scenario, network_scenario_names
from repro.network.fleet import FleetConfig, FleetSimulator

GOLDEN = Path(__file__).parent / "golden" / "fleet_bookkeeping.json"

SEED = 1234

SMALL = FleetConfig(n_readers=3, n_tags=24, duration_s=20.0, queue_capacity=12)

#: ~13 tags per reader against room for 10: admission sheds at t=0.
OVERSUBSCRIBED = FleetConfig(n_readers=3, n_tags=40, duration_s=20.0, queue_capacity=10)

#: Case name -> (config, scenario or None).
CASES = {
    "none": (SMALL, None),
    **{name: (SMALL, name) for name in network_scenario_names()},
    "oversubscribed_reader_crash": (OVERSUBSCRIBED, "reader_crash"),
}


def _exact(value):
    """JSON-safe and exact: floats become ``float.hex`` strings."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return float(value).hex()
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    return value


def capture(case: str, engine: str = "store") -> dict:
    """Run one case; its row and per-tag bookkeeping, floats exact."""
    config, scenario = CASES[case]
    plan = network_scenario(scenario, config.duration_s) if scenario else None
    result = FleetSimulator(config, fault_plan=plan, root_seed=SEED, engine=engine).run()
    tags = [
        {
            "reader_id": tag.reader_id,
            "last_heard": tag.last_heard,
            "silent_since": tag.silent_since,
            "prev_reader": tag.prev_reader,
            "reassoc_attempts": tag.reassoc_attempts,
            "handoffs": tag.handoffs,
            "detaches": tag.detaches,
            "handoff_latencies": list(tag.handoff_latencies),
            "link": tag.link.snapshot(),
        }
        for tag in result.tags
    ]
    return _exact({"row": result.row(), "tags": tags})


def _dump(cases: dict) -> str:
    """One line per tag, so a diff points at the tag that moved."""
    lines = ["{"]
    for i, (name, data) in enumerate(cases.items()):
        lines.append(f"  {json.dumps(name)}: {{")
        lines.append(f'    "row": {json.dumps(data["row"], sort_keys=True)},')
        lines.append('    "tags": [')
        tags = [json.dumps(t, sort_keys=True) for t in data["tags"]]
        lines.append(",\n".join(f"      {t}" for t in tags))
        lines.append("    ]")
        lines.append("  }" + ("," if i + 1 < len(cases) else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert list(golden) == list(CASES)


@pytest.mark.parametrize("engine", ["store", "reference"])
@pytest.mark.parametrize("case", list(CASES))
def test_bookkeeping_replays_exactly(golden, case, engine):
    got = capture(case, engine)
    want = golden[case]
    assert got["row"] == want["row"]
    assert len(got["tags"]) == len(want["tags"])
    for tag_id, (g, w) in enumerate(zip(got["tags"], want["tags"])):
        assert g == w, f"tag {tag_id}"


def test_oversubscribed_case_sheds_at_start(golden):
    """The over-subscribed fleet really runs the shed/re-associate path."""
    config, _ = CASES["oversubscribed_reader_crash"]
    assert config.n_tags > config.n_readers * config.queue_capacity
    row = golden["oversubscribed_reader_crash"]["row"]
    assert row["shed_associations"] > 0
    assert any(t["reassoc_attempts"] > 0 for t in golden["oversubscribed_reader_crash"]["tags"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true", help="overwrite the golden")
    args = parser.parse_args(argv)
    if GOLDEN.exists() and not args.force:
        print(f"{GOLDEN} exists; pass --force to regenerate", file=sys.stderr)
        return 1
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(_dump({case: capture(case) for case in CASES}))
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
