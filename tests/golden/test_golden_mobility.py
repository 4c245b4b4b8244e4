"""Golden wall for the mobility path (the §8 re-sync frame and its receiver).

``cases/mobility_records.jsonl`` freezes, per case of ``mobility_cases.py``,
one record per packet: BER and equalizer MSE as ``float.hex``, the CRC
verdict, the detection offset and flag, the payload and a hash of the
decided levels.  Every case is replayed through ``MobileLinkSimulator`` and
must reproduce its records exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from mobility_cases import DRIFT_RATES_DEG_S, SYNC_INTERVALS, MobilityCase, run_case

RECORDS = Path(__file__).parent / "cases" / "mobility_records.jsonl"


def _load() -> list[dict]:
    if not RECORDS.exists():
        return []
    return [json.loads(line) for line in RECORDS.read_text().splitlines() if line]


FROZEN = _load()


@pytest.mark.parametrize("frozen", FROZEN, ids=[f["spec"]["name"] for f in FROZEN])
def test_mobility_record_matches_frozen(frozen):
    case = MobilityCase.from_dict(frozen["spec"])
    assert run_case(case) == frozen["packets"]


def test_corpus_covers_the_mobility_shapes():
    """Dropping a family of cases would silently narrow the wall."""
    from repro.channel.trajectory import trajectory_names

    specs = [MobilityCase.from_dict(f["spec"]) for f in FROZEN]
    assert len(specs) == 32
    drift = [s for s in specs if s.trajectory is None]
    assert {(s.drift_deg_s, s.sync_interval_slots, s.resync) for s in drift} == {
        (rate, interval, resync)
        for rate in DRIFT_RATES_DEG_S
        for interval in SYNC_INTERVALS
        for resync in (True, False)
    }
    assert {(s.trajectory, s.resync) for s in specs if s.trajectory is not None} == {
        (name, resync) for name in trajectory_names() for resync in (True, False)
    }
    packets = [p for f in FROZEN for p in f["packets"]]
    assert len(packets) == 96
    assert {p["crc_ok"] for p in packets} == {True, False}
