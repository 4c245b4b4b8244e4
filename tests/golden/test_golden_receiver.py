"""Golden wall for the receiver's records, batch and streamed.

``cases/receiver_records.jsonl`` freezes, per case of ``receiver_cases.py``,
the complete receiver record — outputs (floats as ``float.hex``), the
failure and stage events or the raised exception, the stage metrics and
the span tree.  Every case is replayed through ``PhyReceiver.receive`` and
through the streaming receiver at whole, 256-sample and seeded random
chunkings (one case also at 1-sample chunks); each replay must reproduce
the frozen record exactly.  The chunk-partition wall compares the two
receivers with each other; this wall compares both with the record they
produced when it was frozen.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from receiver_cases import (
    ReceiverCase,
    build_inputs,
    build_simulator,
    chunk_plans,
    replay_batch,
    replay_stream,
    samples_digest,
)
from repro.obs import Observer

RECORDS = Path(__file__).parent / "cases" / "receiver_records.jsonl"


def _load() -> list[dict]:
    if not RECORDS.exists():
        return []
    return [json.loads(line) for line in RECORDS.read_text().splitlines() if line]


FROZEN = _load()


@pytest.mark.parametrize("frozen", FROZEN, ids=[f["spec"]["name"] for f in FROZEN])
def test_receiver_record_matches_frozen(frozen):
    case = ReceiverCase.from_dict(frozen["spec"])
    observer = Observer()
    sim = build_simulator(case, observer)
    captures, start, stop = build_inputs(case, sim)
    if samples_digest(captures) != frozen["samples_sha256"]:
        pytest.fail(
            f"{case.name}: the capture samples no longer match the frozen sha256 — "
            "the transmitter or channel changed, so this case cannot check the receiver"
        )
    expected = frozen["expected"]
    assert replay_batch(sim, observer, captures, start, stop) == expected, "batch"
    n = sum(x.size for x in captures)
    for label, sizes in chunk_plans(case, n).items():
        streamed = replay_stream(sim, observer, captures, start, stop, sizes)
        assert streamed == expected, f"stream {label}"


def test_corpus_covers_the_receiver_shapes():
    """Dropping a family of cases would silently narrow the wall."""
    specs = [ReceiverCase.from_dict(f["spec"]) for f in FROZEN]
    assert len(specs) >= 90
    assert {s.hardened for s in specs} == {True, False}
    assert {s.scenario for s in specs} >= {
        None, "payload_burst", "preamble_corruption", "training_burst", "truncation"
    }
    assert {s.bank for s in specs} == {"trained", "nominal", "genie"}
    assert {s.window for s in specs} >= {"bounded", "unbounded", "empty"}
    assert {s.cut for s in specs} >= {"preamble", "training", "payload"}
    assert {s.damage.split(":")[0] for s in specs if s.damage} >= {
        "search", "preamble", "payload"
    }
    assert any(len(s.capture_seeds) == 3 for s in specs)
    assert any(s.one_sample for s in specs)
    expected = [f["expected"] for f in FROZEN]
    codes = {
        o["failure"][1] if o["failure"] else None
        for e in expected
        for o in e.get("outputs", [])
    }
    assert codes >= {None, "crc_mismatch", "truncated_capture", "preamble_not_found"}
    assert any("raises" in e for e in expected)
