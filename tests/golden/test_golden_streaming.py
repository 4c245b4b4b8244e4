"""Golden wall for the streaming chunked receiver.

Each frozen case stores a capture waveform, the exact chunk partition it was
streamed with, and the full receiver record (payload, levels, detection,
failure, stage events) produced at freeze time.  Replaying the stored chunks
through :class:`~repro.phy.streaming.StreamingReceiver` must reproduce that
record *bit-exactly* — this is the wall behind which the stream's preamble
commit, the hand-off to the receiver's stage sequence, and the array-backend
seam can be rewritten.

The four committed cases pin the seam-sensitive shapes: a clean decode, a
preamble split across three chunk boundaries, a truncated final chunk (the
hardened ``truncated_capture`` ladder), and an interference burst straddling
a chunk seam (``crc_mismatch``).
"""

from __future__ import annotations

from repro.modem.config import ModemConfig
from repro.phy.pipeline import PacketSimulator
from repro.phy.streaming import StreamingReceiver


def _rebuild_receiver(meta: dict):
    """The generator's receiver, reconstructed from frozen metadata.

    The fault plan is deliberately absent: faults only shape the *capture*
    (already frozen in the npz), never the receiver, whose trained bank is
    fully determined by (config, payload_bytes, sim_seed).
    """
    sim = PacketSimulator(
        config=ModemConfig(**meta["config"]),
        payload_bytes=meta["payload_bytes"],
        rng=meta["sim_seed"],
    )
    return sim.receiver


def _replay(meta: dict, arrays: dict):
    rx = StreamingReceiver(
        _rebuild_receiver(meta), search_stop=meta["search_stop"]
    )
    x = arrays["x"]
    outs, lo = [], 0
    for size in arrays["chunk_sizes"]:
        outs.extend(rx.push(x[lo : lo + int(size)]))
        lo += int(size)
    outs.extend(rx.close())
    assert len(outs) == 1, f"expected exactly one capture record, got {len(outs)}"
    return outs[0]


def test_streaming_golden_record_is_bit_exact(golden, stream_case):
    meta = golden.load_manifest()[stream_case]
    arrays = golden.load_case(stream_case)
    out = _replay(meta, arrays)

    assert out.payload == arrays["payload"].tobytes(), stream_case
    assert bool(out.crc_ok) == meta["crc_ok"], stream_case
    golden.assert_arrays_equal(
        arrays["levels_i"], out.levels_i, case=stream_case, field="levels_i"
    )
    golden.assert_arrays_equal(
        arrays["levels_q"], out.levels_q, case=stream_case, field="levels_q"
    )
    golden.assert_scalar_equal(
        arrays["mse"][()], out.equalizer_mse, case=stream_case, field="mse"
    )
    golden.assert_scalar_equal(
        int(arrays["offset"][()]),
        out.detection.offset,
        case=stream_case,
        field="offset",
    )
    golden.assert_scalar_equal(
        arrays["normalised_cost"][()],
        out.detection.normalised_cost,
        case=stream_case,
        field="normalised_cost",
    )
    golden.assert_scalar_equal(
        arrays["snr_est_db"][()],
        out.snr_est_db,
        case=stream_case,
        field="snr_est_db",
    )


def test_streaming_golden_failure_and_events_match(golden, stream_case):
    meta = golden.load_manifest()[stream_case]
    arrays = golden.load_case(stream_case)
    out = _replay(meta, arrays)

    if meta["failure"] is None:
        assert out.failure is None, f"{stream_case}: unexpected {out.failure}"
    else:
        assert out.failure is not None, f"{stream_case}: failure vanished"
        assert out.failure.stage.value == meta["failure"]["stage"], stream_case
        assert out.failure.code == meta["failure"]["code"], stream_case
        assert out.failure.detail == meta["failure"]["detail"], stream_case
    actual_events = [[e.stage.value, e.status, e.detail] for e in out.events]
    assert actual_events == meta["events"], stream_case


def test_streaming_goldens_cover_the_four_seam_shapes(golden):
    """The wall must keep covering clean / preamble-split / truncation /
    fault-at-seam; dropping a case silently would narrow the protection."""
    manifest = golden.load_manifest()
    stream = {n: m for n, m in manifest.items() if m["kind"] == "stream"}
    assert set(stream) >= {
        "stream_clean",
        "stream_preamble_split",
        "stream_truncated_final",
        "stream_fault_burst_seam",
    }
    outcomes = {
        (m["crc_ok"], None if m["failure"] is None else m["failure"]["code"])
        for m in stream.values()
    }
    assert (True, None) in outcomes, "no clean-decode streaming golden"
    assert (False, "truncated_capture") in outcomes, "no truncation streaming golden"
    assert (False, "crc_mismatch") in outcomes, "no fault-burst streaming golden"
