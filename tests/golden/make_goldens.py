"""Regenerate the golden-vector fixtures under ``tests/golden/cases/``.

Each case freezes a deterministic received waveform plus the demodulator's
exact output (bits / levels / MSE) at the moment of generation.  The suite in
``test_golden_vectors.py`` then asserts the current implementation reproduces
those outputs *bit-exactly* — the regression wall behind which the DFE/MLSE
hot path can be rewritten.

Run from the repository root::

    PYTHONPATH=src python tests/golden/make_goldens.py          # refuses if fixtures exist
    PYTHONPATH=src python tests/golden/make_goldens.py --force  # explicit regeneration
    PYTHONPATH=src python tests/golden/make_goldens.py --receiver  # receiver records only

Regenerating *moves the wall*: only do it deliberately (a knowing behaviour
change), never to make a red test green.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.channel.awgn import add_awgn
from repro.lcm.array import LCMArray
from repro.modem.config import ModemConfig, preset_for_rate
from repro.modem.dfe import DFEDemodulator
from repro.modem.mlse import ViterbiDemodulator
from repro.modem.ook import TrendOOKModem
from repro.modem.pam import MultiPixelPAMModem
from repro.modem.references import ReferenceBank, assemble_waveform
from repro.modem.symbols import PQAMConstellation

CASES_DIR = Path(__file__).parent / "cases"
MANIFEST = CASES_DIR / "manifest.json"

#: DSM-PQAM rate-ladder rungs (bps) frozen as golden cases, mirroring the
#: paper's sweep points up to the 16 Kbps hardware ceiling (footnote 7).
DSM_LADDER = [1_000, 2_000, 4_000, 8_000, 16_000]


def _config_params(config: ModemConfig) -> dict:
    return {
        "dsm_order": config.dsm_order,
        "pqam_order": config.pqam_order,
        "slot_s": config.slot_s,
        "fs": config.fs,
        "tail_memory": config.tail_memory,
    }


def make_ook_case() -> tuple[dict, dict]:
    """Trend-OOK baseline: noisy waveform -> expected bit decisions."""
    modem = TrendOOKModem(LCMArray.build(2, 16), symbol_s=4e-3, fs=20e3)
    rng = np.random.default_rng(101)
    tx_bits = rng.integers(0, 2, 48, dtype=np.uint8)
    x = add_awgn(modem.modulate(tx_bits), 35.0, reference_power=2.0, rng=rng)
    bits = modem.demodulate(x, tx_bits.size)
    meta = {"kind": "ook", "symbol_s": 4e-3, "fs": 20e3, "n_bits": int(tx_bits.size)}
    return meta, {"x": x, "tx_bits": tx_bits, "bits": bits}


def make_pam_case() -> tuple[dict, dict]:
    """Multi-pixel PAM baseline: noisy waveform -> expected bit decisions."""
    modem = MultiPixelPAMModem(LCMArray.build(2, 16), symbol_s=4e-3, fs=20e3)
    rng = np.random.default_rng(102)
    tx_bits = rng.integers(0, 2, 64, dtype=np.uint8)
    n_symbols = tx_bits.size // modem.bits_per_symbol
    x = add_awgn(modem.modulate(tx_bits), 35.0, reference_power=0.5, rng=rng)
    bits = modem.demodulate(x, n_symbols)
    meta = {"kind": "pam", "symbol_s": 4e-3, "fs": 20e3, "n_symbols": int(n_symbols)}
    return meta, {"x": x, "tx_bits": tx_bits, "bits": bits}


def _dsm_pqam_arrays(
    config: ModemConfig,
    k_branches: int,
    n_symbols: int,
    snr_db: float,
    seed: int,
    viterbi: bool = False,
) -> tuple[dict, dict]:
    bank = ReferenceBank.nominal(config)
    constellation = PQAMConstellation(config.pqam_order)
    rng = np.random.default_rng(seed)
    prime_n = config.tail_memory * config.dsm_order
    zeros = np.zeros(prime_n, dtype=int)
    tx_i, tx_q = constellation.random_levels(n_symbols, rng)
    wave = assemble_waveform(
        bank, np.concatenate([zeros, tx_i]), np.concatenate([zeros, tx_q])
    )
    noisy = add_awgn(wave, snr_db, reference_power=1.0, rng=rng)
    z = noisy[prime_n * config.samples_per_slot :]
    if viterbi:
        demod = ViterbiDemodulator(bank)
    else:
        demod = DFEDemodulator(bank, k_branches=k_branches)
    res = demod.demodulate(z, n_symbols, prime_levels=(zeros, zeros))
    bits = constellation.levels_to_bits(res.levels_i, res.levels_q)
    meta = {
        "kind": "dsm_pqam",
        "config": _config_params(config),
        "k_branches": int(k_branches),
        "viterbi": bool(viterbi),
        "n_symbols": int(n_symbols),
        "snr_db": float(snr_db),
        "seed": int(seed),
    }
    arrays = {
        "z": z,
        "tx_levels_i": tx_i,
        "tx_levels_q": tx_q,
        "levels_i": res.levels_i,
        "levels_q": res.levels_q,
        "bits": bits,
        "mse": np.float64(res.mse),
        "n_branches": np.int64(res.n_branches),
    }
    return meta, arrays


def build_cases() -> dict[str, tuple[dict, dict]]:
    cases: dict[str, tuple[dict, dict]] = {
        "ook_35db": make_ook_case(),
        "pam_35db": make_pam_case(),
    }
    # The DSM-PQAM rate ladder at the paper's K=16 operating point.
    for rate in DSM_LADDER:
        config = preset_for_rate(rate)
        cases[f"dsm_pqam_{rate // 1000}k_k16"] = _dsm_pqam_arrays(
            config, k_branches=16, n_symbols=64, snr_db=30.0, seed=200 + rate // 1000
        )
    # Merge-path edge cases: the plain K=1 DFE and the exact Viterbi trellis.
    cases["dsm_pqam_8k_k1"] = _dsm_pqam_arrays(
        preset_for_rate(8_000), k_branches=1, n_symbols=64, snr_db=30.0, seed=301
    )
    small = ModemConfig(dsm_order=2, pqam_order=4, slot_s=2.0e-3, fs=10e3, tail_memory=1)
    cases["dsm_pqam_small_viterbi"] = _dsm_pqam_arrays(
        small, k_branches=0, n_symbols=48, snr_db=8.0, seed=302, viterbi=True
    )
    # A low-SNR case where the equalizer *makes* level errors: freezes the
    # exact error pattern, not just the easy clean decode.
    cases["dsm_pqam_8k_k16_noisy"] = _dsm_pqam_arrays(
        preset_for_rate(8_000), k_branches=16, n_symbols=64, snr_db=14.0, seed=303
    )
    return cases


def _stream_case(
    name: str,
    *,
    sim_seed: int,
    capture_seed: int,
    chunk_plan,
    fault_plan=None,
    fault_note: str = "none",
    truncate_to: int | None = None,
) -> tuple[dict, dict]:
    """Freeze one streaming decode: capture samples + chunk partition +
    the exact ReceiverOutput the streaming receiver produced.

    ``chunk_plan(x, batch_offset)`` maps the capture and the batch
    detection offset to a list of chunk sizes — so a case can pin its
    seams *relative to the preamble* (split mid-preamble, seam inside a
    burst) while staying deterministic.
    """
    from repro.phy.pipeline import PacketSimulator
    from repro.phy.streaming import StreamingReceiver

    config = ModemConfig(dsm_order=2, pqam_order=4, slot_s=2.0e-3, fs=10e3, tail_memory=2)
    sim = PacketSimulator(
        config=config, payload_bytes=6, fault_plan=fault_plan, rng=sim_seed
    )
    cap = sim.make_capture(rng=capture_seed)
    x = cap.samples
    if truncate_to is not None:
        x = x[:truncate_to]
    batch = sim.receiver.receive(x, search_start=0, search_stop=cap.search_stop)
    chunk_sizes = chunk_plan(x, batch.detection.offset)
    assert sum(chunk_sizes) == x.size, f"{name}: chunk plan does not cover the capture"

    rx = StreamingReceiver(sim.receiver, search_stop=cap.search_stop)
    outs, lo = [], 0
    for size in chunk_sizes:
        outs.extend(rx.push(x[lo : lo + size]))
        lo += size
    outs.extend(rx.close())
    (out,) = outs
    # The streamed record must sit exactly on the batch record before it is
    # frozen — a golden that disagreed with batch would pin a bug.
    assert out.payload == batch.payload and out.crc_ok == batch.crc_ok, name
    assert out.equalizer_mse == batch.equalizer_mse, name

    meta = {
        "kind": "stream",
        "config": _config_params(config),
        "payload_bytes": 6,
        "sim_seed": int(sim_seed),
        "capture_seed": int(capture_seed),
        "search_stop": int(cap.search_stop),
        "fault": fault_note,
        "truncate_to": truncate_to,
        "crc_ok": bool(out.crc_ok),
        "failure": None
        if out.failure is None
        else {
            "stage": out.failure.stage.value,
            "code": out.failure.code,
            "detail": out.failure.detail,
        },
        "events": [[e.stage.value, e.status, e.detail] for e in out.events],
    }
    arrays = {
        "x": x,
        "chunk_sizes": np.asarray(chunk_sizes, dtype=np.int64),
        "sent_payload": np.frombuffer(cap.payload, dtype=np.uint8),
        "payload": np.frombuffer(out.payload, dtype=np.uint8),
        "levels_i": out.levels_i,
        "levels_q": out.levels_q,
        "mse": np.float64(out.equalizer_mse),
        "offset": np.int64(out.detection.offset),
        "normalised_cost": np.float64(out.detection.normalised_cost),
        "snr_est_db": np.float64(out.snr_est_db),
    }
    return meta, arrays


def build_streaming_cases() -> dict[str, tuple[dict, dict]]:
    """The four frozen streaming decodes (``--streaming``)."""
    from repro.faults.injectors import InterferenceBurst
    from repro.faults.plan import FaultPlan

    def uniform(size):
        return lambda x, off: [
            min(size, x.size - lo) for lo in range(0, x.size, size)
        ]

    def preamble_split_3(x, off):
        # Three seams inside the 800-sample preamble: the search window
        # and the matched reference both straddle chunk boundaries.
        cuts = [off + 100, off + 350, off + 620]
        edges = [0, *cuts, x.size]
        return [b - a for a, b in zip(edges, edges[1:])]

    def burst_seam(x, off):
        # A seam planted in the middle of the payload burst window.
        mid = off + (x.size - off) * 2 // 3
        edges = [0, off + 900, mid, x.size]
        return [b - a for a, b in zip(edges, edges[1:])]

    burst = FaultPlan(
        [
            InterferenceBurst(
                section="payload", start_frac=0.25, duration_frac=0.5, amplitude=3.0
            )
        ]
    )
    return {
        "stream_clean": _stream_case(
            "stream_clean", sim_seed=11, capture_seed=501, chunk_plan=uniform(256)
        ),
        "stream_preamble_split": _stream_case(
            "stream_preamble_split",
            sim_seed=11,
            capture_seed=502,
            chunk_plan=preamble_split_3,
        ),
        "stream_truncated_final": _stream_case(
            "stream_truncated_final",
            sim_seed=11,
            capture_seed=503,
            chunk_plan=uniform(400),
            truncate_to=1500,
        ),
        "stream_fault_burst_seam": _stream_case(
            "stream_fault_burst_seam",
            sim_seed=11,
            capture_seed=504,
            chunk_plan=burst_seam,
            fault_plan=burst,
            fault_note="InterferenceBurst(payload, 0.25+0.5, amp 3.0)",
        ),
    }


def build_receiver_records(force: bool) -> dict[str, dict]:
    """Freeze the receiver-record corpus of ``receiver_cases.py`` (``--receiver``).

    One JSON line per case: its spec, the sha256 of its capture samples and
    the batch receiver's record.  Every stream chunking must already agree
    with batch here — a frozen record that disagreed would pin a bug.
    """
    from receiver_cases import CASES, run_case

    target = CASES_DIR / "receiver_records.jsonl"
    if target.exists() and not force:
        raise RuntimeError(f"{target} exists; pass --force")
    lines = []
    for case in CASES:
        digest, batch, streams = run_case(case)
        for label, record in streams.items():
            assert record == batch, f"{case.name}: {label} stream disagrees with batch"
        lines.append(
            json.dumps(
                {"spec": case.to_dict(), "samples_sha256": digest, "expected": batch},
                sort_keys=True,
            )
        )
    target.write_text("\n".join(lines) + "\n")
    print(f"wrote {target.name} ({len(lines)} cases)")
    return {
        "receiver_records": {
            "kind": "receiver_records",
            "journal": target.name,
            "n_cases": len(lines),
        }
    }


def build_polarization_cases() -> dict[str, tuple[dict, dict]]:
    """The frozen polarization-rung emits (``--polarization``)."""
    from polarization_cases import POLARIZATION_CASES, run_case

    return {name: (dict(meta), run_case(meta)) for name, meta in POLARIZATION_CASES.items()}


def build_sweep_journals(force: bool, only: str | None = None) -> dict[str, dict]:
    """Freeze one sweep journal per grid harness (plus the fault plan).

    Journals are resumable by design, so ``--force`` must *delete* the old
    file first — re-running over an existing journal would replay it and
    freeze the stale records instead of regenerating them.  ``only``
    restricts generation to a single named case (so adding a new sweep
    does not regenerate — and thereby unfreeze — the existing journals).
    """
    from sweep_cases import SWEEP_CASES

    cases = SWEEP_CASES
    if only is not None:
        if only not in SWEEP_CASES:
            raise SystemExit(f"unknown sweep case {only!r}; known: {sorted(SWEEP_CASES)}")
        cases = {only: SWEEP_CASES[only]}
    manifest: dict[str, dict] = {}
    for name, case in cases.items():
        journal = CASES_DIR / f"{name}.jsonl"
        if journal.exists():
            if not force:
                raise RuntimeError(f"{journal} exists; pass --force")
            journal.unlink()
        case.run(journal)
        manifest[name] = {"kind": "sweep_journal", "journal": journal.name, **case.meta}
        print(f"wrote {name}: {journal.name}")
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--force",
        action="store_true",
        help="overwrite existing fixtures (moves the regression wall!)",
    )
    parser.add_argument(
        "--sweeps-only",
        action="store_true",
        help="regenerate only the sweep journals, merging into the existing "
        "manifest (leaves the waveform npz wall untouched)",
    )
    parser.add_argument(
        "--streaming",
        action="store_true",
        help="regenerate only the streaming goldens, merging into the existing "
        "manifest (leaves the batch waveform wall and sweep journals untouched)",
    )
    parser.add_argument(
        "--only",
        metavar="CASE",
        help="with --sweeps-only: freeze just this sweep case, leaving every "
        "other journal untouched",
    )
    parser.add_argument(
        "--polarization",
        action="store_true",
        help="regenerate only the polarization-rung goldens (the two emit "
        "npz cases plus the sweep_polarization journal), merging into the "
        "existing manifest",
    )
    parser.add_argument(
        "--receiver",
        action="store_true",
        help="regenerate only the receiver-record corpus, merging into the "
        "existing manifest",
    )
    args = parser.parse_args(argv)

    if args.receiver:
        manifest = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
        CASES_DIR.mkdir(parents=True, exist_ok=True)
        manifest.update(build_receiver_records(force=args.force))
        MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        print(f"wrote {MANIFEST} ({len(manifest)} cases)")
        return 0

    if args.polarization:
        manifest = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
        CASES_DIR.mkdir(parents=True, exist_ok=True)
        for name, (meta, arrays) in build_polarization_cases().items():
            target = CASES_DIR / f"{name}.npz"
            if target.exists() and not args.force:
                print(f"refusing to overwrite {target}; pass --force", file=sys.stderr)
                return 1
            np.savez(target, **arrays)
            manifest[name] = meta
            print(f"wrote {name}: {', '.join(sorted(arrays))}")
        manifest.update(
            build_sweep_journals(force=args.force, only="sweep_polarization")
        )
        MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        print(f"wrote {MANIFEST} ({len(manifest)} cases)")
        return 0

    if args.streaming:
        manifest = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
        CASES_DIR.mkdir(parents=True, exist_ok=True)
        for name, (meta, arrays) in build_streaming_cases().items():
            target = CASES_DIR / f"{name}.npz"
            if target.exists() and not args.force:
                print(f"refusing to overwrite {target}; pass --force", file=sys.stderr)
                return 1
            np.savez(target, **arrays)
            manifest[name] = meta
            print(f"wrote {name}: {', '.join(sorted(arrays))}")
        MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        print(f"wrote {MANIFEST} ({len(manifest)} cases)")
        return 0

    if args.sweeps_only:
        manifest = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
        CASES_DIR.mkdir(parents=True, exist_ok=True)
        manifest.update(build_sweep_journals(force=args.force, only=args.only))
        MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        print(f"wrote {MANIFEST} ({len(manifest)} cases)")
        return 0

    if MANIFEST.exists() and not args.force:
        print(
            f"refusing to overwrite {MANIFEST}\n"
            "golden fixtures already exist; pass --force to regenerate "
            "(only for a deliberate behaviour change)",
            file=sys.stderr,
        )
        return 1

    CASES_DIR.mkdir(parents=True, exist_ok=True)
    manifest: dict[str, dict] = {}
    for name, (meta, arrays) in {
        **build_cases(),
        **build_streaming_cases(),
        **build_polarization_cases(),
    }.items():
        np.savez(CASES_DIR / f"{name}.npz", **arrays)
        manifest[name] = meta
        print(f"wrote {name}: {', '.join(sorted(arrays))}")
    manifest.update(build_sweep_journals(force=args.force))
    manifest.update(build_receiver_records(force=args.force))
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST} ({len(manifest)} cases)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
