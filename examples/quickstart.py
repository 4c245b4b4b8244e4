#!/usr/bin/env python3
"""Quickstart: send RetroTurbo packets across a simulated room.

Builds the paper's default 8 Kbps link (DSM L=8, T=0.5 ms, 16-PQAM),
places the tag 3 m from the reader with a 25deg roll misalignment, runs
the full pipeline — LC physics, polarization optics, preamble detection,
online channel training, 16-branch DFE — through the unified run API,
and prints what happened.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    LinkGeometry,
    ModemConfig,
    OpticalLink,
    PacketSimulator,
    ScenarioSpec,
    Session,
)
from repro.api import PhyKnobs


def main() -> None:
    # The one-stop path: a validated spec, an observed session, a report.
    spec = ScenarioSpec(distance_m=3.0, payload_bytes=32, phy=PhyKnobs(roll_deg=25.0))
    report = Session(spec).run(n_packets=10)
    s = report.summary
    print(f"scenario        : {spec.describe()}")
    print(f"link SNR        : {s['snr_db']:.1f} dB at 3.0 m, roll 25 deg")
    print(f"10-packet BER   : {s['ber']:.4%}  (PER {s['packet_error_rate']:.0%}, "
          f"detection {s['detection_rate']:.0%})")
    print(f"stages traced   : {', '.join(sorted(report.span_names()))}")
    print(f"metric series   : {len(report.metric_names())}  "
          f"(report.write('run.json') saves the full artifact)")

    # The lower-level objects are still there when you need one packet's story.
    config = ModemConfig()  # the paper's default 8 Kbps operating point
    link = OpticalLink(
        geometry=LinkGeometry(distance_m=3.0, roll_rad=np.deg2rad(25.0))
    )
    sim = PacketSimulator(config=config, link=link, payload_bytes=32, rng=7)
    result = sim.measure_ber(n_packets=1, rng=1, keep_results=True).results[0]
    print(f"one packet      : detected={result.detected}, "
          f"SNR estimate {result.snr_est_db:.1f} dB, "
          f"{result.n_bit_errors} bit errors in {result.n_bits} bits, "
          f"CRC {'ok' if result.crc_ok else 'FAILED'}")

    payload = b"hello from a sub-milliwatt tag!!"
    power = sim.transmitter.transmit_power_w(payload)
    print(f"tag power       : {power * 1e3:.2f} mW (paper: ~0.8 mW)")


if __name__ == "__main__":
    main()
