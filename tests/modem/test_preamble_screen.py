"""The certified preamble screen: ``detect`` equals the exact ``lstsq`` scan.

``Preamble.detect`` screens candidate offsets with the widely-linear fit in
closed form and re-evaluates exactly only the offsets the screen cannot
rule out.  The oracle in ``preamble_oracle.py`` is the scan it replaced: one
``lstsq`` fit at every offset.  The wall below holds ``detect`` to the
oracle bit for bit, and the screen's trusted costs to its stated error
bound, over captures at both PHY operating points with rolls, noise, DC,
scales from 1e-14 to 1e307, odd search windows, strides and tail references,
non-finite samples, degenerate signals and built ties.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from preamble_oracle import detection_bits, exact_costs, oracle_detect
from repro.channel.link import OpticalLink
from repro.faults import scenario
from repro.modem import preamble as preamble_module
from repro.modem.config import ModemConfig
from repro.modem.preamble import Preamble
from repro.optics.geometry import LinkGeometry
from repro.phy.pipeline import PacketSimulator

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

#: The streaming benchmark's operating point and Table 1's.
POINTS = {
    "stream": ModemConfig(dsm_order=2, pqam_order=4, slot_s=2.0e-3, fs=10e3, tail_memory=2),
    "table1": ModemConfig(),
}


@lru_cache(maxsize=None)
def simulator(point: str) -> PacketSimulator:
    return PacketSimulator(config=POINTS[point], payload_bytes=6, rng=np.random.default_rng([5, 0]))


@lru_cache(maxsize=None)
def captures(point: str) -> tuple:
    """Two clean captures, each with its preamble's offset."""
    sim = simulator(point)
    gen = np.random.default_rng([5, 1])
    caps = [sim.make_capture(rng=gen) for _ in range(2)]
    preamble = sim.receiver.frame.preamble
    return tuple((cap, oracle_detect(preamble, cap.samples).offset) for cap in caps)


def outcome(fn, *args, **kwargs):
    """A detection's bit patterns, or the type and message of what it raised."""
    try:
        return detection_bits(fn(*args, **kwargs))
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def scan_inputs(draw):
    """A signal to search, and the search's arguments."""
    point = draw(st.sampled_from(sorted(POINTS)))
    cap, start = captures(point)[draw(st.integers(0, 1))]
    preamble = simulator(point).receiver.frame.preamble
    k = preamble.n_samples
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = cap.samples.copy()
    kind = draw(st.sampled_from(["capture"] * 5 + ["tie", "near_tie", "noise", "real", "constant", "periodic"]))
    stride = draw(st.one_of(st.none(), st.integers(1, 12)))
    if kind in ("tie", "near_tie"):
        # A second copy of the preamble and a stride either side, at a
        # distance that is a multiple of the stride: candidates tie exactly
        # (or within 1e-15 of each other) in both passes.
        step = stride or preamble.default_coarse_stride
        lo, hi = max(start - step, 0), start + k + step
        d = -(-(hi - lo) // step) * step
        d += step * draw(st.integers(0, max((x.size - hi - d) // step, 0)))
        if hi + d <= x.size:
            copy = x[lo:hi].copy()
            if kind == "near_tie":
                copy = copy * (1.0 + 1e-15)
            x[lo + d : hi + d] = copy
    elif kind == "noise":
        x = rng.normal(size=x.size) + 1j * rng.normal(size=x.size)
    elif kind == "real":
        x = x.real.astype(complex)
    elif kind == "constant":
        x = np.full(x.size, complex(rng.normal(), rng.normal()))
    elif kind == "periodic":
        period = draw(st.integers(1, 6))
        block = rng.normal(size=period) + 1j * rng.normal(size=period)
        x = np.resize(block, x.size)
    if kind == "capture":
        roll = np.deg2rad(draw(st.floats(-90.0, 90.0)))
        x = x * np.exp(2j * roll)
        snr_db = draw(st.one_of(st.none(), st.floats(-5.0, 40.0)))
        if snr_db is not None:
            sigma = np.sqrt(np.mean(np.abs(x) ** 2) * 10 ** (-snr_db / 10) / 2)
            x = x + sigma * (rng.normal(size=x.size) + 1j * rng.normal(size=x.size))
        dc = draw(st.floats(-3.0, 3.0)) + 1j * draw(st.floats(-3.0, 3.0))
        x = x + dc * draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3, 1e6]))
    # Log-uniform scale, capped so the largest sample stays below 1e307.
    top = 307.0 - np.log10(np.max(np.abs(x)))
    x = x * 10.0 ** min(draw(st.floats(-14.0, 307.0)), top)
    for _ in range(draw(st.integers(0, 3)) if draw(st.booleans()) else 0):
        pos = draw(st.integers(0, x.size - 1))
        x[pos] = draw(st.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, np.nan)]))
    search_start = draw(st.sampled_from([0, 0, 1, 7, 40, 150]))
    if draw(st.booleans()):
        search_stop = search_start + draw(st.integers(0, 500))
    else:
        search_stop = None if point == "stream" else search_start + 700
    n_slots = preamble.n_slots
    tail = draw(st.one_of(st.none(), st.integers(2 * POINTS[point].dsm_order, n_slots)))
    kwargs = dict(
        search_start=search_start,
        search_stop=search_stop,
        coarse_stride=stride,
        reference_tail_slots=tail,
    )
    return preamble, x, kwargs


class TestOracleWall:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(scan_inputs())
    def test_detect_equals_exact_scan(self, args):
        preamble, x, kwargs = args
        assert outcome(preamble.detect, x, **kwargs) == outcome(
            oracle_detect, preamble, x, **kwargs
        )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(scan_inputs())
    def test_trusted_costs_within_the_error_bound(self, args):
        preamble, x, kwargs = args
        tail = kwargs["reference_tail_slots"]
        matched = preamble.matched_reference(tail)
        k, skip = matched[0].size, matched[1]
        last = x.size - k - skip
        stop = last if kwargs["search_stop"] is None else min(kwargs["search_stop"], last)
        stride = kwargs["coarse_stride"] or preamble.default_coarse_stride
        offsets = range(kwargs["search_start"], stop + 1, stride)
        if len(offsets) == 0:
            return
        fast, trusted = preamble._screen(x, offsets, matched)
        checked = [off for off, ok in zip(offsets, trusted) if ok]
        exact = exact_costs(preamble, x, checked, tail)
        fast = fast[trusted]
        damaged = np.isinf(fast)
        assert np.all(np.isinf(exact[damaged]))
        bound = preamble_module._DELTA_REL * exact[~damaged] + preamble_module._DELTA_ABS
        assert np.all(np.abs(fast[~damaged] - exact[~damaged]) <= bound)

    def test_exact_tie_keeps_the_earlier_offset(self):
        cap, start = captures("stream")[0]
        preamble = simulator("stream").receiver.frame.preamble
        k, step = preamble.n_samples, preamble.default_coarse_stride
        x = cap.samples.copy()
        lo, hi = start - step, start + k + step
        x[lo + k + 4 * step : hi + k + 4 * step] = x[lo:hi]
        det = preamble.detect(x)
        assert detection_bits(det) == detection_bits(oracle_detect(preamble, x))
        assert det.offset == start


class TestExactEvaluations:
    """One ``lstsq`` per clean detection: a silent fallback to the exact
    scan would show up here first."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = Preamble._solve_regression

        def counting(x, y):
            calls.append(x.size)
            return solve(x, y)

        monkeypatch.setattr(Preamble, "_solve_regression", staticmethod(counting))
        return calls

    @pytest.mark.parametrize("point", sorted(POINTS))
    def test_clean_capture_costs_one_solve(self, point, solves):
        cap, _ = captures(point)[0]
        preamble = simulator(point).receiver.frame.preamble
        det = preamble.detect(cap.samples, search_stop=cap.search_stop)
        assert det.detected
        assert len(solves) == 1

    def test_hardened_retries_cost_at_most_three_solves(self, solves):
        sim = PacketSimulator(
            config=ModemConfig(dsm_order=2, pqam_order=4, slot_s=2.0e-3, fs=10e3),
            link=OpticalLink(geometry=LinkGeometry(distance_m=2.0)),
            payload_bytes=8,
            rng=7,
            fault_plan=scenario("preamble_corruption", seed=3),
        )
        cap = sim.make_capture(rng=11)
        solves.clear()
        out = sim.receiver.receive(cap.samples, search_stop=cap.search_stop)
        assert out.crc_ok
        assert len(solves) <= 3


class TestInputRange:
    """A clean fast-config capture decodes at scales 1e-12 .. 1e307; at
    1e-13 ``lstsq``'s rank cutoff drops the signal and the preamble is
    missed.  Detection, ``receive`` and a 256-sample stream all equal the
    exact scan on both sides of the floor and at the top of the range."""

    @pytest.fixture
    def oracle_receiver(self, monkeypatch):
        """Run a callable with ``Preamble.detect`` replaced by the oracle."""

        def run(fn):
            with monkeypatch.context() as m:
                m.setattr(Preamble, "detect", oracle_detect)
                return fn()

        return run

    @pytest.mark.parametrize(
        "scale, decodes", [(1e-13, False), (1e-12, True), (1.0, True), (1e307, True)]
    )
    def test_scaled_capture(self, scale, decodes, oracle_receiver):
        sim = simulator("stream")
        cap, _ = captures("stream")[0]
        x = cap.samples * scale
        preamble = sim.receiver.frame.preamble
        det = preamble.detect(x, search_stop=cap.search_stop)
        assert detection_bits(det) == detection_bits(
            oracle_detect(preamble, x, search_stop=cap.search_stop)
        )
        assert det.detected is decodes

        expected = oracle_receiver(lambda: sim.receiver.receive(x, search_stop=cap.search_stop))
        batch = sim.receiver.receive(x, search_stop=cap.search_stop)
        rx = sim.make_streaming_receiver(search_stop=cap.search_stop)
        streamed = [out for lo in range(0, x.size, 256) for out in rx.push(x[lo : lo + 256])]
        streamed += rx.close()
        assert len(streamed) == 1
        for out in (batch, streamed[0]):
            assert detection_bits(out.detection) == detection_bits(expected.detection)
            assert out.payload == expected.payload and out.crc_ok == expected.crc_ok
            np.testing.assert_array_equal(out.levels_i, expected.levels_i)
            np.testing.assert_array_equal(out.levels_q, expected.levels_q)
            assert float(out.equalizer_mse).hex() == float(expected.equalizer_mse).hex()
            assert out.failure == expected.failure
            assert out.events == expected.events
        assert expected.crc_ok is decodes
        if decodes:
            assert expected.payload == cap.payload
