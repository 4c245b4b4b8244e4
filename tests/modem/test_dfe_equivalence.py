"""Vectorized DFE/MLSE versus the frozen scalar oracle, property-based.

The vectorized engine in :mod:`repro.modem.dfe` promises *bit-exact*
equivalence with :class:`ReferenceDFEDemodulator` (the pre-rewrite scalar
implementation kept verbatim as the executable spec).  Hypothesis drives
randomized data, noise, beam widths, and batch shapes through both and
compares levels, MSE, and branch counts to the last bit.  A brute-force
sequence enumeration pins the K = P^L merged search to true MLSE.  The
session wall feeds :class:`DFEBlockSession` directly, in arbitrary chunks,
at the benchmark's own operating points and banks.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.awgn import add_awgn
from repro.channel.link import OpticalLink
from repro.lcm.array import LCMArray
from repro.lcm.heterogeneity import HeterogeneityModel
from repro.modem.config import ModemConfig, preset_for_rate
from repro.modem.dfe import DFEDemodulator
from repro.modem.dfe_reference import ReferenceDFEDemodulator
from repro.modem.references import ReferenceBank, assemble_waveform
from repro.optics.geometry import LinkGeometry
from repro.phy.pipeline import PacketSimulator

# One small bank per (L, P, V), collected lazily and reused.
_BANKS: dict[tuple[int, int, int], ReferenceBank] = {}


def bank_for(l_order: int, pqam: int, tail_memory: int = 2) -> ReferenceBank:
    key = (l_order, pqam, tail_memory)
    if key not in _BANKS:
        config = ModemConfig(
            dsm_order=l_order,
            pqam_order=pqam,
            slot_s=4e-3 / l_order,
            fs=l_order * 2.5e3,  # 10 samples per slot
            tail_memory=tail_memory,
        )
        _BANKS[key] = ReferenceBank.nominal(config)
    return _BANKS[key]


def noisy_payload(bank, n_symbols, seed, snr_db):
    """Deterministic (z, tx levels, prime zeros) for one random packet."""
    cfg = bank.config
    m = cfg.levels_per_axis
    prime_n = cfg.tail_memory * cfg.dsm_order
    zeros = np.zeros(prime_n, dtype=int)
    rng = np.random.default_rng(seed)
    li = rng.integers(0, m, n_symbols)
    lq = rng.integers(0, m, n_symbols)
    wave = assemble_waveform(
        bank, np.concatenate([zeros, li]), np.concatenate([zeros, lq])
    )
    noisy = add_awgn(wave, snr_db, reference_power=1.0, rng=rng)
    return noisy[prime_n * cfg.samples_per_slot :], (li, lq), zeros


def assert_results_identical(expected, actual, label=""):
    np.testing.assert_array_equal(expected.levels_i, actual.levels_i, err_msg=f"{label} levels_i")
    np.testing.assert_array_equal(expected.levels_q, actual.levels_q, err_msg=f"{label} levels_q")
    # By bit pattern: a damaged payload leaves a NaN mse, and NaN != NaN.
    assert np.float64(expected.mse).tobytes() == np.float64(actual.mse).tobytes(), (
        f"{label} mse: {expected.mse!r} != {actual.mse!r}"
    )
    assert expected.n_branches == actual.n_branches, f"{label} n_branches"


def viterbi_width(config: ModemConfig) -> int:
    return config.pqam_order ** (
        (config.tail_memory - 1) * config.dsm_order + config.dsm_order - 1
    )


class TestScalarOracleEquivalence:
    @settings(max_examples=16, deadline=None)
    @given(
        l_order=st.sampled_from([2, 4]),
        pqam=st.sampled_from([4, 16]),
        tail_memory=st.sampled_from([1, 2, 3]),
        k_branches=st.sampled_from([1, 16]),
        snr_db=st.sampled_from([30.0, 14.0, 6.0]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_single_packet_bit_exact(self, l_order, pqam, tail_memory, k_branches, snr_db, seed):
        bank = bank_for(l_order, pqam, tail_memory)
        z, _, zeros = noisy_payload(bank, 3 * l_order + 2, seed, snr_db)
        ref = ReferenceDFEDemodulator(bank, k_branches=k_branches)
        vec = DFEDemodulator(bank, k_branches=k_branches)
        n = 3 * l_order + 2
        expected = ref.demodulate(z, n, prime_levels=(zeros, zeros))
        assert_results_identical(expected, vec.demodulate(z, n, (zeros, zeros)), "single")
        (blk,) = vec.demodulate_block(z[None, :], n, (zeros, zeros))
        assert_results_identical(expected, blk, "block[1]")

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_full_trellis_width_bit_exact(self, seed):
        """K = P^(memory) with merging *is* Viterbi; the vectorized merge
        must track the oracle through the full-width beam too."""
        bank = bank_for(2, 4)
        k = viterbi_width(bank.config)
        z, _, zeros = noisy_payload(bank, 8, seed, 10.0)
        expected = ReferenceDFEDemodulator(bank, k_branches=k).demodulate(z, 8, (zeros, zeros))
        actual = DFEDemodulator(bank, k_branches=k).demodulate(z, 8, (zeros, zeros))
        assert_results_identical(expected, actual, "viterbi-width")

    @settings(max_examples=5, deadline=None)
    @given(
        n_packets=st.sampled_from([2, 16, 17]),
        snr_db=st.sampled_from([30.0, 8.0]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_block_equals_per_packet(self, n_packets, snr_db, seed):
        """demodulate_block == N independent demodulate calls, across the
        small-batch (in-place) and large-batch (lag-fold) regimes."""
        bank = bank_for(2, 16)
        n = 9
        rows, zeros = [], None
        for p in range(n_packets):
            z, _, zeros = noisy_payload(bank, n, seed + 7 * p, snr_db)
            rows.append(z)
        vec = DFEDemodulator(bank, k_branches=16)
        block = vec.demodulate_block(np.stack(rows), n, (zeros, zeros))
        for p, z in enumerate(rows):
            single = vec.demodulate(z, n, (zeros, zeros))
            assert_results_identical(single, block[p], f"packet {p}")


class TestTrueMLSE:
    @settings(max_examples=4, deadline=None)
    @given(
        snr_db=st.sampled_from([12.0, 4.0]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_merged_full_beam_is_brute_force_optimum(self, snr_db, seed):
        """The K = P^L merged search finds the *global* least-squares
        sequence: verified against explicit enumeration of all P^(2n)
        candidate level sequences on a tiny operating point."""
        config = ModemConfig(dsm_order=2, pqam_order=4, slot_s=2e-3, fs=5e3, tail_memory=1)
        bank = ReferenceBank.nominal(config)
        cfg = bank.config
        m = cfg.levels_per_axis
        ts = cfg.samples_per_slot
        n = 4
        z, _, zeros = noisy_payload(bank, n, seed, snr_db)
        res = DFEDemodulator(bank, k_branches=viterbi_width(cfg)).demodulate(
            z, n, (zeros, zeros)
        )

        prime_n = zeros.size
        best_cost, best_seq = None, None
        grids = np.stack(
            np.meshgrid(*([np.arange(m)] * (2 * n)), indexing="ij"), axis=-1
        ).reshape(-1, 2 * n)
        for row in grids:
            li, lq = row[:n], row[n:]
            wave = assemble_waveform(
                bank, np.concatenate([zeros, li]), np.concatenate([zeros, lq])
            )
            pred = wave[prime_n * ts : (prime_n + n) * ts]
            cost = float(np.sum(np.abs(z[: n * ts] - pred) ** 2))
            if best_cost is None or cost < best_cost:
                best_cost, best_seq = cost, (li.copy(), lq.copy())

        np.testing.assert_array_equal(res.levels_i, best_seq[0], err_msg="MLSE levels_i")
        np.testing.assert_array_equal(res.levels_q, best_seq[1], err_msg="MLSE levels_q")
        assert res.mse == pytest.approx(best_cost / (n * ts), rel=1e-12, abs=1e-15)


class TestDefensiveExitPath:
    def test_forced_beam_narrowing_stays_exact(self):
        """White-box: collapse the merge group ids mid-decode so the beam
        narrows below K while the lag-fold fast path is active, forcing the
        materialize-and-exit branch.  Ground truth is the same engine with
        the dense fast path disabled (never enters the index-only regime)."""
        config = ModemConfig(dsm_order=2, pqam_order=16, slot_s=2e-3, fs=5e3, tail_memory=2)
        bank = ReferenceBank.nominal(config)
        # 16 distinct rows: enough packets to engage the lag-fold regime.
        rows, zeros = [], None
        for p in range(16):
            z, _, zeros = noisy_payload(bank, 16, seed=5 + 11 * p, snr_db=14.0)
            rows.append(z)
        zb = np.stack(rows)

        def collapsing(inst, switch_at):
            orig = type(inst)._group_ids
            calls = []

            def patched(xp, sig):
                calls.append(sig.shape[1])
                gids = orig(inst, xp, sig)
                return np.zeros_like(gids) if len(calls) > switch_at else gids

            return patched, calls

        fast = DFEDemodulator(bank, k_branches=32, merge_memory=2)
        fast._group_ids, traj_fast = collapsing(fast, 6)
        slow = DFEDemodulator(bank, k_branches=32, merge_memory=2)
        slow._dense = False  # generic path throughout: materialized buffers
        slow._group_ids, traj_slow = collapsing(slow, 6)

        res_fast = fast.demodulate_block(zb, 16, (zeros, zeros))
        res_slow = slow.demodulate_block(zb, 16, (zeros, zeros))
        # The scenario really narrowed: full width reached, then lost.
        assert max(traj_fast) == 32 and traj_fast[-1] < 32
        assert traj_fast == traj_slow
        for p, (exp, act) in enumerate(zip(res_slow, res_fast)):
            assert_results_identical(exp, act, f"forced-narrowing packet {p}")


# ---------------------------------------------------------------- session wall

#: The benchmark's PHY operating points, both at 20 samples per slot: the
#: Table 1 point of ``phy_batch_8k`` (4 m link) and ``phy_stream_1k``'s.
_POINTS = {
    "table1": (ModemConfig(), 4.0),
    "stream": (ModemConfig(dsm_order=2, pqam_order=4, slot_s=2.0e-3, fs=10e3), None),
}


@functools.lru_cache(maxsize=None)
def receiver_decode(point: str):
    """``(trained bank, payload z, n_symbols, prime levels)`` of one real
    receive at a benchmark operating point: the bank comes from
    ``OnlineTrainer.build_bank`` (``bank_mode="trained"``, ``n_bases=2``, as
    the benchmark builds it), captured at the receiver's DFE call."""
    config, distance = _POINTS[point]
    link = {}
    if distance is not None:
        link["link"] = OpticalLink(geometry=LinkGeometry(distance_m=distance))
    sim = PacketSimulator(
        config=config, payload_bytes=8, bank_mode="trained", n_bases=2, rng=3, **link
    )
    cap = sim.make_capture(rng=11)
    calls = []
    original = DFEDemodulator.demodulate

    def spy(self, z, n_symbols, prime_levels=None):
        calls.append((self.bank, np.array(z), n_symbols, prime_levels))
        return original(self, z, n_symbols, prime_levels)

    DFEDemodulator.demodulate = spy
    try:
        sim.receiver.receive(cap.samples, search_stop=cap.search_stop)
    finally:
        DFEDemodulator.demodulate = original
    assert len(calls) == 1
    return calls[0]


@functools.lru_cache(maxsize=None)
def wall_case(case: str):
    """``(bank, z, n_symbols, prime levels)`` of one wall case."""
    point, kind = case.split("-")
    if point == "16k":
        # preset_for_rate(16000): P = 256, 16 x 256 = 4,096 candidates.
        bank = ReferenceBank.nominal(preset_for_rate(16000))
        z, _, zeros = noisy_payload(bank, 12, seed=5, snr_db=20.0)
        return bank, z, 12, (zeros, zeros)
    bank, z, n_symbols, prime = receiver_decode(point)
    if kind == "nominal":
        bank = ReferenceBank.nominal(bank.config)
    return bank, z, n_symbols, prime


def chunk_sizes(n: int, cuts: list[int]) -> list[int]:
    """Chunk sizes from cut points over an n-sample payload."""
    edges = sorted({0, n, *(c % (n + 1) for c in cuts)})
    return [b - a for a, b in zip(edges, edges[1:]) if b > a]


class TestSessionOracleWall:
    """B = 1 sessions fed in any partition equal the scalar oracle at the
    benchmark's operating points, with trained and nominal banks."""

    @settings(max_examples=20, deadline=None)
    @given(
        case=st.sampled_from(
            ["table1-trained", "table1-nominal", "stream-trained", "stream-nominal", "16k-nominal"]
        ),
        cuts=st.lists(st.integers(0, 100_000), max_size=8),
        single_samples=st.booleans(),
        noise_db=st.sampled_from([None, 12.0, 6.0]),
        nan_at=st.one_of(st.none(), st.integers(0, 100_000)),
    )
    def test_chunked_session_equals_oracle(self, case, cuts, single_samples, noise_db, nan_at):
        bank, z, n_symbols, prime = wall_case(case)
        if noise_db is not None:
            # Extra noise puts the decode in errorful territory, where
            # close costs test the selection order.
            z = add_awgn(z, noise_db, reference_power=1.0, rng=len(cuts))
        if nan_at is not None:
            z = z.copy()
            z[nan_at % z.size] = np.nan
        sizes = [1] * z.size if single_samples else chunk_sizes(z.size, cuts)
        session = DFEDemodulator(bank, k_branches=16).begin_block(1, n_symbols, prime)
        lo = 0
        for size in sizes:
            session.feed(z[None, lo : lo + size])
            lo += size
        (got,) = session.finish()
        expected = ReferenceDFEDemodulator(bank, k_branches=16).demodulate(z, n_symbols, prime)
        assert_results_identical(expected, got, f"{case} {sizes[:6]} nan@{nan_at}")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("pos", [0, 103, 440])
    def test_non_finite_payload_sample_matches_oracle(self, value, pos):
        """A NaN cost must come out in the oracle's stable-argsort order (last,
        by index) where the 256-candidate argpartition prefix is used, at
        B = 1 and in the lag-fold block engine (B = 16)."""
        bank = ReferenceBank.nominal(preset_for_rate(8000))
        z, _, zeros = noisy_payload(bank, 24, seed=0, snr_db=20.0)
        z = z.copy()
        z[pos] = value
        expected = ReferenceDFEDemodulator(bank, k_branches=16).demodulate(z, 24, (zeros, zeros))
        demod = DFEDemodulator(bank, k_branches=16)
        assert_results_identical(expected, demod.demodulate(z, 24, (zeros, zeros)), "B=1")
        block = demod.demodulate_block(np.stack([z] * 16), 24, (zeros, zeros))
        for p, res in enumerate(block):
            assert_results_identical(expected, res, f"B=16 row {p}")


def history_of(code: int, m: int, v_prev: int) -> tuple[int, ...]:
    """Most-recent-first level history packed as ``code``."""
    return tuple((code // m**j) % m for j in range(v_prev))


def assert_dense_tables_match_pulses(bank: ReferenceBank) -> None:
    """The array-built dense table is byte-equal to per-``pulse()`` builds,
    and its float planes are exact slices of it."""
    cfg = bank.config
    m = cfg.levels_per_axis
    v_prev = cfg.tail_memory - 1
    ts = cfg.samples_per_slot
    table = bank.dense_table()
    for ch in (0, 1):
        for gi in range(cfg.dsm_order):
            for code in range(bank.n_history_states):
                for level in range(m):
                    pulse = bank.pulse(ch, gi, level, history_of(code, m, v_prev))
                    assert table[ch, gi, code, level].tobytes() == pulse.tobytes(), (
                        ch, gi, code, level,
                    )
    heads, tails = bank.dense_planes(ts)
    for plane, part in enumerate((table.real, table.imag)):
        head_t = np.ascontiguousarray(part[..., :ts].swapaxes(2, 3))
        assert heads[:, :, plane].tobytes() == head_t.tobytes()
        assert tails[:, :, plane].tobytes() == np.ascontiguousarray(part[..., ts:]).tobytes()


class TestDenseTables:
    @pytest.mark.parametrize("point", ["table1", "stream"])
    def test_trained_bank_tables_are_byte_equal(self, point):
        assert_dense_tables_match_pulses(receiver_decode(point)[0])

    @pytest.mark.parametrize("tail_memory", [1, 2, 3])
    def test_nominal_bank_tables_are_byte_equal(self, tail_memory):
        assert_dense_tables_match_pulses(bank_for(2, 16, tail_memory))

    def test_genie_bank_tables_are_byte_equal(self, fast_config):
        # Default heterogeneity: per-pixel gains, angles and speeds, so
        # every pixel has its own table and complex basis.
        array = LCMArray.build(
            groups_per_channel=fast_config.dsm_order,
            levels_per_group=fast_config.levels_per_axis,
            heterogeneity=HeterogeneityModel(),
            rng=4,
        )
        assert_dense_tables_match_pulses(ReferenceBank.genie(fast_config, array))
