"""Conformance suite for the pluggable array-backend seam.

Three walls guard the seam (see ``repro/utils/backend.py``):

1. **Mechanism** — backend selection, scoping, and the recording proxy
   behave as documented.
2. **Bit-identity** — running a hot kernel under the recording backend (a
   delegating proxy over numpy) produces byte-for-byte the results of the
   plain numpy run, proving the seam adds observation only, never
   arithmetic.  The pre-seam golden walls (``tests/golden/``) pin the
   numpy results themselves.
3. **Source lint** — the registered hot-path kernels contain no raw
   ``np.`` references: every array op must route through the ``xp``
   namespace fetched at kernel entry, so a device backend slots in with
   zero kernel edits.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.utils.backend import (
    NUMPY_BACKEND,
    ArrayBackend,
    RecordingNamespace,
    active_backend,
    make_recording_backend,
    set_backend,
    use_backend,
)


class TestBackendMechanism:
    def test_default_is_numpy(self):
        backend = active_backend()
        assert backend is NUMPY_BACKEND
        assert backend.xp is np
        assert backend.name == "numpy"

    def test_use_backend_scopes_and_restores(self):
        rec = make_recording_backend()
        assert active_backend() is NUMPY_BACKEND
        with use_backend(rec) as installed:
            assert installed is rec
            assert active_backend() is rec
        assert active_backend() is NUMPY_BACKEND

    def test_set_backend_none_restores_numpy(self):
        rec = make_recording_backend()
        set_backend(rec)
        try:
            assert active_backend() is rec
        finally:
            set_backend(None)
        assert active_backend() is NUMPY_BACKEND

    def test_to_host_and_scalar(self):
        b = NUMPY_BACKEND
        a = np.arange(3.0)
        assert b.to_host(a) is np.asarray(a)
        assert b.scalar(np.float64(2.5)) == 2.5
        assert isinstance(b.scalar(np.array(7)), int)

    def test_errstate_guards_divide(self):
        with NUMPY_BACKEND.errstate(divide="ignore"):
            out = np.float64(1.0) / np.float64(0.0)
        assert np.isinf(out)

    def test_asarray_adopts_with_dtype(self):
        out = NUMPY_BACKEND.asarray([1, 2], dtype=np.float64)
        assert out.dtype == np.float64


class TestRecordingProxy:
    def test_ops_are_logged_and_delegate(self):
        xp = RecordingNamespace()
        out = xp.add(xp.arange(3), 1)
        np.testing.assert_array_equal(out, np.array([1, 2, 3]))
        assert xp.op_log == ["arange", "add"]

    def test_ufunc_methods_log_dotted_names(self):
        xp = RecordingNamespace()
        assert xp.add.reduce(np.arange(4)) == 6
        assert "add.reduce" in xp.op_log

    def test_non_callables_pass_through(self):
        xp = RecordingNamespace()
        assert xp.float64 is np.float64
        assert xp.pi == np.pi
        assert xp.op_log == []  # attribute access alone records nothing

    def test_submodule_calls_are_logged(self):
        xp = RecordingNamespace()
        q, r = xp.linalg.qr(np.eye(3))
        np.testing.assert_array_equal(q @ r, np.eye(3))
        assert any(name.startswith("linalg.") for name in xp.op_log)


# --------------------------------------------------------------------------
# Bit-identity: kernels under the recording proxy == kernels under numpy.
# --------------------------------------------------------------------------


def _dfe_case(fast_bank):
    from repro.modem.references import assemble_waveform

    cfg = fast_bank.config
    rng = np.random.default_rng(77)
    m = cfg.levels_per_axis
    prime_n = cfg.tail_memory * cfg.dsm_order
    zeros = np.zeros(prime_n, dtype=int)
    li = rng.integers(0, m, 24)
    lq = rng.integers(0, m, 24)
    wave = assemble_waveform(
        fast_bank, np.concatenate([zeros, li]), np.concatenate([zeros, lq])
    )
    noisy = wave + 0.02 * (
        rng.normal(size=wave.size) + 1j * rng.normal(size=wave.size)
    )
    return noisy[prime_n * cfg.samples_per_slot :], zeros


class TestSeamBitIdentity:
    def test_dfe_block_identical_under_recording_backend(self, fast_bank):
        from repro.modem.dfe import DFEDemodulator

        z, zeros = _dfe_case(fast_bank)
        demod = DFEDemodulator(fast_bank, k_branches=8)
        (base,) = demod.demodulate_block(z[None, :], 24, prime_levels=(zeros, zeros))
        rec = make_recording_backend()
        with use_backend(rec):
            (proxied,) = demod.demodulate_block(
                z[None, :], 24, prime_levels=(zeros, zeros)
            )
        np.testing.assert_array_equal(base.levels_i, proxied.levels_i)
        np.testing.assert_array_equal(base.levels_q, proxied.levels_q)
        assert base.mse == proxied.mse
        assert base.n_branches == proxied.n_branches
        assert rec.xp.op_log, "recording backend saw no ops — kernel bypassed the seam"

    def test_lcm_simulate_identical_under_recording_backend(self, fast_config):
        from repro.lcm.response import LCParams, LCResponseModel

        model = LCResponseModel(LCParams.cots_tn())
        rng = np.random.default_rng(5)
        drive = rng.integers(0, 2, size=(3, 24)).astype(bool)
        scale = rng.uniform(0.8, 1.2, 3)
        base = model.simulate(
            drive, fast_config.slot_s, fast_config.fs, time_scale=scale
        )
        rec = make_recording_backend()
        with use_backend(rec):
            proxied = model.simulate(
                drive, fast_config.slot_s, fast_config.fs, time_scale=scale
            )
        np.testing.assert_array_equal(np.asarray(base), np.asarray(proxied))
        assert rec.xp.op_log

    def test_streaming_receiver_identical_under_recording_backend(self, fast_config):
        from repro.phy.pipeline import PacketSimulator
        from repro.phy.streaming import StreamingReceiver

        sim = PacketSimulator(config=fast_config, payload_bytes=4, rng=9)
        cap = sim.make_capture(rng=3)

        def run():
            rx = StreamingReceiver(sim.receiver, search_stop=cap.search_stop)
            outs = []
            for lo in range(0, cap.samples.size, 237):
                outs.extend(rx.push(cap.samples[lo : lo + 237]))
            outs.extend(rx.close())
            (out,) = outs
            return out

        base = run()
        rec = make_recording_backend()
        with use_backend(rec):
            proxied = run()
        assert base.payload == proxied.payload
        assert base.crc_ok == proxied.crc_ok
        assert base.equalizer_mse == proxied.equalizer_mse
        np.testing.assert_array_equal(base.levels_i, proxied.levels_i)
        assert rec.xp.op_log

    def test_polarization_emit_identical_under_recording_backend(self):
        from repro.lcm.array import LCMArray
        from repro.lcm.dispersion import LCDispersionModel
        from repro.optics.polarstack import PolarStackConfig, SpectralConfig

        config = PolarStackConfig(
            spectral=SpectralConfig.led_cold_white(),
            dispersion=LCDispersionModel(temperature_c=31.0),
        )
        array = LCMArray.build(2, 4, rng=13, fidelity="jones", polarization=config)
        drive = (
            np.random.default_rng(14)
            .integers(0, 2, size=(array.n_pixels, 24))
            .astype(np.uint8)
        )
        base = array.emit(drive, 5e-4, 2e4, roll_rad=0.3)
        rec = make_recording_backend()
        with use_backend(rec):
            proxied = array.emit(drive, 5e-4, 2e4, roll_rad=0.3)
        np.testing.assert_array_equal(np.asarray(base), np.asarray(proxied))
        assert rec.xp.op_log, "spectral kernels bypassed the seam"

    def test_fleet_run_identical_under_recording_backend(self):
        from repro.faults.network import NETWORK_SCENARIOS
        from repro.network.fleet import FleetConfig, FleetSimulator

        cfg = FleetConfig(n_readers=3, n_tags=24, duration_s=15.0, queue_capacity=12)
        plan = NETWORK_SCENARIOS["compound"](cfg.duration_s)

        def run():
            sim = FleetSimulator(
                cfg, fault_plan=plan, root_seed=21, engine="store", record_frames=True
            )
            return sim, sim.run()

        _, base = run()
        rec = make_recording_backend()
        with use_backend(rec):
            _, proxied = run()
        assert base.row() == proxied.row()  # includes the timeline_digest
        for tag_base, tag_rec in zip(base.tags, proxied.tags):
            assert tag_base.link.snapshot() == tag_rec.link.snapshot()
        assert rec.xp.op_log, "store kernels bypassed the seam"


# --------------------------------------------------------------------------
# Source lint: registered hot-path kernels must not touch `np.` directly.
# --------------------------------------------------------------------------


def _hot_functions():
    from repro.lcm import response as lcm_response
    from repro.lcm.dispersion import LCDispersionModel
    from repro.modem.dfe import DFEBlockSession, DFEDemodulator
    from repro.network.linkstore import LinkStateStore
    from repro.optics import polarstack
    from repro.phy.streaming import StreamingReceiver, _GrowBuffer

    funcs = [
        LCDispersionModel.mixture_fraction,
        polarstack.spectral_amplitude,
        polarstack.jones_baseband,
        polarstack.stokes_baseband,
        LinkStateStore.serve_round,
        LinkStateStore._apply_outcomes,
        DFEBlockSession.__init__,
        DFEBlockSession.feed,
        DFEBlockSession._make_scratch,
        DFEBlockSession._extension_costs,
        DFEBlockSession._select,
        DFEBlockSession._merge_scan,
        DFEBlockSession._merge_sorted,
        DFEBlockSession._shift_history,
        DFEBlockSession._step,
        DFEBlockSession.finish,
        DFEBlockSession._traceback,
        DFEDemodulator._sparse_stacks,
        DFEDemodulator._advance_known,
        DFEDemodulator._shift_in_pair,
        DFEDemodulator._group_ids,
        lcm_response.LCResponseModel.simulate,
        lcm_response._charge_phi,
        lcm_response._charge_psi,
        lcm_response._discharge_phi,
        lcm_response._discharge_phi_above,
        lcm_response._discharge_phi_below,
        lcm_response._discharge_psi,
        StreamingReceiver._ingest,
        StreamingReceiver._advance_scan,
        _GrowBuffer.append,
    ]
    return [(f.__module__ + "." + f.__qualname__, f) for f in funcs]


def _numpy_references(func) -> list[str]:
    """Executable ``np`` references in a function body (AST walk).

    Type annotations, docstrings, and comments are not ops and are
    excluded; everything that would *run* against the numpy module — calls,
    attribute loads, bare names — is reported with its source line.
    """
    import ast
    import textwrap

    source = textwrap.dedent(inspect.getsource(func))
    tree = ast.parse(source)
    offenders: list[str] = []
    lines = source.splitlines()

    class Walker(ast.NodeVisitor):
        def _visit_function(self, node):
            # Skip decorators, argument annotations and the return
            # annotation — only the body executes per call.
            for stmt in node.body:
                self.visit(stmt)

        visit_FunctionDef = _visit_function
        visit_AsyncFunctionDef = _visit_function

        def visit_AnnAssign(self, node):
            if node.value is not None:
                self.visit(node.value)
            self.visit(node.target)

        def visit_arg(self, node):
            pass  # annotation-only

        def visit_Name(self, node):
            if node.id == "np" and isinstance(node.ctx, ast.Load):
                offenders.append(f"line {node.lineno}: {lines[node.lineno - 1].strip()}")

    Walker().visit(tree)
    return offenders


@pytest.mark.parametrize(
    "name,func", _hot_functions(), ids=[n for n, _ in _hot_functions()]
)
def test_hot_path_has_no_raw_numpy_references(name, func):
    """Every array op in a registered kernel must address ``xp``, not
    ``np`` — otherwise a device backend would silently compute that step
    on the host and the seam's contract is broken."""
    offenders = _numpy_references(func)
    assert not offenders, f"{name} touches numpy directly: {offenders}"
