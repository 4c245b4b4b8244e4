"""Receiver-side reference pulse bank (the fingerprint model of §4.3.3).

The demodulator predicts received waveforms from per-group *reference
pulses*: for each DSM transmitter (group) the W-long pulse emitted by a
firing depends on the fired level and, through the tail effect, on the
``V - 1`` previous firings of the same group.  Following the paper's
footnote 6, pixels within a group are modelled as area-proportional copies
of one *unit* fingerprint (collected per group or shared nominally), so a
group pulse for a level history assembles as the area-weighted sum of unit
chunks selected by each pixel's bit history, scaled by the group's complex
coefficient (solved by online channel training) on the group's polarization
basis.

Offline training produces the unit tables (or KL bases, see
:mod:`repro.training`); online training solves the per-group coefficients.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.lcm.fingerprint import FingerprintTable, collect_fingerprints
from repro.lcm.response import LCParams, LCResponseModel
from repro.modem.config import ModemConfig
from repro.utils.opcache import fingerprint_config, fingerprint_params, resolve_opcache

__all__ = ["GroupReference", "ReferenceBank", "assemble_waveform", "collect_unit_table"]

_CHANNEL_BASES = {0: 1.0 + 0.0j, 1: complex(np.exp(1j * np.pi / 2))}
# Channel 0 (I, polarizer 0deg) -> exp(j*2*0) = 1;
# channel 1 (Q, 45deg) -> exp(j*pi/2) = j.


def collect_unit_table(
    config: ModemConfig,
    params: LCParams | None = None,
    time_scale: float = 1.0,
    opcache=None,
) -> FingerprintTable:
    """Collect the unit (single-pixel) firing fingerprint table.

    Fires a nominal pixel once every ``L`` slots following the DSM schedule
    (charge one slot, relax ``L - 1``) driven by a ``V``-th order MLS over
    *firing* bits, and records W-long chunks per V-bit firing history.
    Chunks are the raw bipolar optical amplitude (including the -1 rest
    level), so sums over pixels reproduce absolute waveforms.

    The table is fully determined by ``(config, params, time_scale)``;
    with ``opcache`` (an :class:`~repro.utils.opcache.OpCache`, or True
    for the process-global one) the MLS sweep runs once per operating
    point and repeat collections share the stored table.  Consumers treat
    tables as immutable (composition builds new tables), so sharing is
    safe.
    """
    cache = resolve_opcache(opcache)
    resolved = params or LCParams()
    if cache is not None:
        key = (fingerprint_config(config), fingerprint_params(resolved), float(time_scale))
        return cache.get(
            "unit_table",
            key,
            lambda: collect_unit_table(config, params=resolved, time_scale=time_scale),
        )
    model = LCResponseModel(resolved)
    cfg = config

    def waveform_fn(firing_bits: np.ndarray) -> np.ndarray:
        firing_bits = np.asarray(firing_bits, dtype=np.uint8)
        slot_drive = np.zeros((1, firing_bits.size * cfg.dsm_order), dtype=np.uint8)
        slot_drive[0, :: cfg.dsm_order] = firing_bits
        phi = model.simulate(
            slot_drive,
            cfg.slot_s,
            cfg.fs,
            time_scale=np.array([time_scale]),
        )
        return LCResponseModel.optical_amplitude(phi)[0]

    return collect_fingerprints(
        waveform_fn,
        order=cfg.tail_memory,
        tick_s=cfg.symbol_duration_s,
        fs=cfg.fs,
    )


def assemble_waveform(
    bank: "ReferenceBank",
    levels_i: np.ndarray,
    levels_q: np.ndarray,
    preceding: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Synthesise the received waveform a level-pair sequence produces,
    using the bank's (finite-memory) reference pulses.

    This is the §5.2 emulation applied at firing granularity: the exact
    signal model the DFE assumes, also used to generate §7.3-style traces
    far faster than the ground-truth ODE.  ``preceding`` optionally gives
    the slot-wise levels transmitted before sample zero (defaults to a
    long-idle channel).
    """
    cfg = bank.config
    ts = cfg.samples_per_slot
    w = cfg.samples_per_symbol
    levels_i = np.asarray(levels_i, dtype=int)
    levels_q = np.asarray(levels_q, dtype=int)
    if levels_i.shape != levels_q.shape or levels_i.ndim != 1:
        raise ValueError("levels_i and levels_q must be equal-length 1-D arrays")
    n_slots = levels_i.size
    out = np.zeros(n_slots * ts, dtype=complex)
    v_prev = cfg.tail_memory - 1
    for channel, levels in ((0, levels_i), (1, levels_q)):
        for gi in range(cfg.dsm_order):
            pre = [0] * cfg.tail_memory
            if preceding is not None:
                pre += [int(v) for v in np.asarray(preceding[channel])[gi :: cfg.dsm_order]]
            fired = pre + [int(v) for v in levels[gi :: cfg.dsm_order]]
            n_pre = len(pre)
            for k, level in enumerate(fired):
                start = ((k - n_pre) * cfg.dsm_order + gi) * ts
                if start + w <= 0 or start >= out.size:
                    continue
                prev = tuple(reversed(fired[max(k - v_prev, 0) : k]))
                pulse = bank.pulse(channel, gi, level, prev)
                lo = max(start, 0)
                hi = min(start + w, out.size)
                out[lo:hi] += pulse[lo - start : hi - start]
    return out


@functools.lru_cache(maxsize=None)
def _context_plan(m: int, tail_memory: int, n_bits: int) -> np.ndarray:
    """``(S, m, n_bits)`` firing context of every pixel, per history code and level.

    :meth:`ReferenceBank._pixel_context` evaluated for every packed history
    code (:meth:`ReferenceBank.history_code`) and fired level at once; the
    gather plan :meth:`ReferenceBank.dense_table` composes pulses through.
    One plan per operating point, shared by every bank.
    """
    v_prev = max(tail_memory - 1, 0)
    codes = np.arange(m**v_prev)
    # Oldest-first level sequence ending at the current firing:
    # seq[..., i] = hist[v_prev - 1 - i], with hist most recent first.
    seq = np.empty((codes.size, m, v_prev + 1), dtype=np.int64)
    for i in range(v_prev):
        seq[:, :, i] = ((codes // m ** (v_prev - 1 - i)) % m)[:, None]
    seq[:, :, v_prev] = np.arange(m)
    bits = (seq[..., None] >> (n_bits - 1 - np.arange(n_bits))) & 1
    plan = np.zeros((codes.size, m, n_bits), dtype=np.int64)
    for i in range(v_prev + 1):
        plan = (plan << 1) | bits[:, :, i, :]
    plan.flags.writeable = False
    return plan


@dataclass
class GroupReference:
    """Reference material for one DSM transmitter (group)."""

    channel: int
    index: int
    area_fracs: np.ndarray
    """Per-pixel amplitude fractions of the *channel* total (MSB first)."""
    unit_tables: list[FingerprintTable]
    """One fingerprint table per pixel (may all alias one nominal table)."""
    coef: complex = 1.0 + 0.0j
    """Online-trained complex gain on the group's basis."""
    basis: complex = 1.0 + 0.0j
    """Nominal polarization basis exp(j*2*theta)."""
    pixel_bases: np.ndarray | None = None
    """Optional exact per-pixel complex bases (genie mode); ``None`` means
    all pixels sit exactly on ``basis``."""

    def pixel_weight(self, pixel: int) -> complex:
        """Complex amplitude weight of one pixel (area x basis)."""
        base = self.pixel_bases[pixel] if self.pixel_bases is not None else 1.0
        return complex(self.area_fracs[pixel] * base)


class ReferenceBank:
    """All group references for one operating point, with pulse caching."""

    def __init__(self, config: ModemConfig, groups: list[GroupReference]):
        self.config = config
        expected = 2 * config.dsm_order
        if len(groups) != expected:
            raise ValueError(f"need {expected} group references, got {len(groups)}")
        self._groups: dict[tuple[int, int], GroupReference] = {}
        for g in groups:
            key = (g.channel, g.index)
            if key in self._groups:
                raise ValueError(f"duplicate group reference {key}")
            self._groups[key] = g
        self._pulse_cache: dict[tuple, np.ndarray] = {}

    # -------------------------------------------------------------- access

    def group(self, channel: int, index: int) -> GroupReference:
        """The reference record for one group."""
        return self._groups[(channel, index)]

    @property
    def groups(self) -> list[GroupReference]:
        """All group references (I groups then Q groups, by index)."""
        return [self._groups[k] for k in sorted(self._groups)]

    def set_coefficients(self, coefs: dict[tuple[int, int], complex]) -> None:
        """Install online-training results and invalidate the pulse cache."""
        for key, coef in coefs.items():
            self._groups[key].coef = complex(coef)
        self._pulse_cache.clear()

    # -------------------------------------------------------------- pulses

    def _pixel_context(self, pixel: int, n_bits: int, levels: tuple[int, ...]) -> int:
        """V-bit firing context of one pixel for a level history.

        ``levels`` is ordered oldest first and already has length V.
        """
        key = 0
        shift = n_bits - 1 - pixel
        for level in levels:
            key = (key << 1) | ((level >> shift) & 1)
        return key

    def pulse(self, channel: int, index: int, level: int, prev_levels: tuple[int, ...]) -> np.ndarray:
        """W-long complex reference pulse of a group firing.

        Parameters
        ----------
        channel, index:
            Group identity (0 = I, 1 = Q).
        level:
            The fired PAM level.
        prev_levels:
            The group's previous fired levels, *most recent first*; only
            the first ``V - 1`` entries are used (missing history is taken
            as level 0, i.e. fully relaxed).
        """
        v = self.config.tail_memory
        hist = list(prev_levels[: v - 1])
        hist += [0] * (v - 1 - len(hist))
        cache_key = (channel, index, level, tuple(hist))
        cached = self._pulse_cache.get(cache_key)
        if cached is not None:
            return cached
        group = self._groups[(channel, index)]
        # Oldest-first level sequence ending at the current firing.
        seq = tuple(reversed(hist)) + (level,)
        n_bits = len(group.area_fracs)
        w = self.config.samples_per_symbol
        total = np.zeros(w, dtype=complex)
        for pixel in range(n_bits):
            ctx = self._pixel_context(pixel, n_bits, seq)
            chunk = group.unit_tables[pixel].chunks[ctx]
            total = total + group.pixel_weight(pixel) * chunk
        pulse = (group.coef * group.basis) * total
        self._pulse_cache[cache_key] = pulse
        return pulse

    def pulse_stack(self, channel: int, index: int, prev_levels: tuple[int, ...]) -> np.ndarray:
        """All candidate pulses ``(levels_per_axis, W)`` for one history.

        One cached array per (group, history) covering every candidate level
        at once — the gather unit of the demodulator's sparse fallback path.
        """
        v = self.config.tail_memory
        hist = list(prev_levels[: v - 1])
        hist += [0] * (v - 1 - len(hist))
        cache_key = (channel, index, "stack", tuple(hist))
        cached = self._pulse_cache.get(cache_key)
        if cached is not None:
            return cached
        group = self._groups[(channel, index)]
        m = 1 << len(group.area_fracs)
        stack = np.stack([self.pulse(channel, index, lvl, tuple(hist)) for lvl in range(m)])
        self._pulse_cache[cache_key] = stack
        return stack

    # --------------------------------------------------------- dense tables

    @property
    def n_history_states(self) -> int:
        """``m**(V-1)`` — quantized history states per group."""
        m = self.config.levels_per_axis
        return m ** max(self.config.tail_memory - 1, 0)

    def history_code(self, prev_levels: tuple[int, ...]) -> int:
        """Pack a most-recent-first level history into a dense-table index.

        ``code = sum_j prev_levels[j] * m**j`` over the first ``V - 1``
        entries (missing history counts as level 0) — the ``code`` index of
        :meth:`dense_table` and :meth:`dense_planes`.
        """
        m = self.config.levels_per_axis
        v_prev = max(self.config.tail_memory - 1, 0)
        code = 0
        for j in range(v_prev):
            level = int(prev_levels[j]) if j < len(prev_levels) else 0
            code += level * m**j
        return code

    def dense_table(self) -> np.ndarray:
        """Every group's reference pulses as one dense complex table.

        Returns a ``(2, L, S, m, W)`` array indexed ``[channel, group, code,
        level]``, where ``S = m**(V-1)`` packed history codes (see
        :meth:`history_code`).  Entry ``[ch, gi, code, level]`` is byte-equal
        to :meth:`pulse` for that firing: each group's table is built with
        array ops over every (history, level) at once through a cached
        context plan, composed in :meth:`pulse`'s elementwise order (start
        from zeros, add ``weight * chunk`` one pixel at a time, then scale by
        ``coef * basis``).  Not cached; :meth:`dense_planes` caches the
        demodulator's view of it.
        """
        cfg = self.config
        m = cfg.levels_per_axis
        n_ctx = 1 << cfg.tail_memory
        w = cfg.samples_per_symbol
        table = np.empty((2, cfg.dsm_order, self.n_history_states, m, w), dtype=complex)
        for group in self._groups.values():
            n_bits = len(group.area_fracs)
            plan = _context_plan(m, cfg.tail_memory, n_bits)
            stacked: dict[int, np.ndarray] = {}
            total = np.zeros(plan.shape[:2] + (w,), dtype=complex)
            for pixel in range(n_bits):
                unit = group.unit_tables[pixel]
                chunks = stacked.get(id(unit))
                if chunks is None:
                    chunks = np.array([unit.chunks[c] for c in range(n_ctx)], dtype=complex)
                    stacked[id(unit)] = chunks
                total = total + group.pixel_weight(pixel) * chunks[plan[:, :, pixel]]
            np.multiply(group.coef * group.basis, total, out=table[group.channel, group.index])
        return table

    def dense_planes(self, split: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`dense_table` split at sample ``split``, as float planes.

        Returns ``(heads, tails)``:

        * ``heads`` — ``(2, L, 2, m, S, split)`` indexed ``[channel, group,
          plane, level, code]``: the part a candidate firing contributes to
          the *current* slot (the cost update), level-major so that a
          gather by history code yields per-level contiguous slabs;
        * ``tails`` — ``(2, L, 2, S, m, W - split)`` indexed ``[channel,
          group, plane, code, level]``: the prediction it pushes into
          future slots.

        Plane 0 holds real parts and plane 1 imaginary parts.  Complex
        addition and subtraction are exactly componentwise in IEEE
        arithmetic, so consumers working plane by plane produce
        bit-identical numbers while every inner loop runs over contiguous
        float64.  Every ``[channel, group]`` and ``[channel, group, plane]``
        sub-array is C-contiguous.  Built once per bank and split (cached,
        invalidated with the pulse cache on :meth:`set_coefficients`).
        """
        cache_key = ("planes", split)
        cached = self._pulse_cache.get(cache_key)
        if cached is not None:
            return cached
        table = self.dense_table()
        planes = np.stack((table.real, table.imag), axis=2)
        heads = np.ascontiguousarray(planes[..., :split].swapaxes(3, 4))
        tails = np.ascontiguousarray(planes[..., split:])
        self._pulse_cache[cache_key] = (heads, tails)
        return heads, tails

    # ------------------------------------------------------------- factory

    @classmethod
    def from_unit_table(
        cls,
        config: ModemConfig,
        unit: FingerprintTable,
        levels_per_axis: int | None = None,
    ) -> "ReferenceBank":
        """Bank in which every group shares one provided unit table.

        Used by the online trainer to assemble per-basis design waveforms
        and by tests that inject synthetic fingerprints.
        """
        m = levels_per_axis or config.levels_per_axis
        n_bits = m.bit_length() - 1
        areas = np.array([float(1 << (n_bits - 1 - b)) for b in range(n_bits)])
        fracs = areas / (areas.sum() * config.dsm_order)
        groups = [
            GroupReference(
                channel=ch,
                index=gi,
                area_fracs=fracs.copy(),
                unit_tables=[unit] * n_bits,
                basis=_CHANNEL_BASES[ch],
            )
            for ch in (0, 1)
            for gi in range(config.dsm_order)
        ]
        return cls(config, groups)

    @classmethod
    def nominal(
        cls,
        config: ModemConfig,
        params: LCParams | None = None,
        levels_per_axis: int | None = None,
        opcache=None,
    ) -> "ReferenceBank":
        """Bank built from one shared nominal unit table (offline training
        under ideal conditions; per-group spread left to online training)."""
        unit = collect_unit_table(config, params=params, opcache=opcache)
        return cls.from_unit_table(config, unit, levels_per_axis=levels_per_axis)

    @classmethod
    def genie(cls, config: ModemConfig, array, opcache=None) -> "ReferenceBank":
        """Bank with exact per-pixel fingerprints of a *specific* array.

        Collects each pixel's true response (including its heterogeneity)
        — the perfect-channel-knowledge upper bound used in tests and
        ablations.
        """
        groups: list[GroupReference] = []
        for ch, channel in enumerate(("I", "Q")):
            channel_area = sum(g.nominal_area for g in array.groups_on(channel))
            for g in array.groups_on(channel):
                tables = []
                fracs = []
                bases = []
                for p in g.pixels:
                    tables.append(
                        collect_unit_table(
                            config, params=p.params, time_scale=p.time_scale, opcache=opcache
                        )
                    )
                    fracs.append(p.area * p.gain / channel_area)
                    bases.append(np.exp(2j * p.angle_rad))
                groups.append(
                    GroupReference(
                        channel=ch,
                        index=g.index,
                        area_fracs=np.asarray(fracs),
                        unit_tables=tables,
                        basis=1.0 + 0.0j,
                        pixel_bases=np.asarray(bases, dtype=complex),
                    )
                )
        return cls(config, groups)
