"""Frozen executable specifications the vectorized engines are walled to.

Each oracle is the scalar implementation a vectorized engine in ``repro``
replaced, kept verbatim so equivalence is checked against executed
behaviour:

* :mod:`reference.dfe_reference` — the K-branch DFE beam search
  (``repro.modem.dfe``);
* :mod:`reference.response_reference` — the per-tick LC integrator
  (``repro.lcm.response``);
* :mod:`reference.link_reference` — the per-tag link state
  (``repro.network.linkstore``);
* :mod:`reference.fleet_reference` — a fleet that serves each slot
  through that per-tag link state (``repro.network.fleet``).

The test suite imports them as ``reference.<module>`` (pytest puts
``tests/`` on ``sys.path``); the benchmarks add ``tests/`` themselves in
``benchmarks/_common.py``.
"""
