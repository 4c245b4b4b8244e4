"""RetroTurbo: turboboosting visible light backscatter communication.

A full-system Python reproduction of the SIGCOMM 2020 paper: the DSM and
PQAM modulation schemes, the K-branch decision-feedback receiver with
two-stage channel training, the liquid-crystal / polarization-optics
substrate they run on, the modulation-scheme analysis method of section 5,
and the rate-adaptive MAC of section 4.4 - plus the harnesses reproducing
every table and figure of the paper's evaluation.

Quickstart::

    from repro import PacketSimulator, ModemConfig
    from repro.channel import OpticalLink
    from repro.optics import LinkGeometry

    sim = PacketSimulator(
        config=ModemConfig(),                       # 8 Kbps default
        link=OpticalLink(LinkGeometry(distance_m=3.0)),
        rng=7,
    )
    point = sim.measure_ber(n_packets=10, rng=1)
    print(f"BER {point.ber:.4%}  (reliable: {point.reliable})")
"""

from repro.channel.link import OpticalLink
from repro.errors import FailureReason, FailureStage, ReproError
from repro.faults import FaultPlan, scenario, scenario_names
from repro.modem.config import ModemConfig, RATE_PRESETS, preset_for_rate
from repro.obs import MetricsRegistry, Observer, RunReport
from repro.optics.geometry import LinkGeometry
from repro.phy.pipeline import PacketResult, PacketSimulator

__version__ = "1.1.0"

from repro.api import ScenarioSpec, Session  # noqa: E402  (needs the names above)

__all__ = [
    "FailureReason",
    "FailureStage",
    "FaultPlan",
    "LinkGeometry",
    "MetricsRegistry",
    "ModemConfig",
    "Observer",
    "OpticalLink",
    "PacketResult",
    "PacketSimulator",
    "RATE_PRESETS",
    "ReproError",
    "RunReport",
    "ScenarioSpec",
    "Session",
    "__version__",
    "preset_for_rate",
    "scenario",
    "scenario_names",
]
