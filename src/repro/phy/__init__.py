"""PHY layer: frame format and the end-to-end packet pipeline.

A RetroTurbo packet is laid out in slots as::

    [ idle guard | preamble | online-training | payload (+CRC) ]

with every section a multiple of ``L`` slots so the DSM group rotation
stays phase-aligned from detection through demodulation.
"""

from repro.phy.frame import FrameFormat
from repro.phy.pipeline import PacketResult, PacketSimulator
from repro.phy.receiver import PhyReceiver, ReceiverOutput
from repro.phy.transmitter import PhyTransmitter

__all__ = [
    "FrameFormat",
    "PacketResult",
    "PacketSimulator",
    "PhyReceiver",
    "PhyTransmitter",
    "ReceiverOutput",
]
