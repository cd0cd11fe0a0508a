"""Fabric presets.

These numbers parameterize the link models with the hardware the paper used:

* **Gigabit Ethernet** — the 216-node Orsay cluster experiments (Sec. 5.2).
* **Myrinet 2000 / GM** — the 48-node Bordeaux cluster (Sec. 5.3); the Nemesis
  channel drives GM natively (7 µs class latency), while the TCP
  implementations ran Ethernet emulation over the same Myri2000 hardware
  (MX-2G driver), i.e. Myrinet bandwidth but Ethernet-stack latency.
* **Grid'5000 WAN** — Renater links between clusters.  The paper's own
  NetPIPE measurement (Sec. 5.4) found the inter-cluster network "up to 20
  times" slower in bandwidth and about two orders of magnitude worse in
  latency than intra-cluster links; the preset encodes exactly those ratios.

Absolute values are representative of 2006 hardware; the reproduction's
claims are about relative behaviour, which these ratios preserve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "Fabric",
    "GIGABIT_ETHERNET",
    "MYRINET_GM",
    "ETHERNET_OVER_MYRINET",
    "SHARED_MEMORY",
    "GRID5000_WAN",
]


@dataclass(frozen=True)
class Fabric:
    """Link technology parameters.

    Attributes
    ----------
    name:
        Human-readable identifier used in traces and reports.
    latency:
        One-way wire latency in seconds for a message on this fabric.
    bandwidth:
        Link capacity in bytes/second (per NIC direction, or per uplink for
        WAN fabrics).
    per_message_overhead:
        Host CPU cost per message (protocol stack traversal); charged by the
        MPI channel layer on both send and receive.
    per_flow_cap:
        Optional per-flow rate ceiling in bytes/second; used on WAN fabrics
        where a single TCP stream cannot fill the uplink.
    queue_mtus:
        Average NIC queue occupancy, in MTUs, contributed by each *competing*
        flow on a link.  A small message sharing a NIC with a bulk transfer
        (a checkpoint image) waits behind queued packets, so its latency
        grows by ``queue_mtus * MTU / capacity`` per competing flow — the
        mechanism that makes checkpoint traffic hurt latency-bound
        applications such as CG (Sec. 5.3).
    """

    name: str
    latency: float
    bandwidth: float
    per_message_overhead: float = 0.0
    per_flow_cap: Optional[float] = None
    queue_mtus: float = 4.0


#: 1 Gb/s Ethernet (Orsay cluster): ~50 µs end-to-end latency, ~117 MB/s.
GIGABIT_ETHERNET = Fabric(
    name="gige",
    latency=50e-6,
    bandwidth=117e6,
    per_message_overhead=5e-6,
)

#: Myrinet 2000 driven natively through GM (Nemesis channel).
MYRINET_GM = Fabric(
    name="myrinet-gm",
    latency=7e-6,
    bandwidth=240e6,
    per_message_overhead=1e-6,
)

#: Ethernet emulation on the same Myri2000 hardware (MX-2G driver); the
#: TCP-based implementations (Pcl/ft-sock and Vcl) used this in Sec. 5.3.
ETHERNET_OVER_MYRINET = Fabric(
    name="eth-over-myrinet",
    latency=60e-6,
    bandwidth=220e6,
    per_message_overhead=5e-6,
)

#: Intranode shared-memory "fabric" used by Nemesis between two processes of
#: a dual-processor node (no packet queues: lock-free memory copies).
SHARED_MEMORY = Fabric(
    name="shm",
    latency=0.8e-6,
    bandwidth=1.5e9,
    per_message_overhead=0.3e-6,
    queue_mtus=0.0,
)

#: Renater WAN between Grid'5000 sites: ~2 orders of magnitude more latency
#: than GigE and a per-stream bandwidth ~20x below the intra-cluster rate,
#: matching the paper's NetPIPE observation.
GRID5000_WAN = Fabric(
    name="grid5000-wan",
    latency=5e-3,
    bandwidth=1e9,
    per_message_overhead=5e-6,
    per_flow_cap=117e6 / 20.0,
    queue_mtus=16.0,
)
