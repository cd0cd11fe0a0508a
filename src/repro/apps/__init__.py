"""Application workloads: NAS Parallel Benchmark skeletons + synthetic kernels.

``BENCHMARKS`` maps lowercase names to classes: NPB 2.3's BT and CG, the
two kernels the paper's evaluation uses, and the malleable stencil the
shrink recovery policy re-decomposes.
"""

from repro.apps.base import NASBenchmark, NASClassSpec, isqrt_exact
from repro.apps.bt import BT
from repro.apps.cg import CG
from repro.apps.stencil import Stencil
from repro.apps.synthetic import burst, halo_2d, ping_pong, token_ring

BENCHMARKS = {
    "bt": BT,
    "cg": CG,
    "stencil": Stencil,
}

__all__ = [
    "BENCHMARKS",
    "BT",
    "CG",
    "NASBenchmark",
    "NASClassSpec",
    "Stencil",
    "burst",
    "halo_2d",
    "isqrt_exact",
    "ping_pong",
    "token_ring",
]
