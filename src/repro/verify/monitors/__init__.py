"""The shipped invariant monitors, one module per thing guarded.

:data:`REGISTRY` is the only enumeration of them.  A monitor class says
itself which deployments can arm it (``Monitor.protocols`` /
``Monitor.recovery_policies``), so shipping a monitor is its module plus
one line here.  The order is the key order of ``monitors.*.verdicts`` in
every results document: append, never reorder.
"""

from typing import List, Tuple, Type

from repro.verify.base import Monitor
from repro.verify.monitors import (dcl, engine, pcl, survivors, transport,
                                   vcl, waves)

__all__ = ["REGISTRY", "all_monitors", "monitors_for"]

REGISTRY: Tuple[Type[Monitor], ...] = (
    engine.MonotoneClockMonitor,
    transport.FifoDeliveryMonitor,
    vcl.VclNoOrphanMonitor,
    vcl.VclLoggingMonitor,
    pcl.PclFlushMonitor,
    dcl.DclNetworkEmptyMonitor,
    dcl.DclDrainLivenessMonitor,
    transport.FdBudgetMonitor,
    waves.WaveLivenessMonitor,
    waves.StorageDurabilityMonitor,
    survivors.MembershipAgreementMonitor,
    survivors.SpareConsistencyMonitor,
)


def all_monitors() -> List[Monitor]:
    """Fresh instances of every shipped monitor."""
    return [cls() for cls in REGISTRY]


def monitors_for(spec: "DeploymentSpec") -> List[Monitor]:
    """The monitors that can fire on a run deployed from ``spec``.

    A protocol's monitors are armed only by records that protocol emits,
    wave and storage records need a protocol at all, and the membership and
    promotion records come from the survivor recovery policies — the rest
    of :func:`all_monitors` would ride along with nothing to check
    (``tests/verify/test_selection.py`` proves that, it is not assumed).
    """
    return [cls() for cls in REGISTRY
            if (cls.protocols is None or spec.protocol in cls.protocols)
            and (cls.recovery_policies is None
                 or spec.recovery_policy in cls.recovery_policies)]
