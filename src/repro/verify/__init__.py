"""Online protocol-invariant monitors.

This package watches the structured trace stream (:mod:`repro.sim.trace`)
*while the simulation runs* and validates the correctness properties both
checkpointing protocols rest on — the properties DESIGN.md's offline
hypothesis tests check at the op level, enforced continuously and at the
packet level for every monitored run:

* the simulation clock is monotone and the event order is the deterministic
  total order the engine promises;
* every connection delivers FIFO (the channel property Chandy–Lamport
  requires);
* Vcl snapshots are orphan-free cuts and the daemon logs every in-transit
  message crossing a cut, replaying it exactly once on restart;
* Pcl never lets an application payload cross a channel between the marker
  and the local checkpoint (send gates / Nemesis stopper / delayed
  receives);
* Dcl's counter quiescence really empties the network — no draining rank
  commits a send, no pre-wave message is in flight when a rank forks, and
  every drain converges within its budget;
* the MPICH-V dispatcher's 3-sockets-per-process budget never exceeds the
  1024-descriptor ``select()`` wall;
* every checkpoint wave that starts either completes or is recorded as
  aborted (see :mod:`repro.chaos` for the campaign driver built on these;
  that the engine keeps making progress is :class:`repro.sim.Watchdog`'s
  check);
* committed checkpoint waves stay durably restorable: every rank keeps a
  sealed, checksum-intact replica on a live server, K-way replication
  survives a single server death, and a restart never fabricates a wave;
* survivor recovery acts on an *agreed* failed set — every survivor
  commits the same ballot before any recovery action — and a promoted
  spare always restores the failed rank's newest committed image
  (docs/RECOVERY.md).

The classes live in :mod:`repro.verify.monitors`, one module per thing
guarded (engine, transport, waves and storage, each protocol family,
survivor recovery); its ``REGISTRY`` is the only enumeration of them, and
each class docstring carries the provenance of its invariant.

Attach all monitors to a simulator with::

    from repro.verify import MonitorBus, all_monitors
    bus = MonitorBus(all_monitors())
    bus.attach(sim)
    ...  # run; InvariantViolation raises at the offending event
    bus.finish()

or, as :func:`repro.harness.runner.execute` does, only those that can fire
on a given deployment: ``MonitorBus(monitors_for(spec))``.

A monitor states each check once, as a handler of one trace category
taking the category's declared fields positionally (``@on("net.sent")``).
On the live path the bus compiles one closure per category and the emitting
site calls it directly — no record is built; ``Monitor.on_record`` and
``MonitorBus.dispatch`` adapt a materialised record onto the same handlers,
which is how a dumped trace is checked offline:
``python -m repro.verify trace.jsonl``.
"""

from repro.verify.base import InvariantViolation, Monitor, on
from repro.verify.bus import MonitorBus
from repro.verify.monitors import REGISTRY, all_monitors, monitors_for

__all__ = [
    "InvariantViolation",
    "Monitor",
    "MonitorBus",
    "REGISTRY",
    "all_monitors",
    "monitors_for",
    "on",
]
