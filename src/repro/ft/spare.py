"""The ``spare`` recovery policy: promote pre-allocated spare machines.

Survivors keep their engines and their survivor-to-survivor sockets; every
rank whose machine died moves onto a node of the run's spare pool
(``FTRun.spare_pool``), and only those replacements stream their images
back and pay the launcher's spawn cost.  :func:`place` is the policy's
place step (the contract is in docs/RECOVERY.md, "Adding a recovery
policy"); it degrades — relaunching nothing — when the pool runs dry or
cascading kills keep interrupting the restore.
"""

from __future__ import annotations

from typing import List

from repro.ft.restore import StorageUnrecoverableError
from repro.net.topology import Endpoint
from repro.sim.trace import declare

__all__ = ["place"]


declare("ft.spare_restore", __name__, rank=int, wave=int, node=str)
declare("ft.promoted", __name__, rank=int, node=str, incarnation=int)


def place(run, failed, survivors, committed, inherited, marks, started_at):
    """Generator: promote spares for dead machines, restore, relaunch.

    Loops when a cascading kill lands while images are streaming back —
    every loop re-promotes for the new casualties, bounded so exhaustion
    or relentless kills degrade instead of spinning.
    """
    promoted: List[int] = []
    for _attempt in range(3):
        newly, exhausted = _promote_spares(run)
        promoted.extend(newly)
        if exhausted:
            return "spare-pool-exhausted"
        marks["promote"] = run.sim.now
        try:
            snapshots, logs, restored_wave = \
                yield from run.restorer.restore(committed)
        except StorageUnrecoverableError:
            if any(not ep.node.alive for ep in run.endpoints):
                continue  # the fetcher died, not the storage: re-place
            raise
        if any(not ep.node.alive for ep in run.endpoints):
            continue  # a kill landed mid-restore; promote replacements
        if restored_wave > 0:
            for rank in sorted(set(promoted)):
                run.sim.trace.record(
                    run.sim.now, "ft.spare_restore", rank=rank,
                    wave=restored_wave,
                    node=run.endpoints[rank].node.name)
        links = {key: ends for key, ends in inherited.items()
                 if not ends[0].connection.broken}
        # survivors are already resident: only the failed ranks pay the
        # launcher's spawn cost
        delays = [0.0] * len(run.endpoints)
        if failed:
            spawn = run.launcher.spawn_delays(len(failed))
            for position, rank in enumerate(sorted(failed)):
                if rank < len(delays):
                    delays[rank] = spawn[position]
        run._finish_recovery(restored_wave, snapshots, logs,
                             marks, started_at, start_delays=delays,
                             inherited_links=links)
        return None
    return "cascading-failures"


def _promote_spares(run):
    """Move endpoints off dead machines onto pre-allocated spares.

    Returns ``(promoted ranks, exhausted)`` — exhausted means a dead
    endpoint remains with no live spare left to host it.
    """
    promoted: List[int] = []
    pool = run.spare_pool
    for index, endpoint in enumerate(run.endpoints):
        if endpoint.node.alive:
            continue
        while pool and not pool[0].alive:
            pool.pop(0)
        if not pool:
            return promoted, True
        node = pool.pop(0)
        node.service = False  # now hosts an MPI rank
        run.endpoints[index] = Endpoint(node, 0)
        run.stats.spares_promoted += 1
        run.sim.trace.record(run.sim.now, "ft.promoted", rank=index,
                             node=node.name, incarnation=run.incarnation)
        promoted.append(index)
    return promoted, False
