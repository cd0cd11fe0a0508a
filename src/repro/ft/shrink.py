"""The ``shrink`` recovery policy: renumber the survivors, re-decompose.

The dead ranks are not replaced: the survivors renumber to
``0..n_survivors-1`` and restart a *malleable* application
(``FTRun.malleable_app_factory``, size -> app function) over the smaller
communicator, from the last iteration boundary every committed image had
reached.  :func:`place` is the policy's place step (the contract is in
docs/RECOVERY.md, "Adding a recovery policy"); it degrades — relaunching
nothing — when the app is not malleable or no survivor is left alive.
"""

from __future__ import annotations

from repro.ft.restore import StorageUnrecoverableError
from repro.ft.server import assign_replicas
from repro.sim.trace import declare

__all__ = ["place"]


declare("ft.shrunk", __name__, size=int, dropped=tuple, resume_iteration=int,
        incarnation=int)


def place(run, failed, survivors, committed, inherited, marks, started_at):
    """Generator: renumber the survivors and re-decompose the app.

    Renumbering invalidates the cached pair addressing, so shrink keeps
    no survivor sockets — the new job reconnects lazily.
    """
    if run.malleable_app_factory is None:
        return "app-not-malleable"
    old_size = len(run.endpoints)
    live = [r for r in survivors if run.endpoints[r].node.alive]
    if not live:
        return "no-survivors"
    # dead machines cannot stream their own images back: a survivor
    # fetches each dead rank's shard (the redistribution cost)
    dead_ranks = [r for r in range(old_size)
                  if not run.endpoints[r].node.alive]
    via_map = {rank: run.endpoints[live[i % len(live)]]
               for i, rank in enumerate(dead_ranks)}
    try:
        snapshots, _logs, restored_wave = \
            yield from run.restorer.restore(committed, via_map=via_map)
    except StorageUnrecoverableError:
        if any(not run.endpoints[r].node.alive for r in live):
            return "casualty-during-restore"  # fetcher died, not storage
        raise
    live = [r for r in live if run.endpoints[r].node.alive]
    if not live:
        return "no-survivors"
    marks["promote"] = run.sim.now
    resume = 0
    if snapshots is not None:
        resume = min(snapshot.state.get("iteration", 0)
                     for snapshot in snapshots)
    new_size = len(live)
    live_set = set(live)
    dropped = tuple(r for r in range(old_size) if r not in live_set)
    run.endpoints = [run.endpoints[r] for r in live]
    if run.servers:
        run.replica_map = assign_replicas(new_size, run.servers,
                                          run.replication)
    run.app_factory = run.malleable_app_factory(new_size)
    run.stats.shrinks += 1
    run.sim.trace.record(run.sim.now, "ft.shrunk", size=new_size,
                         dropped=dropped, resume_iteration=resume,
                         incarnation=run.incarnation)
    run._announce_world()
    run._finish_recovery(restored_wave, None, None,
                         marks, started_at, start_delays=[0.0] * new_size,
                         seed_state={"resume_iteration": resume})
    return None
