"""Collective operations built on point-to-point messages.

The algorithms mirror MPICH's defaults at these scales: binomial trees for
bcast/reduce, and allreduce as a reduce to rank 0 followed by a bcast.
Message counts and sizes therefore scale like the real library (O(p log p)
markers-equivalent traffic for trees), which matters because checkpoint
waves interact with bursts of collective traffic (Sec. 5.2 of the paper).

Every constituent point-to-point call is an op of the calling context, so
collectives replay correctly across a rollback; reduction operators are only
applied to live data (replayed receives return SKIPPED and contribute
nothing — the reduced value those ops produced is already in the restored
application state).
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["bcast", "reduce", "allreduce"]


def _is_skipped(value: Any) -> bool:
    from repro.mpi.context import SKIPPED

    return value is SKIPPED


def bcast(ctx: "RankContext", value: Any, root: int, nbytes: float):
    """Binomial-tree broadcast; returns the broadcast value on every rank."""
    tag = ctx._next_coll_tag()
    p = ctx.size
    if p == 1:
        return value
    vrank = (ctx.rank - root) % p

    # Receive phase: non-roots wait for their parent in the binomial tree.
    mask = 1
    if vrank != 0:
        while mask < p:
            if vrank & mask:
                parent = ((vrank - mask) + root) % p
                value = yield from ctx.recv(parent, tag)
                break
            mask <<= 1
    else:
        while mask < p:
            mask <<= 1

    # Forward phase: relay to children.
    mask >>= 1
    while mask > 0:
        if vrank + mask < p and not (vrank & mask):
            child = (vrank + mask + root) % p
            yield from ctx.send(child, tag, value, nbytes)
        mask >>= 1
    return value


def reduce(ctx: "RankContext", value: Any, op: Callable[[Any, Any], Any],
           root: int, nbytes: float):
    """Binomial-tree reduction; the result is returned at ``root`` only."""
    tag = ctx._next_coll_tag()
    p = ctx.size
    if p == 1:
        return value
    vrank = (ctx.rank - root) % p
    acc = value
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = ((vrank - mask) + root) % p
            yield from ctx.send(parent, tag, acc, nbytes)
            return None
        peer = vrank | mask
        if peer < p:
            data = yield from ctx.recv((peer + root) % p, tag)
            if not (_is_skipped(data) or _is_skipped(acc)):
                acc = op(acc, data)
            elif _is_skipped(acc) and not _is_skipped(data):
                acc = data
        mask <<= 1
    return acc


def allreduce(ctx: "RankContext", value: Any, op: Callable[[Any, Any], Any],
              nbytes: float):
    """Reduce to rank 0 followed by a broadcast (MPICH's small-comm default)."""
    reduced = yield from reduce(ctx, value, op, 0, nbytes)
    result = yield from bcast(ctx, reduced, 0, nbytes)
    return result
