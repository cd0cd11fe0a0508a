"""Synthetic kernels: ping-pong, token ring, burst.

These are the small controllable workloads used by unit tests, ablation
benches and the NetPIPE tool — each isolates one communication regime the
NAS skeletons mix together.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["ping_pong", "token_ring", "burst"]


def ping_pong(n_messages: int, nbytes: float, compute: float = 0.0) -> Callable:
    """Rank 0 <-> rank 1 round trips; other ranks idle.

    Rank 0's state records the measured round-trip times under ``"rtts"``.
    """

    def app(ctx):
        if ctx.rank == 0:
            for i in range(n_messages):
                if compute > 0:
                    yield from ctx.compute(compute)
                start = ctx.sim.now
                yield from ctx.send(1, 500, None, nbytes)
                yield from ctx.recv(1, 501)
                rtt = ctx.sim.now - start
                ctx.update(lambda s, r=rtt: s.setdefault("rtts", []).append(r))
        elif ctx.rank == 1:
            for i in range(n_messages):
                yield from ctx.recv(0, 500)
                yield from ctx.send(0, 501, None, nbytes)
        return None

    return app


def token_ring(rounds: int, nbytes: float = 64.0) -> Callable:
    """A token circulates the ring ``rounds`` times (pure latency chain)."""

    def app(ctx):
        right = (ctx.rank + 1) % ctx.size
        left = (ctx.rank - 1) % ctx.size
        for round_index in range(rounds):
            if ctx.rank == 0:
                yield from ctx.send(right, 520, round_index, nbytes)
                token = yield from ctx.recv(left, 520)
                ctx.update(lambda s, t=token: s.__setitem__("token", t))
            else:
                token = yield from ctx.recv(left, 520)
                yield from ctx.send(right, 520, token, nbytes)

    return app


def burst(iters: int, nbytes: float, fan: int = 4, compute: float = 0.01) -> Callable:
    """Bursty all-to-some traffic: each rank blasts ``fan`` peers, then
    computes — the burst pattern the paper notes interacts badly with
    frequent blocking checkpoints (Sec. 5.2)."""

    def app(ctx):
        peers = [(ctx.rank + k + 1) % ctx.size for k in range(min(fan, ctx.size - 1))]
        for iteration in range(iters):
            requests = [ctx.isend(peer, 530, None, nbytes) for peer in peers]
            for _ in peers:
                yield from ctx.recv(tag=530)
            for request in requests:
                yield from request.wait()
            yield from ctx.compute(compute)
            ctx.update(lambda s, i=iteration: s.__setitem__("iteration", i + 1))

    return app
