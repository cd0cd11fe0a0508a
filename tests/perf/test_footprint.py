"""Footprint pin: an idle transport owns no container.

Before queues were allocated on demand a rank cost 10.5 live ``deque``s
(three per pipe, two per matching engine, one per gate, resource and
delayed-receive queue — 760 B each, empty or holding one parked waiter),
which was half the live heap of the 10,000-rank ``scale_10k`` workload.
This test counts them exactly, through the allocator's eyes
(``gc.get_objects()``), on a 1,000-rank FTPM token ring: none after launch,
and none after a ring round whose flow-sized token drove every pipe's
``egress`` queue — a queue that was used and drained must be given back.
The documented exceptions (a ``Store`` that has held a backlog, a
``Resource`` that has had waiters, keep their deque) do not occur on this
workload, so the count is exact; docs/PERF.md "Transport fixed costs".
"""

import collections
import gc

import pytest

from repro.apps.synthetic import token_ring
from repro.net.connection import _INLINE_BYTES
from repro.runtime import DeploymentSpec, build_run
from repro.sim import make_simulator

N_RANKS = 1_000


def _live_deques(known=frozenset()):
    gc.collect()
    return [obj for obj in gc.get_objects()
            if type(obj) is collections.deque and id(obj) not in known]


@pytest.mark.unmonitored  # the monitor bus keeps a record window: not transport
def test_idle_and_drained_queues_own_no_deque():
    # deques of the interpreter, pytest and earlier tests are not ours
    known = frozenset(id(obj) for obj in _live_deques())
    sim = make_simulator(seed=3)
    go = sim.event(name="go")
    ring = token_ring(rounds=1, nbytes=4 * _INLINE_BYTES)

    def app(ctx):
        yield go  # park every rank right after launch
        yield from ring(ctx)

    spec = DeploymentSpec(n_procs=N_RANKS, protocol=None, launcher="ftpm",
                          procs_per_node=2)
    run = build_run(sim, spec, app, name="footprint")
    run.start()
    sim.run()  # drains: every rank is launched and parked on `go`
    assert not run.completed.triggered
    assert _live_deques(known) == []

    go.succeed()
    sim.run_until_complete(run.completed, limit=1e8)
    pipes = [pipe for conn in run.net.connections for pipe in conn.pipes]
    assert len(pipes) >= 2 * N_RANKS  # the ring really connected everyone
    assert sum(pipe.messages_sent for pipe in pipes) >= N_RANKS
    assert _live_deques(known) == []
