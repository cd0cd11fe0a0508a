#!/usr/bin/env python
"""Anatomy of a failure: a traced kill/rollback/restart timeline.

Runs a communication-heavy ring application under the *non-blocking* (Vcl)
protocol with tracing enabled, kills one task, and prints the full event
timeline: waves, local checkpoints, message logging, failure detection,
image restores and the replayed channel state.

Run:  python examples/failure_recovery_demo.py
"""

import operator

from repro.ft import CheckpointServer, FTRun, Fault, VclProtocol
from repro.mpi import ChVChannel
from repro.net import ClusterNetwork
from repro.net.topology import Endpoint
from repro.sim import Simulator, Tracer


def ring_app(ctx):
    for i in range(40):
        yield from ctx.compute(0.05)
        right = (ctx.rank + 1) % ctx.size
        request = ctx.isend(right, tag=1, data=i, nbytes=200_000)
        value = yield from ctx.recv((ctx.rank - 1) % ctx.size, tag=1)
        yield from request.wait()
        ctx.update(lambda s, v=value: s.__setitem__(
            "received", s.get("received", 0) + 1))
        total = yield from ctx.allreduce(1, operator.add, nbytes=8)
        ctx.update(lambda s, t=total: s.__setitem__("sum", t))


def main() -> None:
    tracer = Tracer(categories=[
        "ft.wave_started", "ft.wave_completed", "ft.local_checkpoint",
        "ft.image_stored", "ft.logged", "ft.failure", "ft.failure_detected",
        "ft.restarted", "ft.replayed",
    ])
    sim = Simulator(seed=9, trace=tracer)
    size = 4
    net = ClusterNetwork(sim, n_nodes=size + 2)
    compute = net.nodes[:size]
    for node in net.nodes[size:]:
        node.service = True
    endpoints = [Endpoint(node, 0) for node in compute]
    server = CheckpointServer(sim, net, net.nodes[size], name="cs0")
    scheduler_node = net.nodes[size + 1]

    def protocol_factory(job, run):
        return VclProtocol(job, run.replica_map, period=0.8, stats=run.stats,
                           local_images=run.local_images, fork_latency=0.05,
                           scheduler_node=scheduler_node)

    run = FTRun(sim, net, endpoints, ring_app, ChVChannel, protocol_factory,
                [server], name="demo")
    run.start()
    # between waves 1 and 2: the restart rolls back to wave 1, whose
    # in-transit message was logged, so the log has something to replay
    run.schedule(Fault("task", 2, 1.5))
    completion = sim.run_until_complete(run.completed, limit=1e5)

    print("timeline:")
    for record in tracer.records:
        fields = " ".join(f"{k}={v}" for k, v in record.fields
                          if k not in ("protocol",))
        print(f"  t={record.time:8.3f}  {record.category:<22} {fields}")
    print()
    print(f"completed in {completion:.2f}s with {run.stats.failures} failure,"
          f" {run.stats.waves_completed} committed waves,"
          f" {run.stats.logged_messages} logged in-transit messages")
    for ctx in run.job.contexts:
        assert ctx.state["received"] == 40 and ctx.state["sum"] == size
    replayed = sum(record.category == "ft.replayed"
                   for record in tracer.records)
    print("every rank received all 40 ring messages exactly once; the")
    print(f"restart replayed {replayed} logged in-transit message(s).")


if __name__ == "__main__":
    main()
