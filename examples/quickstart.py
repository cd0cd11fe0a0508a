#!/usr/bin/env python
"""Quickstart: run a NAS benchmark under blocking checkpointing, kill a
process mid-run, and watch the system roll back and finish.

This is the 60-second tour of the library:

1. build a simulator and a Gigabit-Ethernet cluster deployment,
2. run BT class A under the Pcl (blocking) protocol with a checkpoint
   wave every 2 simulated seconds,
3. kill rank 3's task at t=6s — its sockets close, the FTPM notices,
   every rank rolls back to the last committed wave and execution resumes,
4. print what happened.

Run:  python examples/quickstart.py
"""

from repro.apps import BT
from repro.ft import Fault
from repro.runtime import DeploymentSpec, build_run
from repro.sim import Simulator


def main() -> None:
    sim = Simulator(seed=42)

    # BT class A, shortened to 10% of its iterations so this demo is instant.
    bench = BT(klass="A", scale=0.1)
    n_procs = 16

    spec = DeploymentSpec(
        n_procs=n_procs,
        protocol="pcl",            # blocking coordinated checkpointing
        channel="ft_sock",         # MPICH2's TCP channel with ckpt hooks
        network="gige",
        n_servers=2,               # two checkpoint servers
        period=2.0,                # seconds between checkpoint waves
        image_bytes=bench.image_bytes(n_procs) * 0.1,
    )
    run = build_run(sim, spec, bench.make_app(n_procs), name="quickstart")
    run.start()
    run.schedule(Fault("task", 3, 6.0))

    completion = sim.run_until_complete(run.completed, limit=1e6)

    print(f"workload           : {bench.describe(n_procs)}")
    print(f"completion time    : {completion:.2f} simulated seconds")
    print(f"checkpoint waves   : {run.stats.waves_completed}")
    print(f"failures / restarts: {run.stats.failures} / {run.stats.restarts}")
    print(f"recovery time      : {run.stats.recovery_seconds:.2f}s")
    print(f"blocked time (sum) : {run.stats.blocked_seconds:.2f}s")
    print(f"images stored      : {run.stats.image_bytes_stored / 1e6:.1f} MB")
    for ctx in run.job.contexts:
        assert ctx.state["iteration"] == bench.iterations(), "rank lost work!"
    print(f"all {n_procs} ranks completed every iteration despite the failure")


if __name__ == "__main__":
    main()
