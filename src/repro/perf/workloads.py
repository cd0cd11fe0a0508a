"""The deterministic workload suite behind ``python -m repro.perf``.

Each workload is a self-contained simulation whose work is dominated by one
layer of the stack the figures depend on:

* ``flow_churn`` — the event kernel + fluid-flow scheduler under heavy
  neighbour churn: a pool of cap-bottlenecked background flows sharing a
  backbone link with a stream of short uncapped transfers (the Fig. 5
  regime: checkpoint image transfers crossing a contended NIC).  Every
  start/finish re-rates the whole neighbourhood.
* ``netpipe`` — the ping-pong calibration sweep over the Grid'5000 model
  (message layer + WAN fabrics).
* ``bt_wave`` — one harness-style run: BT under Pcl with checkpoint waves,
  monitors on, exactly like a figure grid point.
* ``dcl_wave`` — the same grid point under the message-drain (Dcl)
  protocol: counter reports and quiescence detection replace the channel
  flush, so this isolates the drain machinery.
* ``vcl_wave`` — the same grid point under Vcl, the one workload on the
  ch_v daemon channel: every message and every marker takes a daemon hop,
  and waves log in-transit messages instead of freezing.
* ``scale_337`` — the paper's scale boundary: an FTPM launch of 337
  processes (the count the Vcl dispatcher refuses, see Sec. 5.4) running a
  token ring: process spawn plus the connection fan-out.
* ``scale_10k`` — the same launch at the FTPM ceiling: 10,000 ranks
  (``FTPM_MAX_PROCESSES``).  It keeps the per-rank constant factor of
  launch, connect and message dispatch honest where a 337-rank run would
  hide an O(n) term; ``bench/`` times it (8 ring rounds) as its
  ``scale_10k`` workload.
* ``chaos_kill`` — one smoke-grid chaos scenario (node kill inside wave 1,
  rollback, restart) through :func:`repro.chaos.run_scenario`.

A workload reports ``events`` — a *workload-defined* useful-event count
(flow completions, messages, engine pops) — and the engine's ``pops``.
Both are functions of the parameters and the kernel's deterministic total
event order, never of the host, which is what lets the gate compare them
exactly.  Wall time is not measured here: ``bench/`` + ``BENCHMARK.json``
own it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict

__all__ = ["WorkloadRun", "WORKLOADS", "SUITES", "suite_params"]


@dataclass
class WorkloadRun:
    """What one workload execution observed."""

    #: workload-defined useful events (fixed for fixed parameters)
    events: int
    #: engine heap pops, when a simulator was observable
    pops: int = 0
    #: what the simulation itself concluded (completion time, waves, the
    #: chaos verdict): not part of the baseline, but the kernel differential
    #: rig fingerprints it across kernels together with the two counts
    extra: Dict[str, Any] = field(default_factory=dict)


# --------------------------------------------------------------------- kernel
def flow_churn(churn: int = 400, persistent: int = 64,
               cancel_every: int = 7) -> WorkloadRun:
    """Kernel/flow-scheduler microbench: neighbour churn on a shared link.

    ``persistent`` long-lived flows cross a backbone at a hard cap far below
    their fair share — their rate never changes, but every churn event still
    re-rates them.  ``churn`` short uncapped flows start staggered on the
    same backbone; every ``cancel_every``-th one is cancelled mid-flight.
    """
    from repro.net.flows import FlowScheduler
    from repro.net.link import Link
    from repro.sim import make_simulator

    sim = make_simulator(seed=7)
    scheduler = FlowScheduler(sim)
    backbone = Link("backbone", 1e9)

    completions = 0

    def on_done(event) -> None:
        nonlocal completions
        if event.ok:
            completions += 1

    # Cap-bottlenecked background pool: rate pinned well below any share the
    # backbone can offer while churn flows come and go.
    cap = backbone.capacity / (4.0 * persistent)
    for i in range(persistent):
        private = Link(f"p{i}", 1e9)
        flow = scheduler.start([private, backbone], nbytes=4e7, cap=cap)
        flow.done.callbacks.append(on_done)

    # Staggered churn: short transfers whose rate is the backbone share.
    dt = 0.01
    churn_bytes = backbone.capacity / (persistent + 2) * (dt * 0.6)

    def start_churn(index: int) -> None:
        flow = scheduler.start([backbone], nbytes=churn_bytes)
        flow.done.callbacks.append(on_done)
        if cancel_every and index % cancel_every == cancel_every - 1:
            sim.call_at(dt * 0.3, scheduler.cancel, flow)

    for i in range(churn):
        sim.call_at(i * dt, start_churn, i)

    sim.run()
    assert not scheduler.active, "flow_churn must drain every flow"
    return WorkloadRun(events=completions, pops=sim.events_processed)


# -------------------------------------------------------------------- netpipe
def netpipe(repeats: int = 3) -> WorkloadRun:
    """The NetPIPE calibration sweep, intra- and inter-cluster."""
    from repro.net import grid5000
    from repro.net.topology import Endpoint
    from repro.sim import make_simulator
    from repro.tools import run_netpipe

    sim = make_simulator(seed=3)
    grid = grid5000(sim)
    orsay = grid.clusters["orsay"].nodes
    rennes = grid.clusters["rennes"].nodes
    run_netpipe(sim, grid, Endpoint(orsay[0], 0), Endpoint(orsay[1], 0),
                repeats=repeats)
    run_netpipe(sim, grid, Endpoint(orsay[2], 0), Endpoint(rennes[0], 0),
                repeats=repeats)
    return WorkloadRun(events=sim.events_processed,
                       pops=sim.events_processed)


# ----------------------------------------------------------- protocol waves
def _wave(protocol: str, name: str, n_procs: int = 16,
          scale: float = 0.05) -> WorkloadRun:
    """One figure-style grid point: BT under ``protocol`` with checkpoint
    waves, monitors on (``bt_wave`` = Pcl; ``dcl_wave`` = the same point
    under Dcl's drain-to-quiescence waves; ``vcl_wave`` under Vcl on ch_v)."""
    from repro.apps import BT
    from repro.harness.config import get_profile
    from repro.harness.runner import execute

    profile = get_profile("smoke", seed=0)
    bench = BT(klass="B", scale=scale)
    result = execute(bench, n_procs, protocol, profile, period=30.0,
                     procs_per_node=2, name=name)
    pops = int(result.meta.get("events", 0))
    return WorkloadRun(events=pops, pops=pops,
                       extra={"completion": result.completion,
                              "waves": result.waves})


bt_wave = partial(_wave, "pcl", "perf-bt-wave")
dcl_wave = partial(_wave, "dcl", "perf-dcl-wave")
vcl_wave = partial(_wave, "vcl", "perf-vcl-wave")


# ---------------------------------------------------------------- scale point
def _ring(seed: int, name: str, n_procs: int, rounds: int) -> WorkloadRun:
    """FTPM launch of ``n_procs`` processes running a token ring.

    ``scale_337`` sits at the select() wall: the Vcl dispatcher refuses
    this count (1024-descriptor select() set, 3 sockets/process); FTPM
    admits it.  The cost is process spawn plus the connection fan-out — the
    launch-layer hot path of the grid figures.

    ``scale_10k`` is the identical machinery (spawn, connection fan-out,
    ring messaging) at the FTPM ceiling, the scale the 10k-rank figures
    need.  One round of the ring is ~20x the event count of the full
    scale_337 run, so this is the suite's heavyweight: it exists to keep
    per-rank constants linear.
    """
    from repro.apps.synthetic import token_ring
    from repro.harness.runner import bare_run
    from repro.runtime import DeploymentSpec

    spec = DeploymentSpec(n_procs=n_procs, protocol=None, launcher="ftpm",
                          procs_per_node=2)
    _completion, run = bare_run(spec, token_ring(rounds=rounds), seed,
                                name=name)
    return WorkloadRun(events=run.sim.events_processed,
                       pops=run.sim.events_processed)


scale_337 = partial(_ring, 11, "perf-scale", n_procs=337, rounds=2)
scale_10k = partial(_ring, 13, "perf-scale10k", n_procs=10_000, rounds=1)


# ------------------------------------------------------------------ chaos run
def chaos_kill() -> WorkloadRun:
    """One smoke-grid chaos scenario: node kill inside wave 1, recovery."""
    from repro.chaos import Fault, Scenario, run_scenario

    scenario = Scenario(protocol="pcl", channel="ft_sock", procs_per_node=2,
                        faults=(Fault("node", 1, 1.7),), seed=0)
    result = run_scenario(scenario)
    return WorkloadRun(events=result.events, pops=result.events,
                       extra={"verdict": result.verdict,
                              "completion": result.completion})


#: name -> workload callable (keyword-parameterised by the suite)
WORKLOADS: Dict[str, Callable[..., WorkloadRun]] = {
    "flow_churn": flow_churn,
    "netpipe": netpipe,
    "bt_wave": bt_wave,
    "dcl_wave": dcl_wave,
    "vcl_wave": vcl_wave,
    "scale_337": scale_337,
    "scale_10k": scale_10k,
    "chaos_kill": chaos_kill,
}

#: per-suite parameters: ``full`` is what ``BENCH_engine.json`` records,
#: ``smoke`` the tier-1-sized points the kernel differential rig runs
SUITES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "smoke": {
        "flow_churn": {"churn": 200, "persistent": 48},
        "netpipe": {"repeats": 2},
        "bt_wave": {"n_procs": 16, "scale": 0.05},
        "dcl_wave": {"n_procs": 16, "scale": 0.05},
        "vcl_wave": {"n_procs": 16, "scale": 0.05},
        "scale_337": {"n_procs": 337, "rounds": 1},
        "scale_10k": {"n_procs": 10_000, "rounds": 1},
        "chaos_kill": {},
    },
    "full": {
        "flow_churn": {"churn": 400, "persistent": 64},
        "netpipe": {"repeats": 3},
        "bt_wave": {"n_procs": 36, "scale": 0.05},
        "dcl_wave": {"n_procs": 36, "scale": 0.05},
        "vcl_wave": {"n_procs": 36, "scale": 0.05},
        "scale_337": {"n_procs": 337, "rounds": 2},
        "scale_10k": {"n_procs": 10_000, "rounds": 1},
        "chaos_kill": {},
    },
}


def suite_params(suite: str) -> Dict[str, Dict[str, Any]]:
    """Parameter map for ``suite`` (raises ``KeyError`` for unknown names)."""
    if suite not in SUITES:
        raise KeyError(f"unknown perf suite {suite!r}; have {sorted(SUITES)}")
    return SUITES[suite]
