"""One measured run: deploy, execute, collect.

The figure scripts are thin loops over :func:`execute`; everything about
deploying a benchmark under a protocol at a profile's scale lives here so
every figure measures the same way.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.apps.base import NASBenchmark
from repro.ft.protocol import FTStats
from repro.harness.config import Profile
from repro.obs import attach_metrics
from repro.runtime import DeploymentSpec, build_run
from repro.sim import Simulator, Tracer, Watchdog, make_simulator
from repro.verify import MonitorBus, monitors_for

__all__ = [
    "RunResult",
    "execute",
    "default_channel",
    "metrics_enabled",
    "MonitorLedger",
    "monitor_ledger",
    "record_monitor_verdict",
    "record_run_metrics",
]

#: environment switch for metrics collection (``--metrics`` sets it); any
#: value other than empty/0/false/off enables the registry for every run
METRICS_ENV = "REPRO_METRICS"


def metrics_enabled() -> bool:
    """Whether ``REPRO_METRICS`` asks for metrics on every run."""
    return os.environ.get(METRICS_ENV, "").strip().lower() not in (
        "", "0", "false", "off")


class MonitorLedger:
    """Scoped collector of per-run monitor verdicts, keyed by run ``name``.

    :func:`execute` records each monitored run's verdict into the innermost
    active ledger (opened with :func:`monitor_ledger`) — and nowhere when
    no ledger is open.  This replaces a module-global accumulator that
    leaked verdicts across unrelated runs and could not work under
    process-pool execution (workers re-record into the parent's ledger via
    :func:`record_monitor_verdict`; see :mod:`repro.harness.parallel`).
    """

    def __init__(self) -> None:
        self.verdicts: Dict[str, Dict] = {}
        #: run name -> metrics snapshot, for runs executed with metrics on
        self.metrics: Dict[str, Dict] = {}

    def record(self, name: str, verdict: Dict) -> None:
        self.verdicts[name] = verdict

    def record_metrics(self, name: str, snapshot: Dict) -> None:
        self.metrics[name] = snapshot


#: innermost-active-last stack of open ledgers (scoped, not leaked: each
#: ``monitor_ledger()`` block removes its ledger on exit)
_ledger_stack: List[MonitorLedger] = []


@contextmanager
def monitor_ledger() -> Iterator[MonitorLedger]:
    """Collect the monitor verdicts of every :func:`execute` in the block."""
    ledger = MonitorLedger()
    _ledger_stack.append(ledger)
    try:
        yield ledger
    finally:
        _ledger_stack.remove(ledger)


def record_monitor_verdict(name: str, verdict: Dict) -> None:
    """Record one run's monitor verdict into the active ledger (if any)."""
    if _ledger_stack:
        _ledger_stack[-1].record(name, verdict)


def record_run_metrics(name: str, snapshot: Dict) -> None:
    """Record one run's metrics snapshot into the active ledger (if any)."""
    if _ledger_stack:
        _ledger_stack[-1].record_metrics(name, snapshot)


def default_channel(protocol: Optional[str], network: str) -> str:
    """The paper's channel for each implementation:

    * Pcl lives in MPICH2: ft-sock on TCP networks, Nemesis available on
      Myrinet (callers pick explicitly for the Fig. 7 comparison);
    * Dcl reuses the MPICH2 devices (same send-gate machinery as Pcl), so
      it defaults to ft-sock too;
    * Vcl lives in MPICH-1.2.7: always the ch_v daemon device;
    * no-checkpoint baselines use the same channel as the implementation
      they baseline (callers pass it explicitly), defaulting to ft-sock.
    """
    if protocol == "vcl":
        return "ch_v"
    return "ft_sock"


@dataclass
class RunResult:
    """Everything a figure needs from one run."""

    completion: float
    waves: int
    stats: FTStats
    protocol: Optional[str]
    channel: str
    n_procs: int
    period: Optional[float]
    meta: Dict = field(default_factory=dict)

    @property
    def monitors_ok(self) -> Optional[bool]:
        """Verdict of the online invariant monitors (None if not monitored)."""
        info = self.meta.get("monitors")
        return None if info is None else bool(info["ok"])

    def row(self) -> Dict:
        return {
            "protocol": self.protocol or "none",
            "channel": self.channel,
            "p": self.n_procs,
            "period": self.period,
            "completion": round(self.completion, 3),
            "waves": self.waves,
            "blocked": round(self.stats.blocked_seconds, 3),
            "logged_mb": round(self.stats.logged_bytes / 1e6, 3),
        }


def execute(
    bench: NASBenchmark,
    n_procs: int,
    protocol: Optional[str],
    profile: Profile,
    network: str = "gige",
    channel: Optional[str] = None,
    n_servers: int = 1,
    period: Optional[float] = None,
    procs_per_node: Optional[int] = None,
    n_compute_nodes: Optional[int] = None,
    launcher: str = "instant",
    seed: Optional[int] = None,
    time_limit: float = 1e8,
    name: str = "exp",
    monitors: bool = True,
    kills: Sequence[Tuple[str, int, float]] = (),
    ckpt_replication: int = 1,
    ckpt_gc_keep: int = 1,
    fetch_retries: int = 3,
    fetch_backoff: float = 0.05,
    fetch_jitter: float = 0.25,
    storage_faults: Sequence[Tuple[str, int, int, float]] = (),
    policy: str = "restart",
    spares: int = 0,
    watchdog: Union[bool, Watchdog] = True,
    metrics: Optional[bool] = None,
    tracer: Optional[Tracer] = None,
) -> RunResult:
    """Deploy and run one configuration to completion.

    ``period`` is in *paper* seconds; it is scaled by the profile here, as
    is the checkpoint image size (see :mod:`repro.harness.config`).

    With ``monitors`` on (the default), the invariant monitors of
    :mod:`repro.verify` that can fire on this deployment ride along
    (:func:`repro.verify.monitors_for`: the engine, FIFO and fd-budget
    monitors always, a protocol's own monitors only under that protocol,
    the membership/spare monitors only under a survivor recovery policy)
    and their verdicts land in ``RunResult.meta["monitors"]`` — violations
    are collected rather than raised so a broken run still yields a
    diagnosable result row.

    ``kills`` injects failures: ``("task" | "node", rank, at)`` triples,
    with ``at`` in *simulated* seconds (failure injection targets a point
    on the run's timeline, e.g. inside a specific checkpoint wave, so it is
    deliberately not profile-scaled).  Requires a fault-tolerance protocol.

    ``ckpt_replication`` streams each image/log to that many servers with a
    quorum commit; ``ckpt_gc_keep`` retains that many committed waves per
    server; ``fetch_retries``/``fetch_backoff``/``fetch_jitter`` shape the
    restart-time replica retry policy.  ``storage_faults`` injects
    storage-tier failures: ``("server_kill" | "image_corrupt", server,
    rank, at)`` quadruples (``rank`` is ignored by ``server_kill``), with
    ``at`` in simulated seconds like ``kills``.

    ``policy`` selects the recovery strategy after a failure: ``restart``
    (full-job rollback, the paper's behavior), ``spare`` (survivors keep
    their engines; failed ranks are promoted onto the ``spares``
    pre-allocated pool nodes) or ``shrink`` (survivors re-decompose — only
    meaningful for malleable benchmarks; others degrade to a restart with
    a ``ft.recovery_degraded`` record).  See docs/RECOVERY.md.

    ``watchdog`` arms the engine progress watchdog — pass False to run
    bare, or a configured :class:`~repro.sim.Watchdog` to tune thresholds.
    A livelock raises :class:`~repro.sim.LivelockError` out of this call
    instead of hanging the process.

    ``metrics`` attaches a :class:`~repro.obs.MetricsRegistry`
    (:func:`repro.obs.attach_metrics`); the run's snapshot lands in
    ``RunResult.meta["metrics"]``.  The default (None) consults the
    ``REPRO_METRICS`` environment variable; metrics are strictly
    observational, so figures are identical either way.  ``tracer``
    installs a caller-owned :class:`~repro.sim.Tracer` (e.g. a storing one
    for ``python -m repro.obs record``) instead of the default disabled
    tracer.
    """
    bench.validate_procs(n_procs)
    channel = channel or default_channel(protocol, network)
    if watchdog is True:
        watchdog = Watchdog()
    elif watchdog is False:
        watchdog = None
    # make_simulator honours REPRO_KERNEL: the differential rig runs whole
    # figure grid points on the naive reference kernel through this line.
    sim = make_simulator(seed=profile.seed if seed is None else seed,
                         trace=tracer, watchdog=watchdog)
    if metrics is None:
        metrics = metrics_enabled()
    registry = attach_metrics(sim) if metrics else None
    spec = DeploymentSpec(
        n_procs=n_procs,
        protocol=protocol,
        channel=channel,
        network=network,
        n_servers=n_servers,
        period=profile.scaled_period(period) if period else 1.0,
        image_bytes=bench.image_bytes(n_procs) * profile.time_scale,
        procs_per_node=procs_per_node,
        n_compute_nodes=n_compute_nodes,
        launcher=launcher,
        ckpt_replication=ckpt_replication,
        ckpt_gc_keep=ckpt_gc_keep,
        fetch_retries=fetch_retries,
        fetch_backoff=fetch_backoff,
        fetch_jitter=fetch_jitter,
        recovery_policy=policy,
        spares=spares,
    )
    bus = None
    if monitors:
        bus = MonitorBus(monitors_for(spec), raise_on_violation=False)
        bus.attach(sim)
    malleable_factory = (
        bench.make_app
        if policy == "shrink" and getattr(bench, "malleable", False)
        else None
    )
    run = build_run(sim, spec, bench.make_app(n_procs), name=name,
                    malleable_app_factory=malleable_factory)
    run.start()
    for kind, rank, at in kills:
        if kind == "task":
            run.schedule_task_kill(rank, at)
        elif kind == "node":
            run.schedule_node_kill(rank, at)
        else:
            raise ValueError(f"unknown kill kind {kind!r} (task or node)")
    for kind, server, rank, at in storage_faults:
        if kind == "server_kill":
            run.schedule_server_kill(server, at)
        elif kind == "image_corrupt":
            run.schedule_image_corrupt(server, rank, at)
        else:
            raise ValueError(f"unknown storage fault {kind!r} "
                             f"(server_kill or image_corrupt)")
    completion = sim.run_until_complete(run.completed, limit=time_limit)
    meta = {"name": name, "network": network, "n_servers": n_servers,
            "profile": profile.name, "bench": bench.describe(n_procs),
            "events": sim.events_processed}
    # Final per-rank application state, for result-correctness checks (the
    # chaos campaign's wrong-result verdict compares this to the benchmark's
    # expected iteration count and residual).
    meta["app_state"] = [dict(ctx.state) for ctx in run.job.contexts]
    if kills:
        meta["kills"] = [list(k) for k in kills]
    if storage_faults:
        meta["storage_faults"] = [list(f) for f in storage_faults]
    if kills or storage_faults:
        # what the injector actually did, as typed records (a node kill
        # expands into per-task kills; a kill landing after completion or
        # on an already-dead machine records nothing)
        meta["injected_kills"] = [k.as_dict() for k in run.injector.kills]
    if bus is not None:
        bus.finish()
        bus.detach()
        meta["monitors"] = {"ok": bus.ok, "verdicts": bus.verdicts()}
        record_monitor_verdict(name, meta["monitors"])
    if registry is not None:
        meta["metrics"] = registry.snapshot()
        record_run_metrics(name, meta["metrics"])
    return RunResult(
        completion=completion,
        waves=run.stats.waves_completed,
        stats=run.stats,
        protocol=protocol,
        channel=channel,
        n_procs=n_procs,
        period=period,
        meta=meta,
    )
