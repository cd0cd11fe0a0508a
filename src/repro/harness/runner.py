"""One measured run: deploy, execute, collect.

:func:`bare_run` is the only place outside :mod:`repro.runtime` that turns
a :class:`~repro.runtime.DeploymentSpec` into a running job: simulator
(through ``make_simulator``, so ``REPRO_KERNEL`` always applies),
``build_run``, start, run to completion.  :func:`execute` wraps it with
what a figure grid point adds — profile scaling of period and image size,
invariant monitors, metrics, the watchdog, failure injection — so every
figure measures the same way (figures reach it through a
:class:`~repro.harness.table.RunTable`); the few studies that hand-build a
spec (``mttf``, two ``ablations``, the 10,000-rank confirmations, the perf
ring workloads) call :func:`bare_run` directly.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.apps.base import NASBenchmark
from repro.ft.failure import Fault
from repro.ft.protocol import FTStats
from repro.ft.recovery import FTRun
from repro.harness.config import Profile, default_channel
from repro.obs import attach_metrics
from repro.runtime import DeploymentSpec, build_run
from repro.sim import Simulator, Tracer, Watchdog, make_simulator
from repro.verify import MonitorBus, monitors_for

__all__ = [
    "RunResult",
    "bare_run",
    "execute",
    "metrics_enabled",
    "MonitorLedger",
    "monitor_ledger",
    "record_run",
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
    no ledger is open, so verdicts cannot leak across unrelated runs; pool
    workers' verdicts are re-recorded into the parent's ledger
    (:func:`record_run`, see :mod:`repro.harness.parallel`).
    """

    def __init__(self) -> None:
        self.verdicts: Dict[str, Dict] = {}
        #: run name -> metrics snapshot, for runs executed with metrics on
        self.metrics: Dict[str, Dict] = {}


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


def record_run(meta: Dict) -> None:
    """Record one run's monitor verdict and metrics snapshot — whichever
    its ``RunResult.meta`` carries — into the active ledger (if any)."""
    if _ledger_stack:
        ledger = _ledger_stack[-1]
        if "monitors" in meta:
            ledger.verdicts[meta["name"]] = meta["monitors"]
        if "metrics" in meta:
            ledger.metrics[meta["name"]] = meta["metrics"]


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

    @property
    def mean_wave(self) -> float:
        """Mean duration of the completed checkpoint waves (0.0 if none)."""
        durations = self.stats.wave_durations()
        return sum(durations) / len(durations) if durations else 0.0

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


def bare_run(
    spec: DeploymentSpec,
    app: Callable,
    seed: int,
    name: str = "exp",
    time_limit: float = 1e8,
    instruments: Sequence[Callable[[Simulator], Any]] = (),
    inject: Optional[Callable[[FTRun], Any]] = None,
    malleable_app_factory: Optional[Callable[[int], Callable]] = None,
    **sim_options: Any,
) -> Tuple[float, FTRun]:
    """Deploy ``app`` as ``spec`` says, run it to completion and return
    ``(completion time, the finished FTRun)``.

    ``sim_options`` (``trace``, ``watchdog``) go to
    :func:`repro.sim.make_simulator`; each of ``instruments`` is called
    with the simulator before anything is built on it (monitors, metrics),
    ``inject(run)`` right after the job starts (kills, failure schedules,
    restart budget).  Nothing is scaled and nothing rides along.
    """
    sim = make_simulator(seed=seed, **sim_options)
    for attach in instruments:
        attach(sim)
    run = build_run(sim, spec, app, name=name,
                    malleable_app_factory=malleable_app_factory)
    run.start()
    if inject is not None:
        inject(run)
    return sim.run_until_complete(run.completed, limit=time_limit), run


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
    faults: Sequence[Fault] = (),
    ckpt_replication: int = 1,
    ckpt_gc_keep: int = 1,
    policy: str = "restart",
    spares: int = 0,
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

    ``faults`` injects failures (:class:`~repro.ft.failure.Fault` values,
    scheduled in order), with ``at`` in *simulated* seconds (failure
    injection targets a point on the run's timeline, e.g. inside a specific
    checkpoint wave, so it is deliberately not profile-scaled).

    ``ckpt_replication`` streams each image/log to that many servers with a
    quorum commit; ``ckpt_gc_keep`` retains that many committed waves per
    server.

    ``policy`` selects the recovery strategy after a failure: ``restart``
    (full-job rollback, the paper's behavior), ``spare`` (survivors keep
    their engines; failed ranks are promoted onto the ``spares``
    pre-allocated pool nodes) or ``shrink`` (survivors re-decompose — only
    meaningful for malleable benchmarks; others degrade to a restart with
    a ``ft.recovery_degraded`` record).  See docs/RECOVERY.md.

    Every run arms the engine progress watchdog (:class:`~repro.sim.Watchdog`
    at the budget of a job of ``n_procs`` ranks,
    :meth:`~repro.sim.Watchdog.for_ranks`): a livelock raises
    :class:`~repro.sim.LivelockError` out of this call instead of hanging
    the process.

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
    channel = channel or default_channel(protocol)
    if metrics is None:
        metrics = metrics_enabled()
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
        recovery_policy=policy,
        spares=spares,
    )
    bus = MonitorBus(monitors_for(spec), raise_on_violation=False) \
        if monitors else None
    instruments = ([attach_metrics] if metrics else []) \
        + ([bus.attach] if bus is not None else [])

    def inject(run: FTRun) -> None:
        for fault in faults:
            run.schedule(fault)

    # bare_run's make_simulator honours REPRO_KERNEL: the differential rig
    # runs whole figure grid points on the naive reference kernel this way.
    completion, run = bare_run(
        spec, bench.make_app(n_procs),
        seed=profile.seed if seed is None else seed,
        name=name, time_limit=time_limit,
        instruments=instruments, inject=inject,
        malleable_app_factory=bench.make_app if bench.malleable else None,
        trace=tracer, watchdog=Watchdog.for_ranks(n_procs))
    meta = {"name": name, "network": network, "n_servers": n_servers,
            "profile": profile.name, "bench": bench.describe(n_procs),
            "events": run.sim.events_processed}
    # Final per-rank application state, for result-correctness checks (the
    # chaos campaign's wrong-result verdict compares this to the benchmark's
    # expected iteration count and residual).
    meta["app_state"] = [dict(ctx.state) for ctx in run.job.contexts]
    if faults:
        meta["faults"] = [fault.to_dict() for fault in faults]
        # what the injectors actually did, as typed records (a node kill
        # expands into per-task kills; a kill landing after completion or
        # on an already-dead machine records nothing)
        meta["injected_kills"] = [k.as_dict() for k in run.injected]
    if bus is not None:
        bus.finish()
        bus.detach()
        meta["monitors"] = {"ok": bus.ok, "verdicts": bus.verdicts()}
    if run.sim.metrics is not None:
        meta["metrics"] = run.sim.metrics.snapshot()
    record_run(meta)
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
