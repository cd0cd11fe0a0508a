"""Run scenarios and classify each outcome into a verdict.

The runner is a thin adapter: a :class:`~repro.chaos.spec.Scenario` becomes
one :func:`repro.harness.runner.execute` call with the engine
:class:`~repro.sim.Watchdog` armed and its faults scheduled, and whatever
comes back — completion, a wrong answer, a monitor violation, or one of the
engine's stall exceptions — is mapped onto the verdict taxonomy (see
:mod:`repro.chaos`).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps import BENCHMARKS
from repro.chaos.report import CampaignResult
from repro.chaos.spec import CampaignSpec, Scenario
from repro.ft import StorageUnrecoverableError
from repro.harness.config import SMOKE
from repro.harness.parallel import pool_imap
from repro.harness.runner import execute
from repro.sim import DeadlockError, LivelockError, TimeLimitError
from repro.verify import InvariantViolation

__all__ = [
    "OK_VERDICTS",
    "BAD_VERDICTS",
    "ScenarioResult",
    "run_scenario",
    "run_campaign",
]

#: verdicts that pass a campaign
OK_VERDICTS = frozenset({"completed", "recovered", "recovered-degraded"})
#: verdicts that fail a campaign (unless the scenario ``expect``s them)
BAD_VERDICTS = frozenset({"wrong-result", "deadlock", "livelock", "hang",
                          "crash", "storage-unrecoverable"})


@dataclass
class ScenarioResult:
    """One scenario's verdict plus the evidence behind it."""

    scenario: Scenario
    verdict: str
    #: human-readable justification (exception text, wrong-state diff, ...)
    detail: str = ""
    #: simulated completion time (None when the run never finished)
    completion: Optional[float] = None
    waves: int = 0
    restarts: int = 0
    #: online invariant monitors verdict (None when the run never finished
    #: or monitors were off)
    monitors_ok: Optional[bool] = None
    #: final per-rank application state (empty when unavailable)
    app_state: List[dict] = field(default_factory=list)
    #: engine heap pops of the run (0 when the run never finished); kept out
    #: of :meth:`to_dict` — wall-dependent-free but also not a verdict
    events: int = 0
    #: repro.obs metrics snapshot (empty unless the run collected metrics,
    #: i.e. REPRO_METRICS was set)
    metrics: Dict = field(default_factory=dict)
    #: what the failure injector actually did: typed records
    #: ``{"time", "kind", "target"}`` (a node kill expands into per-task
    #: kills; a kill landing after completion records nothing)
    injected_kills: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        if self.scenario.expect:
            return self.verdict in self.scenario.expect
        return self.verdict in OK_VERDICTS

    def to_dict(self) -> dict:
        doc = {
            "scenario": self.scenario.to_dict(),
            "label": self.scenario.label,
            "verdict": self.verdict,
            "ok": self.ok,
            "detail": self.detail,
            "completion": self.completion,
            "waves": self.waves,
            "restarts": self.restarts,
            "monitors_ok": self.monitors_ok,
        }
        if self.injected_kills:
            doc["injected_kills"] = self.injected_kills
        if self.metrics:
            doc["metrics"] = self.metrics
        return doc


def _expected_state(scenario: Scenario, bench) -> Dict[str, float]:
    """What every rank's final context state must hold for a correct run.

    The NAS skeletons advance ``iteration`` once per timestep and finish
    with a verification allreduce whose result (each rank contributing 1)
    is the job size — a rolled-back-but-unreplayed run shows up as a short
    iteration count, a corrupted reduction as a wrong norm.
    """
    return {"iteration": bench.iterations(), "norm": float(scenario.n_procs)}


def _check_result(scenario: Scenario, bench, result) -> Optional[str]:
    """Return a wrong-result explanation, or None when the run is correct."""
    expected = _expected_state(scenario, bench)
    app_state = result.meta.get("app_state", [])
    if scenario.policy == "shrink":
        # A shrink drops the failed ranks: fewer survivors finish, and the
        # verification allreduce sums over the *current* size.  (A shrink
        # that degraded to a full restart keeps all n_procs ranks — the
        # expectation below covers that too.)
        if not 1 <= len(app_state) <= scenario.n_procs:
            return (f"shrink left {len(app_state)} rank(s), expected "
                    f"1..{scenario.n_procs}")
        expected["norm"] = float(len(app_state))
    for rank, state in enumerate(app_state):
        for key, want in expected.items():
            got = state.get(key)
            if got != want:
                return (f"rank {rank} finished with {key}={got!r}, "
                        f"expected {want!r}")
    if result.monitors_ok is False:
        monitors = result.meta.get("monitors", {}).get("verdicts", {})
        broken = sorted(name for name, v in monitors.items() if not v["ok"])
        return f"invariant monitor violation: {', '.join(broken)}"
    return None


def run_scenario(
    scenario: Scenario,
    time_limit: Optional[float] = None,
    time_limit_factor: float = 8.0,
    monitors: bool = True,
) -> ScenarioResult:
    """Execute one scenario and judge it.

    ``time_limit`` caps the *simulated* time; by default it is
    ``time_limit_factor`` times the benchmark's failure-free expected time,
    so a run that stops making progress is classified as ``hang`` instead
    of spinning the heap forever (zero-time spins are caught earlier and
    more precisely by the armed watchdog as ``livelock``).
    """
    bench = BENCHMARKS[scenario.bench](klass=scenario.klass,
                                       scale=scenario.scale)
    profile = replace(SMOKE, time_scale=scenario.scale, seed=scenario.seed)
    if time_limit is None:
        time_limit = time_limit_factor * bench.expected_time(scenario.n_procs)
    try:
        result = execute(
            bench,
            scenario.n_procs,
            scenario.protocol,
            profile,
            network=scenario.network,
            channel=scenario.channel,
            n_servers=scenario.n_servers,
            period=scenario.period,
            procs_per_node=scenario.procs_per_node,
            seed=scenario.seed,
            time_limit=time_limit,
            name=scenario.label,
            monitors=monitors,
            faults=scenario.faults,
            ckpt_replication=scenario.replication,
            ckpt_gc_keep=scenario.gc_keep,
            policy=scenario.policy,
            spares=scenario.spares,
        )
    except LivelockError as error:
        return ScenarioResult(scenario, "livelock",
                              detail=str(error).splitlines()[0])
    except DeadlockError as error:
        return ScenarioResult(scenario, "deadlock", detail=str(error))
    except TimeLimitError as error:
        return ScenarioResult(scenario, "hang", detail=str(error))
    except InvariantViolation as error:
        # Only reachable when a raising MonitorBus is attached externally
        # (e.g. the test suite's autouse fixture); harness buses collect.
        return ScenarioResult(scenario, "wrong-result",
                              detail=str(error).splitlines()[0])
    except StorageUnrecoverableError as error:
        # Restart exhausted every replica of every committed wave: a clean,
        # classified outcome (the K=1 scenarios *expect* it), never a hang.
        return ScenarioResult(scenario, "storage-unrecoverable",
                              detail=str(error))
    except Exception as error:  # noqa: BLE001 - any crash is a verdict
        return ScenarioResult(scenario, "crash",
                              detail=f"{type(error).__name__}: {error}")
    wrong = _check_result(scenario, bench, result)
    if wrong is not None:
        verdict, detail = "wrong-result", wrong
    elif result.stats.restarts > 0:
        detail = (f"{result.stats.failures} failure(s), "
                  f"{result.stats.restarts} restart(s)")
        degraded = (result.stats.fetch_retries
                    or result.stats.wave_fallbacks
                    or result.stats.policy_degradations)
        if degraded:
            # correct result, but the restart had to route around storage
            # damage (replica retries and/or a fallback to an older wave)
            # or the recovery policy fell back to a full restart
            verdict = "recovered-degraded"
            detail += (f", {result.stats.fetch_retries} fetch retrie(s), "
                       f"{result.stats.wave_fallbacks} wave fallback(s)")
            if result.stats.policy_degradations:
                detail += (f", {result.stats.policy_degradations} policy "
                           f"degradation(s)")
        else:
            verdict = "recovered"
    else:
        verdict, detail = "completed", ""
    return ScenarioResult(
        scenario, verdict, detail=detail,
        completion=result.completion,
        waves=result.waves,
        restarts=result.stats.restarts,
        monitors_ok=result.monitors_ok,
        app_state=result.meta.get("app_state", []),
        events=int(result.meta.get("events", 0)),
        metrics=result.meta.get("metrics", {}),
        injected_kills=result.meta.get("injected_kills", []),
    )


def _scenario_task(args: Tuple[Scenario, float, bool]) -> ScenarioResult:
    """Top-level pool worker: one scenario (picklable by name).  The
    scenario before it, cyclic garbage, is freed before this one grows."""
    gc.collect()
    scenario, time_limit_factor, monitors = args
    return run_scenario(scenario, monitors=monitors,
                        time_limit_factor=time_limit_factor)


def run_campaign(
    spec: CampaignSpec,
    monitors: bool = True,
    progress: Optional[Callable[[ScenarioResult], None]] = None,
    jobs: Optional[int] = None,
) -> CampaignResult:
    """Run every scenario of ``spec`` in order; never raises per-scenario
    (failures become verdicts).  ``progress`` is called after each run.

    ``jobs`` (default: the ``REPRO_JOBS`` environment variable, else 1)
    runs scenarios on a process pool.  Every scenario is an independent,
    self-seeded simulation, so the campaign result is identical to the
    sequential one — results are merged back in spec order, and
    ``progress`` fires in spec order from the parent process.
    """
    tasks = [(scenario, spec.time_limit_factor, monitors)
             for scenario in spec]
    results = []
    for result in pool_imap(_scenario_task, tasks, jobs=jobs):
        results.append(result)
        if progress is not None:
            progress(result)
    return CampaignResult(name=spec.name, results=results)
