"""Recovery-cost ablation — time-to-recover vs concurrent failures × policy.

The paper restarts the whole job after any failure (Sec. 4: the failed
processes are restarted from the last coordinated checkpoint wave and every
survivor rolls back with them).  ULFM-style survivor recovery replaces that
with a failure-set agreement round among the survivors followed by one of
three continuation strategies (docs/RECOVERY.md):

* ``restart`` — the paper's behavior, the baseline series;
* ``spare``   — failed ranks are promoted onto pre-allocated spare nodes;
  survivors keep their engines and only the replacements stream images;
* ``shrink``  — survivors renumber and the (malleable) application
  re-decomposes over the smaller communicator.

This figure injects ``k`` near-simultaneous node failures (close enough to
coalesce into a single detection/agreement/recovery cycle) into a stencil
run and plots the measured time-to-recover (``FTStats.recovery_seconds``)
against ``k`` for each policy.

Expected shape:

* restart tears the whole job down, so it pays the process manager's
  failure-cleanup lead (FTPM unpublishes every business card) before any
  image moves — high already at k=1 and roughly flat in k;
* spare and shrink skip that lead: survivors stay resident, so the cost
  is the agreement round plus the image restore;
* the agreement round itself — visible in the ``ft.recovery_phase``
  timers (detect/agree/promote/restore) — costs network latency, orders
  of magnitude below an image restore.
"""

from __future__ import annotations

from repro.apps import Stencil
from repro.ft import RECOVERY_POLICIES, Fault
from repro.harness.config import Profile, figure_params
from repro.harness.report import FigureResult, Series
from repro.harness.table import Row, RunTable

__all__ = ["run", "CLAIM", "PARAMS"]

#: (paper reference, the paper's qualitative claim), quoted by EXPERIMENTS.md
CLAIM = (
    "Secs. 2/5.4 (restart model, extension)",
    "The paper's recovery model re-deploys every rank after any "
    "failure, so recovery cost is the full job-launch path the "
    "deployment section measured at hundreds of processes.  "
    "ULFM-style survivor recovery changes that: promoting a warm "
    "spare or shrinking to the survivors skips the respawn entirely, "
    "only the replacement (or nobody) streams an image, and the "
    "cost stays flat as concurrent failures grow because one "
    "membership agreement round absorbs a whole failure burst.",
)

#: malleable stencil; ``kill_time`` is in paper seconds and scaled by the
#: figure so it always lands after a few committed waves
PARAMS = {
    "paper": dict(procs=8, policies=tuple(RECOVERY_POLICIES),
                  failures=(1, 2, 4), period=30.0, spares=4, kill_time=160.0,
                  servers=2),
    "smoke": dict(failures=(1, 2), spares=2),
}

#: spacing between the k near-simultaneous kills — inside the membership
#: tracker's suspicion window, so one agreement round covers all of them
#: (a correlated failure: a switch or power domain taking out k nodes)
_KILL_SPACING = 1e-4


def run(profile: Profile, **overrides) -> FigureResult:
    par = figure_params(PARAMS, profile, **overrides)
    p = par.procs
    policies = par.policies
    failures = par.failures
    kill_at = par.kill_time * profile.time_scale

    table = RunTable(
        bench=Stencil(klass="B", scale=profile.time_scale), n_procs=p,
        protocol="pcl", profile=profile, period=par.period,
        n_servers=par.servers, spares=par.spares, launcher="ftpm",
        name="recovery-{policy}-k{k}",
    ).add(
        policy=policies,
        k=[Row(k, faults=[Fault("node", rank, kill_at + index * _KILL_SPACING)
                          for index, rank in enumerate(range(1, 1 + k))])
           for k in failures],
    ).run()
    results = {policy: table.select(policy=policy) for policy in policies}
    recovery = {policy: [r.stats.recovery_seconds for r in runs]
                for policy, runs in results.items()}
    series = [Series(policy, [float(k) for k in failures], recovery[policy])
              for policy in policies]

    max_k = max(failures)
    checks = {
        "every run completed": all(r.completion > 0 for r in table.select()),
        "every failure burst coalesced into one recovery":
            all(r.stats.restarts == 1 for r in table.select()),
        "no policy degraded to a full restart":
            all(r.stats.policy_degradations == 0 for r in table.select()),
    }
    if "spare" in results:
        checks["spare promoted exactly the failed ranks"] = all(
            r.stats.spares_promoted == k
            for r, k in zip(results["spare"], failures))
    if "shrink" in results:
        checks["shrink re-decomposed over the survivors"] = all(
            len(r.meta["app_state"]) == p - k
            for r, k in zip(results["shrink"], failures))
    survivor_policies = [pol for pol in policies if pol != "restart"]
    if "restart" in results and survivor_policies:
        checks["survivor policies recover faster than a full restart"] = all(
            fast < slow for pol in survivor_policies
            for fast, slow in zip(recovery[pol], recovery["restart"]))
    notes = [
        f"x = concurrent node failures (burst spacing {_KILL_SPACING}s), "
        f"y = measured time-to-recover",
        f"stencil.B p={p}, period {par.period}s, "
        f"{par.spares} spares, kill at t={kill_at:.1f}s",
    ] + [
        f"{policy}: " + ", ".join(
            f"k={k}: {t:.3f}s" for k, t in zip(failures, recovery[policy]))
        for policy in policies
    ]
    return FigureResult(
        title=f"Survivor recovery: time-to-recover vs concurrent failures "
              f"(stencil.B, {p} procs, up to {max_k} failures)",
        x_label="concurrent node failures",
        y_label="time to recover [s]",
        series=series,
        checks=checks,
        notes=notes,
    )
