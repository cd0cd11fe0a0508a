"""Declarative fault-injection campaigns over the checkpointing harness.

The chaos subsystem turns the one-off failure experiments of
:mod:`repro.ft` into a swept, self-judging campaign: a
:class:`~repro.chaos.spec.CampaignSpec` enumerates scenarios (protocol ×
channel × processes-per-node × faults × seed), the runner executes each
through :func:`repro.harness.runner.execute` with the engine
:class:`~repro.sim.Watchdog` armed and all :mod:`repro.verify` monitors
riding along, and every run is classified into a verdict:

``completed``
    Ran to the end with the correct result and no failure injected (or the
    kill landed after completion).
``recovered``
    A failure was injected, at least one rollback/restart happened, and the
    final result is still correct.
``recovered-degraded``
    Recovered with the correct result, but the restart had to route around
    storage damage (replica fetch retries and/or a fallback to an older
    committed wave) or a survivor recovery policy had to fall back to the
    paper's full restart (spare-pool exhaustion, non-malleable app).
``wrong-result``
    The run finished but the application state is wrong or an invariant
    monitor flagged the run.
``deadlock`` / ``livelock`` / ``hang``
    The run never finished: the event heap drained, the watchdog caught a
    zero-time cascade, or the simulated-time budget ran out.
``storage-unrecoverable``
    The restart cleanly exhausted every replica of every committed wave
    (e.g. the sole server of a K=1 run died) — a classified outcome, not a
    hang.  Fails the campaign unless the scenario ``expect``s it.
``crash``
    The simulation itself raised.

``completed``, ``recovered`` and ``recovered-degraded`` are acceptable;
anything else fails the campaign (exit status 1 from the CLI) unless the
scenario's ``expect`` field names it — the K=1 storage scenarios *expect*
``storage-unrecoverable``.

Run the standard smoke campaign::

    python -m repro.chaos --smoke --out results/chaos

or just the storage-resilience, message-drain (Dcl) or cascading-failure
recovery slices::

    python -m repro.chaos --storage --out results/chaos
    python -m repro.chaos --dcl --out results/chaos
    python -m repro.chaos --recovery --policy spare --out results/chaos

See ``docs/CHAOS.md`` for the full knob reference.
"""

from repro.chaos.report import CampaignResult, write_report
from repro.chaos.runner import (
    BAD_VERDICTS,
    OK_VERDICTS,
    ScenarioResult,
    run_campaign,
    run_scenario,
)
from repro.chaos.spec import (
    CAMPAIGNS,
    RECOVERY_POLICIES,
    CampaignSpec,
    Scenario,
    dcl_campaign,
    recovery_campaign,
    smoke_campaign,
    storage_campaign,
)
from repro.ft.failure import FAULTS, Fault

__all__ = [
    "BAD_VERDICTS",
    "CAMPAIGNS",
    "CampaignResult",
    "CampaignSpec",
    "FAULTS",
    "Fault",
    "OK_VERDICTS",
    "RECOVERY_POLICIES",
    "Scenario",
    "ScenarioResult",
    "dcl_campaign",
    "recovery_campaign",
    "run_campaign",
    "run_scenario",
    "smoke_campaign",
    "storage_campaign",
    "write_report",
]
