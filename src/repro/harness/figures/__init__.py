"""Per-figure reproduction scripts.

Each module exposes ``run(profile) -> FigureResult``, states what it sweeps
as a ``PARAMS`` table (:func:`repro.harness.config.figure_params`) and its
grid as a :class:`~repro.harness.table.RunTable`; :func:`get_experiment`
resolves an experiment id lazily so importing one figure never pays for
the others.
"""

from importlib import import_module
from typing import Callable, List

EXPERIMENT_IDS = (
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "netpipe",
    "scale_limit",
    "ablations",
    "mttf",
    "replication",
    "protocol_race",
    "recovery",
)


def get_experiment(experiment_id: str) -> Callable:
    """Resolve an experiment id to its ``run(profile)`` callable.

    The returned callable wraps the figure's ``run``: it collects the
    per-experiment verdicts of the online invariant monitors (every
    :func:`repro.harness.runner.execute` call records them) into the
    figure's result and adds a blanket "monitors clean" shape check, so a
    protocol-invariant violation fails the figure like any paper claim.
    Keyword ``overrides`` replace entries of the figure's ``PARAMS`` (only
    figures that take them: ``recovery``'s ``policies``).
    """
    if experiment_id not in EXPERIMENT_IDS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; have {EXPERIMENT_IDS}"
        )
    module = import_module(f"repro.harness.figures.{experiment_id}")

    def run_with_monitors(profile, **overrides):
        from repro.harness.runner import monitor_ledger

        with monitor_ledger() as ledger:
            result = module.run(profile, **overrides)
        verdicts = ledger.verdicts
        result.monitors = verdicts
        result.metrics = ledger.metrics
        dirty = sorted(
            name for name, verdict in verdicts.items() if not verdict["ok"]
        )
        result.checks["online invariant monitors clean"] = not dirty
        if dirty:
            result.notes.append(
                f"invariant violations in: {', '.join(dirty)}"
            )
        return result

    return run_with_monitors


__all__ = ["EXPERIMENT_IDS", "get_experiment"]
