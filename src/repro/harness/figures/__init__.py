"""Per-figure reproduction scripts.

Each module exposes ``run(profile) -> FigureResult``, quotes the paper in
``CLAIM = (reference, claim)``, states what it sweeps as a ``PARAMS`` table
(:func:`repro.harness.config.figure_params`) and its grid as a
:class:`~repro.harness.table.RunTable`; :func:`get_experiment` resolves an
experiment id lazily so importing one figure never pays for the others.
"""

from importlib import import_module
from types import ModuleType
from typing import Callable

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


def figure_module(experiment_id: str) -> ModuleType:
    """The module of experiment ``experiment_id`` (``run``, ``CLAIM``)."""
    if experiment_id not in EXPERIMENT_IDS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; have {EXPERIMENT_IDS}"
        )
    return import_module(f"repro.harness.figures.{experiment_id}")


def get_experiment(experiment_id: str) -> Callable:
    """Resolve an experiment id to its ``run(profile)`` callable.

    The returned callable wraps the figure's ``run``: it stamps the result
    with the experiment id and the profile name, collects the
    per-experiment verdicts of the online invariant monitors (every
    :func:`repro.harness.runner.execute` call records them) into it and
    adds a blanket "monitors clean" shape check, so a protocol-invariant
    violation fails the figure like any paper claim.
    Keyword ``overrides`` replace entries of the figure's ``PARAMS`` (only
    figures that take them: ``recovery``'s ``policies``).
    """
    module = figure_module(experiment_id)

    def run_with_monitors(profile, **overrides):
        from repro.harness.runner import monitor_ledger

        with monitor_ledger() as ledger:
            result = module.run(profile, **overrides)
        result.figure_id, result.profile = experiment_id, profile.name
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


__all__ = ["EXPERIMENT_IDS", "figure_module", "get_experiment"]
