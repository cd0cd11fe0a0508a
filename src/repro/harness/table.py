"""Run tables: a figure's grid of runs as data, its results by key.

A :class:`RunTable` states a figure's grid once: fixed
:func:`~repro.harness.runner.execute` keyword arguments plus blocks of
ordered named axes, whose product (first axis outermost) is the run order.
An axis value is a scalar, bound to the ``execute`` argument of the axis's
name, or a :class:`Row` — a label plus the arguments it binds — so a
checkpoint-free baseline, a per-size deployment or an implementation
(protocol + channel) is one more value on an axis, not a special case.
Later axes override earlier ones; ``name`` is a format string over the
axis labels (``"fig5-{protocol}-s{n_servers}"``), so every run keeps a
stable name — names key the monitor verdicts in ``results/*.json``.

Tables always run through :func:`~repro.harness.parallel.execute_grid`
(every figure honours ``--jobs``) and are read by key: ``table[p,
"pcl@10"]``, ``table.select(protocol="vcl")``.  :attr:`RunTable.tasks`
enumerates the planned runs without running them.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Dict, Hashable, List, Sequence, Tuple

from repro.harness.parallel import execute_grid
from repro.harness.runner import RunResult
from repro.tools import linear_fit

__all__ = ["Row", "RunTable", "waves_fit"]


class Row:
    """A labelled axis value binding several ``execute`` arguments."""

    def __init__(self, label: Hashable, **kwargs: Any) -> None:
        self.label = label
        self.kwargs = kwargs


class RunTable:
    """Ordered, keyed grid of ``execute`` calls (see the module docstring)."""

    def __init__(self, **fixed: Any) -> None:
        self._fixed = fixed
        #: key -> {axis: label} and key -> execute kwargs; insertion order
        #: is the run order
        self._labels: Dict[Tuple, Dict[str, Hashable]] = {}
        self._tasks: Dict[Tuple, Dict[str, Any]] = {}
        self._results: Dict[Tuple, RunResult] = {}

    def add(self, **axes: Sequence) -> "RunTable":
        """Append one block: the product of ``axes``, first axis outermost."""
        names = {task["name"] for task in self._tasks.values()}
        for values in product(*axes.values()):
            kwargs = dict(self._fixed)
            labels = {}
            for axis, value in zip(axes, values):
                row = value if isinstance(value, Row) \
                    else Row(value, **{axis: value})
                labels[axis] = row.label
                kwargs.update(row.kwargs)
            key = tuple(labels.values())
            kwargs["name"] = kwargs["name"].format(**labels)
            if key in self._tasks or kwargs["name"] in names:
                raise ValueError(f"duplicate run: key {key!r}, "
                                 f"name {kwargs['name']!r}")
            names.add(kwargs["name"])
            self._labels[key] = labels
            self._tasks[key] = kwargs
        return self

    @property
    def tasks(self) -> List[Dict[str, Any]]:
        """The planned ``execute`` keyword dicts, in run order."""
        return list(self._tasks.values())

    def run(self) -> "RunTable":
        self._results = dict(zip(self._tasks, execute_grid(self.tasks)))
        return self

    def __getitem__(self, key) -> RunResult:
        return self._results[key if isinstance(key, tuple) else (key,)]

    def select(self, **where: Hashable) -> List[RunResult]:
        """Results, in run order, of the runs whose axis labels match."""
        for axis in where:
            if not any(axis in labels for labels in self._labels.values()):
                raise KeyError(f"no axis named {axis!r} in this table")
        return [self._results[key] for key, labels in self._labels.items()
                if all(labels.get(axis) == label
                       for axis, label in where.items())]


def waves_fit(baseline: RunResult, runs: Sequence[RunResult]):
    """Completion time against completed waves: ``(xs, ys, fit)``.

    The checkpoint-free ``baseline`` is the point at 0 waves; points are
    sorted by wave count.  ``fit`` is the least-squares line the paper's
    "linear in the number of waves" claims are judged by (Figs. 7–9), or
    None when every run landed on the same wave count.
    """
    points = sorted([(0, baseline.completion)]
                    + [(r.waves, r.completion) for r in runs])
    xs = [float(waves) for waves, _time in points]
    ys = [time for _waves, time in points]
    return xs, ys, linear_fit(xs, ys) if len(set(xs)) >= 2 else None
