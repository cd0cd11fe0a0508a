"""Figure results: structure, ASCII rendering (a table, and a chart for
multi-point series), JSON persistence."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["Series", "FigureResult", "render", "save_json"]


@dataclass
class Series:
    """One line of a figure: label plus (x, y) points."""

    label: str
    xs: List[float]
    ys: List[float]
    meta: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {"label": self.label, "xs": self.xs, "ys": self.ys,
                "meta": self.meta}


@dataclass
class FigureResult:
    """Everything one reproduced table/figure produced."""

    title: str
    x_label: str
    y_label: str
    series: List[Series]
    #: named shape assertions: check name -> bool (the paper's qualitative
    #: claims, evaluated against this run's numbers)
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: experiment id and profile name: a figure's ``run`` leaves them blank,
    #: :func:`repro.harness.figures.get_experiment`'s wrapper stamps both
    figure_id: str = ""
    profile: str = ""
    #: per-experiment verdicts of the online invariant monitors
    #: (:mod:`repro.verify`), filled in by the harness wrapper
    monitors: Dict[str, Any] = field(default_factory=dict)
    #: per-run metrics snapshots (:mod:`repro.obs`), filled in by the
    #: harness wrapper when runs executed with metrics on; empty otherwise
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())

    def as_dict(self) -> Dict[str, Any]:
        return {
            "figure": self.figure_id,
            "title": self.title,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "profile": self.profile,
            "series": [s.as_dict() for s in self.series],
            "checks": self.checks,
            "notes": self.notes,
            "monitors": self.monitors,
            "metrics": self.metrics,
        }


def _format_value(value: float) -> str:
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 1000 else f"{value:.1f}"
    return str(value)


_MARKERS = "*o+x#@%&"


def _ascii_plot(series: Sequence[Series], x_label: str, y_label: str) -> str:
    """Scatter ``series`` (at least one point between them) on a 64 x 16
    character grid, one marker per series; a later series' marker wins a
    shared cell."""
    width, height = 64, 16
    points = [(x, y, index) for index, s in enumerate(series)
              for x, y in zip(s.xs, s.ys)]
    x_lo, x_hi = min(p[0] for p in points), max(p[0] for p in points)
    y_lo, y_hi = min(p[1] for p in points), max(p[1] for p in points)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for x, y, index in points:
        col = int(round((x - x_lo) / x_span * (width - 1)))
        row = height - 1 - int(round((y - y_lo) / y_span * (height - 1)))
        grid[row][col] = _MARKERS[index % len(_MARKERS)]

    top_label, bottom_label = f"{y_hi:.3g}", f"{y_lo:.3g}"
    margin = max(len(top_label), len(bottom_label)) + 1
    prefixes = [top_label.rjust(margin)] + [" " * margin] * (height - 2) \
        + [bottom_label.rjust(margin)]
    lines = [f"{prefix}|" + "".join(row) for prefix, row in zip(prefixes, grid)]
    lines.append(" " * margin + "+" + "-" * width)
    x_axis = f"{x_lo:.3g}".ljust(width - 8) + f"{x_hi:.3g}".rjust(8)
    lines.append(" " * (margin + 1) + x_axis)
    legend = "   ".join(f"{_MARKERS[i % len(_MARKERS)]} {s.label}"
                        for i, s in enumerate(series))
    lines.append(f"{y_label} vs {x_label}:   {legend}")
    return "\n".join(lines) + "\n"


def render(result: FigureResult) -> str:
    """ASCII rendering: one table per figure with a column per series."""
    lines: List[str] = []
    lines.append("=" * 72)
    lines.append(f"{result.figure_id}: {result.title}   [profile={result.profile}]")
    lines.append("=" * 72)
    xs: List[float] = []
    for series in result.series:
        for x in series.xs:
            if x not in xs:
                xs.append(x)
    xs.sort()
    header = [result.x_label] + [s.label for s in result.series]
    widths = [max(14, len(h) + 2) for h in header]
    lines.append("".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("-" * sum(widths))
    for x in xs:
        row = [_format_value(x)]
        for series in result.series:
            try:
                index = series.xs.index(x)
                row.append(_format_value(series.ys[index]))
            except ValueError:
                row.append("-")
        lines.append("".join(cell.ljust(w) for cell, w in zip(row, widths)))
    lines.append("-" * sum(widths))
    numeric = [s for s in result.series if len(s.xs) >= 2]
    if len(xs) >= 3 and numeric:
        lines.append("")
        lines.append(_ascii_plot(numeric, result.x_label, result.y_label))
    lines.append(f"y: {result.y_label}")
    for note in result.notes:
        lines.append(f"note: {note}")
    for check, passed in result.checks.items():
        status = "PASS" if passed else "FAIL"
        lines.append(f"check [{status}] {check}")
    lines.append("")
    return "\n".join(lines)


def save_json(result: FigureResult, directory: str = "results") -> str:
    """Persist a figure's data for EXPERIMENTS.md and regression diffs."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{result.figure_id}_{result.profile}.json")
    with open(path, "w") as handle:
        json.dump(result.as_dict(), handle, indent=2)
    return path
