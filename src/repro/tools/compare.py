"""Compare two saved result sets (regression / profile diffing).

``python -m repro.tools.compare results_a results_b`` prints, per experiment
present in both directories, the relative change of every shared series
point (the absolute one where the old value is 0 or not a number), the
series and points only one side has, and whether any shape check flipped —
the tool to run after touching a model constant to see exactly which
figures moved.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["ExperimentDiff", "compare_dirs", "load_results", "main"]


@dataclass
class ExperimentDiff:
    """The differences of one experiment between two result sets."""

    figure_id: str
    #: (series label, x, old y, new y, relative change); the change is None
    #: where no ratio rates it (the old y is 0 or not a number)
    point_changes: List[Tuple[str, float, Any, Any, Optional[float]]] = field(
        default_factory=list)
    #: (series label, x or None for the whole series, "old" or "new"): what
    #: only that side has
    one_sided: List[Tuple[str, Optional[float], str]] = field(
        default_factory=list)
    #: check name -> (old, new), only where they differ
    check_flips: Dict[str, Tuple[bool, bool]] = field(default_factory=dict)

    @property
    def regressed(self) -> bool:
        return any(old and not new for old, new in self.check_flips.values())


def load_results(directory: str) -> Dict[str, dict]:
    """Load one result per figure id from a directory of harness JSONs:
    the biggest profile's (paper over quick over smoke)."""
    by_id: Dict[str, dict] = {}
    rank = {"smoke": 0, "quick": 1, "paper": 2}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as handle:
            data = json.load(handle)
        current = by_id.get(data["figure"])
        if current is None or rank.get(data.get("profile"), 0) >= rank.get(
                current.get("profile"), 0):
            by_id[data["figure"]] = data
    return by_id


def _diff_one(old: dict, new: dict) -> ExperimentDiff:
    diff = ExperimentDiff(figure_id=old["figure"])
    old_series = {s["label"]: s for s in old.get("series", [])}
    new_labels = {s["label"] for s in new.get("series", [])}
    diff.one_sided += [(label, None, "old") for label in old_series
                       if label not in new_labels]
    for entry in new.get("series", []):
        label = entry["label"]
        base = old_series.get(label)
        if base is None:
            diff.one_sided.append((label, None, "new"))
            continue
        old_points = dict(zip(base["xs"], base["ys"]))
        new_points = dict(zip(entry["xs"], entry["ys"]))
        diff.one_sided += [(label, x, "old") for x in old_points
                           if x not in new_points]
        for x, y in new_points.items():
            if x not in old_points:
                diff.one_sided.append((label, x, "new"))
                continue
            previous = old_points[x]
            if y == previous:
                continue
            rated = (isinstance(previous, (int, float)) and previous != 0
                     and isinstance(y, (int, float)))
            change = (y - previous) / abs(previous) if rated else None
            if change is None or abs(change) > 1e-12:
                diff.point_changes.append((label, x, previous, y, change))
    old_checks = old.get("checks", {})
    for name, new_state in new.get("checks", {}).items():
        if name in old_checks and old_checks[name] != new_state:
            diff.check_flips[name] = (old_checks[name], new_state)
    return diff


def compare_dirs(dir_a: str, dir_b: str) -> List[ExperimentDiff]:
    """Diff every experiment present in both directories."""
    results_a = load_results(dir_a)
    results_b = load_results(dir_b)
    return [
        _diff_one(results_a[figure_id], results_b[figure_id])
        for figure_id in sorted(set(results_a) & set(results_b))
    ]


def render_diff(diff: ExperimentDiff, threshold: float = 0.01) -> str:
    lines = [f"== {diff.figure_id} =="]
    notable = [c for c in diff.point_changes
               if c[4] is None or abs(c[4]) >= threshold]
    if not notable and not diff.check_flips and not diff.one_sided:
        lines.append("  unchanged")
    for label, x, old, new, change in notable:
        if change is None:  # no ratio rates it: say what it was and is
            lines.append(f"  {label} @ x={x:g}: {old} -> {new}")
        else:
            lines.append(f"  {label} @ x={x:g}: {old:.3f} -> {new:.3f} "
                         f"({change:+.1%})")
    for label, x, side in diff.one_sided:
        where = label if x is None else f"{label} @ x={x:g}"
        lines.append(f"  {where}: only in {side}")
    for name, (old_state, new_state) in diff.check_flips.items():
        arrow = "PASS->FAIL" if old_state else "FAIL->PASS"
        lines.append(f"  check {arrow}: {name}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    parser.add_argument("--threshold", type=float, default=0.01,
                        help="minimum relative change to report")
    args = parser.parse_args(argv)
    diffs = compare_dirs(args.dir_a, args.dir_b)
    if not diffs:
        print("no experiments in common")
        return 1
    regressions = 0
    for diff in diffs:
        print(render_diff(diff, args.threshold))
        regressions += diff.regressed
    if regressions:
        print(f"{regressions} experiment(s) regressed (checks flipped to FAIL)")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
