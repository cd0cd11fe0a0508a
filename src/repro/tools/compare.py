"""Compare two saved result sets (regression / profile diffing).

``python -m repro.tools.compare results_a results_b`` prints, per experiment
present in both directories, the relative change of every shared series
point and whether any shape check flipped — the tool to run after touching
a model constant to see exactly which figures moved.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["ExperimentDiff", "compare_dirs", "load_results", "main"]


@dataclass
class ExperimentDiff:
    """The differences of one experiment between two result sets."""

    figure_id: str
    #: (series label, x, old y, new y, relative change)
    point_changes: List[Tuple[str, float, float, float, float]] = field(
        default_factory=list)
    #: check name -> (old, new), only where they differ
    check_flips: Dict[str, Tuple[bool, bool]] = field(default_factory=dict)

    @property
    def max_relative_change(self) -> float:
        if not self.point_changes:
            return 0.0
        return max(abs(change) for *_rest, change in self.point_changes)

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
    for entry in new.get("series", []):
        base = old_series.get(entry["label"])
        if base is None:
            continue
        for x, y in zip(entry["xs"], entry["ys"]):
            try:
                index = base["xs"].index(x)
            except ValueError:
                continue
            previous = base["ys"][index]
            if not isinstance(previous, (int, float)) or previous == 0:
                continue
            change = (y - previous) / abs(previous)
            if abs(change) > 1e-12:
                diff.point_changes.append(
                    (entry["label"], x, previous, y, change))
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
    notable = [c for c in diff.point_changes if abs(c[4]) >= threshold]
    if not notable and not diff.check_flips:
        lines.append("  unchanged")
    for label, x, old, new, change in notable:
        lines.append(
            f"  {label} @ x={x:g}: {old:.3f} -> {new:.3f} ({change:+.1%})")
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
