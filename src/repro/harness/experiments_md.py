"""Generate EXPERIMENTS.md from saved harness results.

Usage::

    python -m repro.harness.experiments_md [--results results] [--out EXPERIMENTS.md]

For every experiment it pairs the paper's claim (the figure module's
``CLAIM``) with the measured series and the PASS/FAIL state of each shape
check, so the document is always regenerated from data rather than
hand-edited.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
from typing import Dict, List

from repro.harness.figures import EXPERIMENT_IDS, figure_module

__all__ = ["build_markdown", "load_results", "main"]


def load_results(directory: str) -> Dict[str, dict]:
    """Load one result per figure id from a directory of harness JSONs:
    the biggest profile's (paper over quick over smoke)."""
    rank = {"smoke": 0, "quick": 1, "paper": 2}
    documents = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as handle:
            documents.append(json.load(handle))
    documents.sort(key=lambda data: rank.get(data.get("profile"), 0))
    return {data["figure"]: data for data in documents}


def _series_table(series: List[dict]) -> List[str]:
    lines = []
    xs: List[float] = []
    for entry in series:
        for x in entry["xs"]:
            if x not in xs:
                xs.append(x)
    xs.sort()
    header = "| x | " + " | ".join(entry["label"] for entry in series) + " |"
    rule = "|---" * (len(series) + 1) + "|"
    lines.append(header)
    lines.append(rule)
    for x in xs:
        row = [f"{x:g}"]
        for entry in series:
            try:
                index = entry["xs"].index(x)
                value = entry["ys"][index]
                row.append(f"{value:.3f}" if isinstance(value, float) else str(value))
            except ValueError:
                row.append("-")
        lines.append("| " + " | ".join(row) + " |")
    return lines


def build_markdown(results_dir: str) -> str:
    by_id = load_results(results_dir)

    lines: List[str] = []
    lines.append("# EXPERIMENTS — paper vs. measured")
    lines.append("")
    lines.append("Regenerated with `python -m repro.harness.experiments_md` "
                 "from the JSON files the harness writes under `results/`.")
    lines.append("")
    lines.append("Absolute numbers are *simulated seconds* under the profile "
                 "noted per experiment; the `quick` profile scales iteration "
                 "counts, checkpoint periods and image sizes by one factor "
                 "(0.15), preserving every ratio that shapes a figure. "
                 "The reproduction's contract is the paper's qualitative "
                 "claims, each encoded as an explicit check below.")
    lines.append("")
    lines.append("## Known quantitative deviations")
    lines.append("")
    lines.append("The *shapes* (orderings, linearity, crossovers, scaling "
                 "trends) reproduce; two magnitudes undershoot the paper:")
    lines.append("")
    lines.append("1. **Vcl's latency handicap on CG (Fig. 7)** measures "
                 "+6-8% over Pcl/Nemesis rather than the larger gap the "
                 "paper's crossover implies (~15-25%).  Our daemon model "
                 "charges Unix-socket hops, copies and select() scans; the "
                 "real MPICH-V stack also suffered TCP pathologies "
                 "(Nagle/delayed-ACK interactions) we do not model.  The "
                 "Vcl-overtakes-Pcl crossover still appears, at roughly "
                 "twice the paper's wave frequency.")
    lines.append("2. **Pcl's degradation at the 10s period (Fig. 6)** is "
                 "visible but milder than the paper's. The blocking "
                 "freeze in our model lasts markers + fork; production "
                 "implementations stalled longer (request-queue draining "
                 "and progress-engine coupling beyond our chunk model).")
    lines.append("")

    total_checks = passed_checks = 0
    for experiment_id in EXPERIMENT_IDS:
        reference, claim = figure_module(experiment_id).CLAIM
        lines.append(f"## {experiment_id} — {reference}")
        lines.append("")
        lines.append(f"**Paper:** {claim}")
        lines.append("")
        data = by_id.get(experiment_id)
        if data is None:
            lines.append("*(no saved results — run "
                         f"`python -m repro.harness {experiment_id}`)*")
            lines.append("")
            continue
        lines.append(f"**Measured** (profile `{data['profile']}`): "
                     f"{data['title']}")
        lines.append("")
        lines.extend(_series_table(data["series"]))
        lines.append("")
        for note in data.get("notes", []):
            lines.append(f"- {note}")
        lines.append("")
        lines.append("| shape check | status |")
        lines.append("|---|---|")
        for name, ok in data.get("checks", {}).items():
            total_checks += 1
            passed_checks += bool(ok)
            lines.append(f"| {name} | {'PASS' if ok else 'FAIL'} |")
        lines.append("")
    lines.insert(4, f"**{passed_checks}/{total_checks} shape checks pass.**")
    lines.insert(5, "")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--results", default="results")
    parser.add_argument("--out", default="EXPERIMENTS.md")
    args = parser.parse_args(argv)
    markdown = build_markdown(args.results)
    with open(args.out, "w") as handle:
        handle.write(markdown)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
