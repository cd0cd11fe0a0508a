"""The correctness gate and the work counts, read from public outputs only.

Everything here takes the documents a workload *writes* — the figure JSON of
``repro.harness``, the campaign reports of ``repro.chaos``, the event count
of a ``WorkloadRun`` — never simulator objects, so it keeps working across
refactors of what produces them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import spec

__all__ = ["operations", "work_counts"]


def _figure_path(workload: spec.Workload, out_dir: Path) -> Path:
    return out_dir / f"{workload.target}_smoke.json"


def _chaos_rows(out_dir: Path) -> List[dict]:
    rows: List[dict] = []
    for campaign in spec.CHAOS_CAMPAIGNS:
        # the CLI names its report after the campaign; take what it wrote
        (report,) = (out_dir / campaign).glob("*.json")
        with open(report) as handle:
            rows.extend(json.load(handle)["results"])
    return rows


def operations(workload: spec.Workload, out_dir: Path, exit_code: int,
               sim_seed: int, golden_dir: Path = spec.GOLDEN_DIR,
               expected_events: int = spec.SCALE_10K_EVENTS
               ) -> Tuple[int, List[str]]:
    """Operations one repetition attempted, and a line for each that failed.

    * figure: every shape check, every monitored run's verdict and — at the
      goldens' simulator seed, metrics off — one byte-compare of the document
      against ``golden_dir/<fig>_smoke.json``;
    * chaos: one per scenario (its report row says ``ok``: the verdict is
      acceptable or was expected);
    * perf: one — the run completed with exactly ``expected_events`` events.

    A non-zero exit code that no operation explains is one more failure.
    Raises ``OSError`` / ``ValueError`` / ``KeyError`` when the outputs are
    missing or malformed; the caller then fails the repetition wholesale.
    """
    failures: List[str] = []
    if workload.kind == "figure":
        text = _figure_path(workload, out_dir).read_text()
        doc = json.loads(text)
        attempted = len(doc["checks"]) + len(doc["monitors"])
        failures += [f"shape check failed: {name}"
                     for name, passed in doc["checks"].items() if not passed]
        failures += [f"monitors flagged run {name}"
                     for name, row in doc["monitors"].items() if not row["ok"]]
        if sim_seed == spec.GOLDEN_SIM_SEED and not doc["metrics"]:
            attempted += 1
            golden = golden_dir / f"{workload.target}_smoke.json"
            if text != golden.read_text():
                failures.append(f"document differs from golden {golden.name}")
    elif workload.kind == "chaos":
        rows = _chaos_rows(out_dir)
        attempted = len(rows)
        failures += [f"scenario {row['label']}: {row['verdict']}"
                     for row in rows if not row["ok"]]
    else:
        with open(out_dir / "run.json") as handle:
            events = json.load(handle)["events"]
        attempted = 1
        if events != expected_events:
            failures.append(f"{workload.target} processed {events} events, "
                            f"expected {expected_events}")
    if exit_code != 0 and not failures:
        failures.append(f"exit code {exit_code}")
    return attempted, failures


# ------------------------------------------------------------- work counts
def _total(snapshots: List[dict], family: str, name: str,
           field: str = "value", **labels) -> float:
    return sum(entry[field]
               for snapshot in snapshots
               for entry in snapshot[family].values()
               if entry["name"] == name
               and all(entry["labels"].get(k) == v for k, v in labels.items()))


def work_counts(workload: spec.Workload, out_dir: Path
                ) -> Dict[str, Optional[float]]:
    """``spec.WORK_COUNTS`` from a metrics-on repetition's outputs.

    None where the workload's public output does not carry the number
    (``mttf`` builds raw simulators and embeds no snapshots; chaos reports
    have no per-monitor rows; ``scale_10k`` reports its event count only).
    ``sim.us_per_event`` needs an untraced wall time and is filled in by
    the caller.
    """
    counts: Dict[str, Optional[float]] = dict.fromkeys(spec.WORK_COUNTS)
    if workload.kind == "perf":
        with open(out_dir / "run.json") as handle:
            counts["sim.events"] = json.load(handle)["events"]
        return counts

    # the ``repro.obs/1`` snapshots, one per simulated run
    if workload.kind == "figure":
        with open(_figure_path(workload, out_dir)) as handle:
            doc = json.load(handle)
        snapshots = list(doc["metrics"].values())
        verdicts = [verdict for row in doc["monitors"].values()
                    for verdict in row["verdicts"].values()]
        counts["harness.shape_checks"] = len(doc["checks"])
        if snapshots:
            counts["harness.runs"] = len(snapshots)
            counts["harness.sim_completion_s"] = sum(
                snapshot["time"] for snapshot in snapshots)
        if verdicts:
            counts["verify.monitors_attached"] = len(verdicts)
            counts["verify.checked"] = sum(v["checked"] for v in verdicts)
            counts["verify.violations"] = sum(len(v["violations"])
                                              for v in verdicts)
    else:
        rows = _chaos_rows(out_dir)
        snapshots = [row["metrics"] for row in rows if "metrics" in row]
        counts["chaos.scenarios"] = len(rows)
        counts["chaos.degraded"] = sum(row["verdict"] == "recovered-degraded"
                                       for row in rows)
    if not snapshots:
        return counts

    # the registry stores every count as a float; they are whole numbers
    def counter(name): return int(_total(snapshots, "counters", name))
    def gauge(name): return int(_total(snapshots, "gauges", name))
    counts.update({
        "sim.events": gauge("engine.events_processed"),
        "sim.timer_tombstones": gauge("engine.timer_tombstones"),
        "sim.heap_compactions": gauge("engine.heap_compactions"),
        "net.flow_sends": counter("net.flow_sends"),
        "net.inline_sends": counter("net.inline_sends"),
        "net.bytes_sent": counter("net.bytes_sent"),
        "mpi.messages_sent": counter("channel.messages_sent"),
        "mpi.bytes_sent": counter("channel.bytes_sent"),
        "ft.waves_completed": counter("ft.waves_completed"),
        "ft.waves_aborted": counter("ft.waves_aborted"),
        "ft.image_bytes_stored": counter("ft.image_bytes_stored"),
        "ft.restarts": counter("ft.restarts"),
        "ft.failures_detected": counter("ft.failures_detected"),
        "ft.recovery_sim_s": _total(snapshots, "histograms",
                                    "ft.recovery_seconds", "sum"),
    })
    for phase in spec.WAVE_PHASES:
        counts[f"ft.wave_phase_sim_s.{phase}"] = _total(
            snapshots, "histograms", "ft.wave_phase_seconds", "sum",
            phase=phase)
    return counts
