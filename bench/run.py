#!/usr/bin/env python3
"""The repository benchmark: what a user waits for, and where it goes.

    python3 bench/run.py                        # five workloads, 5 repetitions each
    python3 bench/run.py --trace --json out.json
    python3 bench/run.py --workload fig7_cg_latency --seed 3 --seconds 12 --trace 0
    python3 bench/run.py --selfcheck
    python3 bench/run.py --compare parent.json change.json

Closed loop, one client: every repetition is one fresh child interpreter
(``child.py``), run strictly one at a time; workloads are interleaved round
robin so drift on a shared host spreads evenly.  End-to-end numbers come
from untraced repetitions; ``--trace`` adds one profiled repetition per
workload for the per-layer ledger.  All times are host time unless a name
says ``sim``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import pstats
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import layers  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402

#: the environment knobs that would change what a child measures
SCRUBBED_ENV = ("REPRO_JOBS", "REPRO_METRICS", "REPRO_KERNEL")
#: repetition outputs; inside the checkout, ignored by git, emptied on exit
WORK_ROOT = BENCH / ".work"
#: ``setup``-mode children per workload; the first warms the page cache and
#: the bytecode cache and is dropped
SETUP_CHILDREN = 6
#: fewest repetitions when the count is set by ``--seconds``
MIN_REPEATS = 2
DEFAULT_REPEATS = 5
#: a profiled child runs the workload twice, once at about 3x cost
TRACED_COST = 5
#: boundary spans kept per workload in ``--json`` output, by inclusive time
SPANS_KEPT = 40
#: per-layer metrics that are host time or derived from it; every other one
#: is a count that must repeat exactly
HOST_TIME_SUFFIXES = (".self_s", ".share", ".us_per_event", "trace_overhead_x")


def is_exact(metric: str) -> bool:
    return not metric.endswith(HOST_TIME_SUFFIXES)


def moved_counts(one: dict, two: dict) -> List[str]:
    """Exact per-layer counts that both ledgers carry and that differ."""
    return [key for key in one
            if is_exact(key) and key in two and one[key] != two[key]]


# ------------------------------------------------------------------ children
def spawn(workload: spec.Workload, mode: str, seed: int, sim_seed: int,
          out_dir: Path) -> Optional[dict]:
    """Run one child to completion; its ``child.json``, or None (with the
    reason on stderr) when it crashed or outlived ten times its nominal
    time."""
    out_dir.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(spec.PACKAGE_ROOT.parent)] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    # the benchmark's seed: goldens are byte-identical under any hash seed,
    # so this varies the input without varying the work (see spec)
    env["PYTHONHASHSEED"] = str(seed % 2 ** 32)
    limit = 10 * workload.nominal_wall_s * (TRACED_COST if mode == "traced" else 1)
    command = [sys.executable, str(BENCH / "child.py"),
               "--workload", workload.name, "--mode", mode,
               "--sim-seed", str(sim_seed), "--out", str(out_dir),
               "--spawned-at", repr(time.monotonic())]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        print(f"{workload.name}: {mode} child killed after {limit:.0f}s",
              file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"{workload.name}: {mode} child exited {done.returncode}\n"
              + done.stderr[-2000:], file=sys.stderr)
        return None
    with open(out_dir / "child.json") as handle:
        return json.load(handle)


class Tally:
    """What the repetitions of one workload have shown so far."""

    def __init__(self, workload: spec.Workload) -> None:
        self.workload = workload
        self.samples: Dict[str, List[float]] = {
            name: [] for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: operations the last gated repetition attempted: what a lost one owed
        self._ops_per_rep = 1
        self.per_layer: Dict[str, Optional[float]] = {}
        self.spans: List[dict] = []

    def gate(self, out_dir: Path, exit_code: int, sim_seed: int) -> None:
        try:
            attempted, failures = gate.operations(self.workload, out_dir,
                                                  exit_code, sim_seed)
        except (OSError, ValueError, KeyError) as error:
            self.lost(f"outputs unreadable: {error!r}")
            return
        self._ops_per_rep = attempted
        self.attempted += attempted
        self.failed += len(failures)
        self.failures += failures

    def lost(self, reason: str) -> None:
        """A child that crashed or hung fails every operation it owed."""
        self.attempted += self._ops_per_rep
        self.failed += self._ops_per_rep
        self.failures.append(f"{self.workload.name}: {reason}")


def timed_rep(tally: Tally, seed: int, sim_seed: int, work: Path) -> None:
    child = spawn(tally.workload, "timed", seed, sim_seed, work)
    if child is None:
        tally.lost("timed repetition crashed or timed out")
        return
    for name in tally.samples:
        tally.samples[name].append(child[name])
    tally.gate(work / "run", child["exit_code"], sim_seed)


def setup_reps(tally: Tally, seed: int, sim_seed: int, work: Path) -> None:
    for index in range(SETUP_CHILDREN):
        child = spawn(tally.workload, "setup", seed, sim_seed, work / str(index))
        if child is None:
            tally.lost("set-up crashed or timed out")
        elif index:
            tally.samples["setup_s"].append(child["setup_s"])


def traced_rep(tally: Tally, seed: int, sim_seed: int, work: Path) -> None:
    workload = tally.workload
    child = spawn(workload, "traced", seed, sim_seed, work)
    if child is None:
        tally.lost("traced repetition crashed or timed out")
        return
    tally.gate(work / "warm", child["warm_exit_code"], sim_seed)
    tally.gate(work / "run", child["exit_code"], sim_seed)
    table = layers.attribute(pstats.Stats(str(work / "profile.pstats")).stats,
                             str(spec.PACKAGE_ROOT), spec.LAYERS)
    metrics: Dict[str, Optional[float]] = {}
    for layer in spec.LAYERS:
        for kind in ("self_s", "share", "calls", "calls_in"):
            metrics[f"{layer}.{kind}"] = table[kind][layer]
    try:
        metrics.update(gate.work_counts(workload, work / "warm"))
    except (OSError, ValueError, KeyError) as error:
        tally.lost(f"work counts unreadable: {error!r}")
    untraced = tally.samples["wall_s"]
    if untraced:
        wall = stats.summarise(untraced)["median"]
        metrics["trace_overhead_x"] = child["traced_wall_s"] / wall
        if metrics.get("sim.events"):
            metrics["sim.us_per_event"] = 1e6 * wall / metrics["sim.events"]
    tally.per_layer = {name: metrics.get(name)
                       for name in spec.layer_metric_names()}
    tally.spans = table["spans"][:SPANS_KEPT]


def repetitions(workload: spec.Workload, repeats: Optional[int],
                seconds: Optional[float]) -> int:
    """Timed repetitions of one workload: ``repeats``, or as many as its
    nominal wall time fits into ``seconds`` (at least ``MIN_REPEATS``).
    Counting from the nominal time, not the clock, keeps n — and with it
    what the median means — the same on a slow day."""
    if repeats is not None:
        return repeats
    return max(MIN_REPEATS, math.ceil(seconds / workload.nominal_wall_s))


def measure(names: Sequence[str], *, seed: int, sim_seed: int,
            repeats: Optional[int], seconds: Optional[float], trace: bool,
            setup_children: bool = True) -> Dict[str, Tally]:
    """Run the workloads: set-up samples, then rounds of one timed repetition
    of each workload that still owes one, then one traced repetition each."""
    tallies = {name: Tally(spec.WORKLOADS[name]) for name in names}
    owed = {name: repetitions(tally.workload, repeats, seconds)
            for name, tally in tallies.items()}
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        if setup_children:
            for name, tally in tallies.items():
                setup_reps(tally, seed, sim_seed, work / name / "setup")
        for round_ in range(max(owed.values())):
            for name, tally in tallies.items():
                if round_ >= owed[name]:
                    continue
                rep_dir = work / name / f"rep{round_}"
                timed_rep(tally, seed, sim_seed, rep_dir)
                shutil.rmtree(rep_dir, ignore_errors=True)
                print(f"  {name} {round_ + 1}/{owed[name]}", file=sys.stderr)
        if trace:
            for name, tally in tallies.items():
                traced_rep(tally, seed, sim_seed, work / name / "traced")
                print(f"  {name} traced", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run is using it
            pass
    return tallies


# -------------------------------------------------------------------- output
def host_info() -> dict:
    sha = None
    if (spec.ROOT / ".git").exists():  # never look above the checkout
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=spec.ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_sha": sha}


def document(tallies: Dict[str, Tally], manifest: dict, **settings) -> dict:
    """The result file: every sample, so ``--compare`` can pair them."""
    whys = {w["name"]: w["why"] for w in manifest["workloads"]}
    workloads = {}
    for name, tally in tallies.items():
        end_to_end = {}
        for metric in manifest["end_to_end"]:
            values = tally.samples[metric["name"]]
            if values:
                end_to_end[metric["name"]] = {
                    "unit": metric["unit"], **stats.summarise(values),
                    "spread": stats.spread(values), "samples": values}
        workloads[name] = {
            "why": whys[name], "end_to_end": end_to_end,
            "attempted": tally.attempted, "failed": tally.failed,
            "failed_share": tally.failed / max(tally.attempted, 1),
            "failures": tally.failures,
            "per_layer": tally.per_layer, "spans": tally.spans,
        }
    return {"schema": "repro.bench/1", "host": host_info(),
            "settings": settings, "workloads": workloads}


def print_report(doc: dict, manifest: dict) -> None:
    units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    for name, entry in doc["workloads"].items():
        print(f"\n== {name} ==  {entry['why']}")
        for metric, row in entry["end_to_end"].items():
            print(f"  {metric:<12} {row['median']:>10.4f} {row['unit']:<3} "
                  f"(min {row['min']:.4f}, max {row['max']:.4f}, n={row['n']}, "
                  f"spread {row['spread']:.1%} / bound {bounds[metric]:.0%})")
        print(f"  {'failed_share':<12} {entry['failed_share']:>10.4f} ratio "
              f"({entry['failed']} of {entry['attempted']} operations)")
        for line in entry["failures"]:
            print(f"  FAILED {line}")
        ledger = entry["per_layer"]
        if ledger:
            print(f"  {'layer':<8} {'self_s':>8} {'share':>7} {'calls':>10} "
                  f"{'calls_in':>9}   (host time under the profiler, "
                  f"{ledger['trace_overhead_x'] or 0:.2f}x untraced)")
            for layer in spec.LAYERS:
                print(f"  {layer:<8} {ledger[f'{layer}.self_s']:>8.3f} "
                      f"{ledger[f'{layer}.share']:>7.1%} "
                      f"{ledger[f'{layer}.calls']:>10d} "
                      f"{ledger[f'{layer}.calls_in']:>9d}")
            for metric in spec.WORK_COUNTS:
                value = ledger[metric]
                shown = ("n/a" if value is None else f"{value:d}"
                         if isinstance(value, int) else f"{value:.6f}")
                print(f"  {metric:<28} {shown:>14} {units[metric]}")


def contract_line(tally: Tally, manifest: dict, traced: bool) -> str:
    """The one-line result the pipeline reads.  A count a workload's public
    output does not carry is reported as 0 (the report prints n/a)."""
    if traced:
        metrics = {m["name"]: {"value": tally.per_layer.get(m["name"]) or 0,
                               "unit": m["unit"]}
                   for m in manifest["per_layer"]}
    else:
        # a workload that lost every repetition has failed; 0 stands in
        metrics = {m["name"]: {"value": stats.summarise(
                                   tally.samples[m["name"]] or [0])["median"],
                               "unit": m["unit"]}
                   for m in manifest["end_to_end"]}
    return json.dumps({"correct": tally.failed == 0,
                       "attempted": max(tally.attempted, 1),
                       "failed": tally.failed, "metrics": metrics})


# ----------------------------------------------------------------- selfcheck
def selfcheck(manifest: dict, names: Sequence[str], **settings) -> int:
    """Two full sets back to back: medians must agree within each metric's
    bound, exact counts must be identical, nothing may fail."""
    first, second = (document(measure(names, trace=True, **settings), manifest)
                     for _ in range(2))
    problems = 0
    for name in names:
        a, b = first["workloads"][name], second["workloads"][name]
        print(f"\n== {name} ==")
        for metric in manifest["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            one, two = a["end_to_end"][key], b["end_to_end"][key]
            apart = abs(stats.worsening(one["median"], two["median"],
                                        metric["better"]))
            ok = apart <= bound
            problems += not ok
            print(f"  {key:<12} {one['median']:.4f} vs {two['median']:.4f} "
                  f"{metric['unit']}: medians {apart:.1%} apart, spreads "
                  f"{one['spread']:.1%} / {two['spread']:.1%}, bound "
                  f"{bound:.0%}  {'ok' if ok else 'OUTSIDE BOUND'}")
        moved = moved_counts(a["per_layer"], b["per_layer"])
        problems += len(moved)
        exact = sum(map(is_exact, a["per_layer"]))
        print(f"  exact counts: {exact - len(moved)} of {exact} identical"
              + "".join(f"\n    {key}: {a['per_layer'][key]} vs "
                        f"{b['per_layer'][key]}" for key in moved))
        failed = a["failed"] + b["failed"]
        problems += failed
        print(f"  failed operations: {failed} of "
              f"{a['attempted'] + b['attempted']}")
    print(f"\nselfcheck: {'PASS' if not problems else f'{problems} problem(s)'}")
    return 1 if problems else 0


# ------------------------------------------------------------------- compare
def compare(manifest: dict, parent_path: str, change_path: str) -> int:
    """Parent vs change, one row per workload and end-to-end metric."""
    with open(parent_path) as handle:
        parent = json.load(handle)["workloads"]
    with open(change_path) as handle:
        change = json.load(handle)["workloads"]
    regressed = 0
    print(f"{'workload':<16} {'metric':<12} {'parent med [q1,q3]':>28} "
          f"{'change med [q1,q3]':>28} {'wins':>7} {'worse by':>9}  verdict")
    for name in parent:
        if name not in change:
            continue
        a, b = parent[name], change[name]
        for metric in manifest["end_to_end"]:
            key = metric["name"]
            if key not in a["end_to_end"] or key not in b["end_to_end"]:
                continue
            row = stats.judge(a["end_to_end"][key]["samples"],
                              b["end_to_end"][key]["samples"],
                              metric["better"], metric["bound"])
            regressed += row["verdict"] == "regressed"
            p, c = row["parent"], row["change"]
            print(f"{name:<16} {key:<12} "
                  f"{p['median']:>10.4f} [{p['q1']:.4f},{p['q3']:.4f}] "
                  f"{c['median']:>10.4f} [{c['q1']:.4f},{c['q3']:.4f}] "
                  f"{row['wins']:>3}/{row['pairs']:<3} {row['worse_by']:>+9.1%}"
                  f"  {row['verdict']} (bound {metric['bound']:.0%}, "
                  f"n={p['n']}/{c['n']})")
        if b["failed"] > a["failed"]:
            regressed += 1
            print(f"{name:<16} failed operations {a['failed']} -> "
                  f"{b['failed']}: no gain counts")
        for key in moved_counts(a["per_layer"], b["per_layer"]):
            print(f"{name:<16} count {key}: {a['per_layer'][key]} -> "
                  f"{b['per_layer'][key]}")
    return 1 if regressed else 0


# ----------------------------------------------------------------------- CLI
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", "--only", choices=sorted(spec.WORKLOADS),
                        help="run one workload and end with the one-line "
                             "JSON result (default: all five, interleaved)")
    parser.add_argument("--seed", type=int, default=0,
                        help="benchmark seed: the children's PYTHONHASHSEED "
                             "(default 0)")
    parser.add_argument("--sim-seed", type=int, default=spec.GOLDEN_SIM_SEED,
                        help="simulator seed passed to the driven CLIs; "
                             "goldens are compared only at the default, "
                             "and host time at another seed is another "
                             "workload (use for a held-out check)")
    parser.add_argument("--repeats", type=int, default=None,
                        help=f"timed repetitions per workload (default "
                             f"{DEFAULT_REPEATS}; never claim from < 3)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="instead of --repeats: as many repetitions as "
                             "each workload's nominal wall time fits into "
                             f"this, at least {MIN_REPEATS}")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="add one profiled repetition per workload and "
                             "report the per-layer ledger")
    parser.add_argument("--json", metavar="OUT",
                        help="write every sample, the layer ledger and the "
                             "top boundary spans to OUT")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two traced sets back to back must agree")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="decision table over two --json files")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.seconds is not None:
        parser.error("--repeats and --seconds are two ways to say one thing")
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")

    manifest = spec.load_manifest()
    if args.compare:
        return compare(manifest, *args.compare)
    if not (spec.PACKAGE_ROOT / "__init__.py").is_file():
        print(f"bench: no simulator at {spec.PACKAGE_ROOT}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    repeats = args.repeats
    if repeats is None and args.seconds is None:
        repeats = DEFAULT_REPEATS
    settings = dict(seed=args.seed, sim_seed=args.sim_seed, repeats=repeats,
                    seconds=args.seconds)
    if args.selfcheck:
        return selfcheck(manifest, names, **settings)

    contract_trace = bool(args.workload and args.trace)
    if contract_trace and args.repeats is None:
        # the traced result carries no timing of its own: one untraced
        # repetition is the base for trace_overhead_x and us_per_event
        settings.update(repeats=1, seconds=None)
    tallies = measure(names, trace=bool(args.trace),
                      setup_children=not contract_trace, **settings)
    doc = document(tallies, manifest, trace=args.trace, **settings)
    print_report(doc, manifest)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(doc, handle, indent=1)
            handle.write("\n")
    if args.workload:
        print(contract_line(tallies[args.workload], manifest, contract_trace))
    return 1 if any(tally.failed for tally in tallies.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
