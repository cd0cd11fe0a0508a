"""What the benchmark runs and how its numbers are expected to interact.

``BENCHMARK.json`` at the repository root is the declaration the pipeline
reads: workload names with their reasons, end-to-end metrics with unit,
direction and regression bound, per-layer metrics with unit and direction.
Its schema has no room for the rest, which lives here: how each workload is
driven, the exact count that pins ``scale_10k``, and the interaction table
(which end-to-end number each layer metric should move, on which workload,
and where it should not) written down before anything was measured.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
MANIFEST_PATH = ROOT / "BENCHMARK.json"
#: the simulator's source tree; a code object whose file lives under
#: ``PACKAGE_ROOT/<pkg>/`` belongs to layer ``<pkg>``
PACKAGE_ROOT = ROOT / "src" / "repro"
GOLDEN_DIR = ROOT / "results"

#: ``repro/sim/trace.py`` is split out of ``sim`` as ``trace`` because the
#: tracer's cost is billed with the monitors it feeds (ROADMAP aim 1);
#: ``other`` is everything that is not ``repro.*`` and has no repro caller.
LAYERS: Tuple[str, ...] = ("sim", "trace", "net", "mpi", "ft", "runtime",
                           "apps", "verify", "obs", "harness", "chaos",
                           "other")

#: Host time depends strongly on the simulator seed (ten seeds: quartile
#: distance 11 % of the median on fig7, 20 % on mttf, whose Poisson kill
#: schedule it draws), and fig7 fails a shape check at seeds 3 and 8.  A
#: 10 % bound cannot be read through that, so the simulator seed is part of
#: the workload definition — seed 0, the seed of the committed goldens, so
#: every repetition is byte-compared — and the benchmark's ``--seed`` varies
#: the one input that leaves the work unchanged: the interpreter's hash seed.
GOLDEN_SIM_SEED = 0


class Workload(NamedTuple):
    name: str
    #: "figure" (repro.harness CLI), "chaos" (repro.chaos CLI) or "perf"
    #: (repro.perf.workloads.WORKLOADS)
    kind: str
    #: figure id / WORKLOADS key
    target: str
    #: single-process wall time on the 2-core reference box; a child is
    #: given ten times this before it is killed and all its operations fail
    nominal_wall_s: float


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fig6_bt_scaling", "figure", "fig6", 12.0),
    Workload("fig7_cg_latency", "figure", "fig7", 6.0),
    Workload("mttf_failures", "figure", "mttf", 13.0),
    Workload("chaos_78", "chaos", "smoke+recovery", 5.5),
    Workload("scale_10k", "perf", "scale_10k", 3.0),
)}

#: ``scale_10k`` is a fixed launch (no seed): 10,000 ranks, 8 token-ring
#: rounds.  Its one correctness operation is this engine event count.
SCALE_10K_PARAMS = {"n_procs": 10_000, "rounds": 8}
SCALE_10K_EVENTS = 390_002

#: campaigns ``chaos_78`` runs back to back (48 + 30 scenarios)
CHAOS_CAMPAIGNS = ("smoke", "recovery")

WAVE_PHASES = ("markers", "drain", "flush", "stream", "commit")


def load_manifest(path: Path = MANIFEST_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


class Interaction(NamedTuple):
    """One row of the interaction table (README, 'How they interact')."""

    #: per-layer metric names, or ``<layer>.*`` for all of a layer's
    metrics: Tuple[str, ...]
    #: ``<end-to-end metric>@<workload>`` pairs the metrics should move
    moves: Tuple[str, ...]
    #: pairs that should *not* move: the bypass prediction
    stays: Tuple[str, ...] = ()


def _pairs(metrics: str, workloads: str) -> Tuple[str, ...]:
    return tuple(f"{m}@{w}" for m in metrics.split() for w in workloads.split())


_FIGURES = "fig6_bt_scaling fig7_cg_latency mttf_failures"
_ALL = _FIGURES + " chaos_78 scale_10k"

INTERACTIONS: Tuple[Interaction, ...] = (
    # verification tax: monitors + the tracer that feeds them
    Interaction(("verify.*", "trace.*"),
                moves=_pairs("wall_s cpu_s", "fig7_cg_latency chaos_78 "
                                             "fig6_bt_scaling"),
                stays=_pairs("wall_s cpu_s", "mttf_failures scale_10k")),
    # bulk image transfers: the flow scheduler
    Interaction(("net.self_s", "net.share", "net.calls", "net.flow_sends",
                 "net.inline_sends", "net.bytes_sent"),
                moves=_pairs("wall_s", "fig6_bt_scaling mttf_failures"),
                stays=_pairs("wall_s", "fig7_cg_latency")),
    # node/connection fan-out at launch
    Interaction(("net.calls_in", "runtime.*", "apps.*"),
                moves=_pairs("wall_s peak_rss_mb", "scale_10k"),
                stays=_pairs("wall_s", _FIGURES)),
    Interaction(("mpi.*",),
                moves=_pairs("wall_s", "fig7_cg_latency mttf_failures "
                                       "scale_10k")),
    # the kernel is under everything; a pure speed-up keeps sim.events
    Interaction(("sim.*",), moves=_pairs("wall_s cpu_s", _ALL)),
    Interaction(("ft.*",),
                moves=_pairs("wall_s", "chaos_78"),
                stays=_pairs("wall_s", "fig6_bt_scaling fig7_cg_latency "
                                       "scale_10k")),
    # fixed per-run cost: about zero today, any growth is a regression
    Interaction(("harness.*", "chaos.*", "obs.*"),
                moves=_pairs("setup_s", _ALL) + _pairs("wall_s", "chaos_78"),
                stays=_pairs("wall_s", _FIGURES + " scale_10k")),
    # argparse, json, report writing: inside the timed call everywhere
    Interaction(("other.*",), moves=_pairs("wall_s", _ALL)),
    # a property of the profiler, not of the program
    Interaction(("trace_overhead_x",), moves=()),
)


def interaction_for(metric: str) -> Optional[Interaction]:
    """The table row a per-layer metric belongs to: an exact name wins over
    its layer's ``<layer>.*`` wildcard."""
    wildcard = metric.split(".", 1)[0] + ".*"
    for wanted in (metric, wildcard):
        for row in INTERACTIONS:
            if wanted in row.metrics:
                return row
    return None


def layer_metric_names() -> List[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = [f"{layer}.{kind}" for layer in LAYERS
             for kind in ("self_s", "share", "calls", "calls_in")]
    names += WORK_COUNTS
    names.append("trace_overhead_x")
    return names


#: work counts read from the workloads' public outputs (see gate.work_counts)
WORK_COUNTS: List[str] = [
    "sim.events", "sim.timer_tombstones", "sim.heap_compactions",
    "sim.us_per_event",
    "net.flow_sends", "net.inline_sends", "net.bytes_sent",
    "mpi.messages_sent", "mpi.bytes_sent",
    "ft.waves_completed", "ft.waves_aborted", "ft.image_bytes_stored",
    "ft.restarts", "ft.failures_detected", "ft.recovery_sim_s",
    *(f"ft.wave_phase_sim_s.{phase}" for phase in WAVE_PHASES),
    "verify.monitors_attached", "verify.checked", "verify.violations",
    "harness.runs", "harness.shape_checks", "harness.sim_completion_s",
    "chaos.scenarios", "chaos.degraded",
]
