"""Scale-limit experiment — why the grid runs are Pcl-only (Sec. 5.4).

"The Vcl implementation was not designed for this scale, because it uses
the select system call to multiplex its communication channels ... Each node
of the Vcl implementation opens up to 3 sockets with the dispatcher ... and
this precludes tests with more than 300 processes.  By contrast, Pcl was
designed to scale to large platforms."

This experiment sweeps process counts through both launchers' validators and
runs a small end-to-end confirmation either side of the wall.

Beyond the paper's sweep, the ``extension`` parameter takes the figure to
the FTPM ceiling: the validator sweep continues through 10,000 processes
and an actual 10,000-rank token-ring wave is launched and run end to end
(``_extended_confirmation``).  The smoke profile empties it and keeps the
original seven sizes, so the committed ``results/scale_limit_smoke.json``
golden stays byte-identical.
"""

from __future__ import annotations

from repro.apps import BT
from repro.apps.synthetic import token_ring
from repro.harness.config import Profile, figure_params
from repro.harness.report import FigureResult, Series
from repro.harness.runner import bare_run
from repro.harness.table import RunTable
from repro.runtime import DeploymentSpec, Dispatcher, FTPM, ScaleLimitError

__all__ = ["run", "CLAIM", "PARAMS"]

#: (paper reference, the paper's qualitative claim), quoted by EXPERIMENTS.md
CLAIM = (
    "Sec. 5.4 (deployment)",
    "Vcl's dispatcher multiplexes with select() (fd set of 1024, 3 "
    "sockets per process) and cannot run beyond ~300 processes; Pcl's "
    "FTPM was designed for large platforms (runs up to 1024).",
)

_CEILING = 10_000

#: ``extension`` is the 10k-rank extension: the validator sweep continues
#: up to and past the FTPM ceiling, plus one end-to-end run at the ceiling
PARAMS = {
    "paper": dict(sizes=(64, 144, 256, 324, 400, 529, 1024),
                  extension=(2048, 4096, _CEILING, _CEILING + 1)),
    "smoke": dict(extension=()),
}


def _extended_confirmation() -> int:
    """Launch and run a 10,000-rank token-ring wave; events processed.

    Uses the same machinery as the ``scale_10k`` perf workload (FTPM
    launch, connection fan-out, one ring round) — the point is that the
    runtime actually *runs* at the ceiling, not merely that the validator
    admits it.
    """
    spec = DeploymentSpec(n_procs=_CEILING, protocol=None, launcher="ftpm",
                          procs_per_node=2, n_compute_nodes=_CEILING // 2)
    _completion, run = bare_run(spec, token_ring(rounds=1), seed=13,
                                name="scale-limit-10k")
    return run.sim.events_processed


def run(profile: Profile) -> FigureResult:
    par = figure_params(PARAMS, profile)
    dispatcher, ftpm = Dispatcher(), FTPM()
    sizes = par.sizes + par.extension

    def admits(launcher, n: int) -> float:
        try:
            launcher.validate(n)
            return 1.0
        except ScaleLimitError:
            return 0.0

    vcl_ok = [admits(dispatcher, n) for n in sizes]
    pcl_ok = [admits(ftpm, n) for n in sizes]

    # end-to-end confirmation just beyond the wall: Pcl must actually run
    # a job the dispatcher refuses
    beyond = next(n for n, ok in zip(sizes, vcl_ok) if not ok)
    bench = BT(klass="A", scale=min(profile.time_scale, 0.05))
    p = 361 if beyond <= 361 else beyond  # keep it a perfect square for BT
    pcl_run = RunTable(
        bench=bench, protocol="pcl", profile=profile, period=1e6,
        procs_per_node=2, launcher="ftpm", name="scale-limit-pcl",
    ).add(n_procs=[p]).run()[p]

    checks = {
        "dispatcher admits the paper's <=256-process Vcl runs":
            all(ok for n, ok in zip(sizes, vcl_ok) if n <= 256),
        "dispatcher refuses >300 processes (select() wall)":
            all(not ok for n, ok in zip(sizes, vcl_ok) if n > 340),
        "ftpm admits every tested size up to 1024":
            all(ok for n, ok in zip(sizes, pcl_ok) if n <= 1024),
        f"pcl actually runs at {p} processes":
            pcl_run.completion > 0,
        "the wall sits near 1024/3 processes":
            300 <= dispatcher.max_processes() <= 341,
    }
    notes = [
        f"dispatcher limit: {dispatcher.max_processes()} processes "
        "(1024-descriptor select() set, 3 sockets/process)",
        f"end-to-end Pcl run at {p} processes completed in "
        f"{pcl_run.completion:.1f}s",
    ]
    if par.extension:
        checks["ftpm admits every size up to its 10000 ceiling"] = \
            all(ok for n, ok in zip(sizes, pcl_ok) if n <= _CEILING)
        checks["ftpm refuses beyond the 10000 ceiling"] = \
            all(not ok for n, ok in zip(sizes, pcl_ok) if n > _CEILING)
        wave_events = _extended_confirmation()
        checks[f"ftpm actually runs a {_CEILING}-rank wave"] = \
            wave_events > _CEILING
        notes.append(
            f"end-to-end {_CEILING}-rank token-ring wave processed "
            f"{wave_events} events"
        )
    return FigureResult(
        title="Runtime scalability wall: MPICH-V dispatcher vs FTPM",
        x_label="processes",
        y_label="admitted (1) / refused (0)",
        series=[
            Series("vcl dispatcher", [float(n) for n in sizes], vcl_ok),
            Series("pcl ftpm", [float(n) for n in sizes], pcl_ok),
        ],
        checks=checks,
        notes=notes,
    )
