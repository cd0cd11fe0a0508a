"""Footprint pin: an idle transport owns no container.

Before queues were allocated on demand a rank cost 10.5 live ``deque``s
(three per pipe, two per matching engine, one per gate, resource and
delayed-receive queue — 760 B each, empty or holding one parked waiter),
which was half the live heap of the 10,000-rank ``scale_10k`` workload.
This test counts them exactly, through the allocator's eyes
(``gc.get_objects()``), on a 1,000-rank FTPM token ring: none after launch,
and none after a ring round whose flow-sized token drove every pipe's
``egress`` queue — a queue that was used and drained must be given back.
The documented exceptions (a ``Store`` that has held a backlog, a
``Resource`` that has had waiters, keep their deque) do not occur on this
workload, so the count is exact; docs/PERF.md "Transport fixed costs".

The same ring pins what reception costs: no connection end owns a receive
process (before: one parked generator + ``Process`` + ``get`` event per end,
~0.8 KB, two per rank on a ring), and a rank owns no empty ``set`` (before:
two, 216 B each).  ch_v's daemon, whose reception takes host time, reads
its ends by callbacks too: a ch_v mesh owns no receive process either,
while the process daemon kept as its spec has one per end.  No run may import ``numpy`` either (~20 MB resident) —
not one that draws no random number, and not one that draws jitter,
checkpoints, loses a node, fits a line and injects Poisson failures; pytest
itself imports it, so those are checked in a fresh interpreter, and the
Poisson injector also runs through its kills with ``numpy`` made
un-importable.
"""

import collections
import gc
import os
import subprocess
import sys
import types

import pytest

import repro
from repro.apps.synthetic import token_ring
from repro.net.connection import _INLINE_BYTES
from repro.runtime import CHANNELS, DeploymentSpec, build_run
from repro.sim import make_simulator
from repro.sim.process import Process

N_RANKS = 1_000
#: live ``Process`` objects that are not a rank's application process: the
#: FTPM launcher's and the process manager's are done and unreferenced once
#: the launch has drained, so none
RUNTIME_PROCESSES = 0


def _live(kind, known=frozenset()):
    gc.collect()
    return [obj for obj in gc.get_objects()
            if type(obj) is kind and id(obj) not in known]


#: where a per-connection receive loop could live: a channel, or the
#: process daemon ``tests/mpi/test_chv_reference.py`` keeps as ch_v's spec
RECEIVE_LOOP_HOMES = (os.path.join("repro", "mpi", "channels"),
                      os.path.join("tests", "mpi", "test_chv_reference.py"))


def _receive_loops(generators):
    """Generators whose code is a per-connection receive loop."""
    return [gen for gen in generators
            if any(home in gen.gi_code.co_filename
                   for home in RECEIVE_LOOP_HOMES)
            and "receiver" in gen.gi_code.co_name]


def _empty_sets(job):
    """Empty ``set``s held by a channel, its matching engine, a rank
    context or its completed-op set."""
    holders = []
    for channel, context in zip(job.channels, job.contexts):
        holders += [vars(channel), vars(channel.matching), vars(context),
                    {slot: getattr(context._completed, slot)
                     for slot in context._completed.__slots__}]
    return [(name, value) for holder in holders
            for name, value in holder.items()
            if type(value) is set and not value]


@pytest.mark.unmonitored  # the monitor bus keeps a record window: not transport
def test_idle_and_drained_queues_own_no_deque():
    # deques of the interpreter, pytest and earlier tests are not ours
    known = frozenset(id(obj) for obj in _live(collections.deque))
    known_processes = frozenset(id(obj) for obj in _live(Process))
    known_generators = frozenset(
        id(obj) for obj in _live(types.GeneratorType))
    sim = make_simulator(seed=3)
    go = sim.event(name="go")
    ring = token_ring(rounds=1, nbytes=4 * _INLINE_BYTES)

    def app(ctx):
        yield go  # park every rank right after launch
        yield from ring(ctx)

    spec = DeploymentSpec(n_procs=N_RANKS, protocol=None, launcher="ftpm",
                          procs_per_node=2)
    run = build_run(sim, spec, app, name="footprint")
    run.start()
    sim.run()  # drains: every rank is launched and parked on `go`
    assert not run.completed.triggered
    assert _live(collections.deque, known) == []

    def assert_no_receive_process():
        assert _receive_loops(
            _live(types.GeneratorType, known_generators)) == []
        assert len(_live(Process, known_processes)) == \
            N_RANKS + RUNTIME_PROCESSES
        assert _empty_sets(run.job) == []

    assert_no_receive_process()

    go.succeed()
    sim.run_until_complete(run.completed, limit=1e8)
    pipes = [pipe for conn in run.net.connections for pipe in conn.pipes]
    assert len(pipes) >= 2 * N_RANKS  # the ring really connected everyone
    assert sum(pipe.messages_sent for pipe in pipes) >= N_RANKS
    assert _live(collections.deque, known) == []
    assert_no_receive_process()  # connected, and every end has received


def _chv_ring_receive_loops():
    """Receive loops and live receive processes after a 3-rank ch_v ring
    (an eager mesh: two ends per rank), whatever device runs ``ch_v``."""
    known_generators = frozenset(
        id(obj) for obj in _live(types.GeneratorType))
    known_processes = frozenset(id(obj) for obj in _live(Process))
    sim = make_simulator(seed=3)
    spec = DeploymentSpec(n_procs=3, protocol=None, channel="ch_v")
    run = build_run(sim, spec, token_ring(rounds=1), name="footprint-chv")
    run.start()
    sim.run_until_complete(run.completed, limit=1e8)
    loops = _receive_loops(_live(types.GeneratorType, known_generators))
    receivers = [process for process in _live(Process, known_processes)
                 if process.name.startswith("rx:")]
    return loops, receivers


def test_a_chv_mesh_owns_no_receive_process():
    assert _chv_ring_receive_loops() == ([], [])


def test_receive_loop_detector_sees_the_process_daemon(monkeypatch):
    """The positive control: the process daemon kept as ch_v's spec has a
    receive loop per end, and the detector the pins rely on sees them."""
    from repro.mpi import ChVChannel
    from tests.mpi.test_chv_reference import ProcessDaemon

    monkeypatch.setitem(
        CHANNELS, "ch_v",
        type("ProcessDaemonChV", (ProcessDaemon, ChVChannel), {}))
    loops, receivers = _chv_ring_receive_loops()
    assert len(loops) >= 3 * 2
    assert len(receivers) == len(loops)


def _child_imported_numpy(code, block_numpy=False):
    """Run ``code`` in a fresh interpreter (this one has ``numpy`` already:
    pytest's plugins and the oracle tests import it) and report whether it
    ended with ``numpy`` loaded; ``block_numpy`` makes importing it fail."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(repro.__file__)),
         env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    prelude = "import sys\n"
    if block_numpy:
        prelude += "sys.modules['numpy'] = None\n"
    done = subprocess.run(
        [sys.executable, "-c", prelude + code
         + "sys.exit(10 + (sys.modules.get('numpy') is not None))\n"],
        env=env, timeout=300, capture_output=True, text=True)
    assert done.returncode in (10, 11), done.stderr[-2000:]
    return done.returncode == 11


def test_the_detector_sees_an_explicit_numpy_import():
    """The positive control: without it the negatives below prove nothing."""
    pytest.importorskip("numpy")
    assert _child_imported_numpy("import numpy\n")


def test_a_run_that_draws_no_random_number_imports_no_numpy():
    """``scale_337`` has no jitter, no failures, no launch skew drawn from a
    stream: nothing in it may pull ``numpy`` in."""
    assert not _child_imported_numpy(
        "from repro.perf.workloads import WORKLOADS, suite_params\n"
        "run = WORKLOADS['scale_337'](**suite_params('smoke')['scale_337'])\n"
        "assert run.events > 0\n")


JITTERED_RUN = (
    "from repro.perf.workloads import WORKLOADS\n"
    "from repro.tools import linear_fit\n"
    "assert WORKLOADS['chaos_kill']().extra['verdict'] == 'recovered'\n"
    "assert linear_fit([0, 1, 2], [1.0, 2.0, 3.5]).slope == 1.25\n")

#: the ``mttf`` figure's injector in miniature: four Poisson kills on a
#: checkpointed four-rank job, each followed by a restart, then completion
POISSON_RUN = (
    "from repro.apps.synthetic import burst\n"
    "from repro.ft import random_failures\n"
    "from repro.harness.runner import bare_run\n"
    "from repro.runtime import DeploymentSpec\n"
    "def inject(run):\n"
    "    run.max_restarts = 32\n"
    "    random_failures(run, mttf=2.0, max_failures=4)\n"
    "spec = DeploymentSpec(n_procs=4, protocol='pcl', period=1.0,\n"
    "                      image_bytes=2e6, launcher='instant')\n"
    "_, run = bare_run(spec, burst(iters=30, nbytes=1e4, fan=2, compute=0.2),\n"
    "                  3, name='mttf', inject=inject)\n"
    "assert run.completed.triggered\n"
    "assert run.stats.failures == run.stats.restarts == len(run.injected) >= 3\n")


def test_a_jittered_checkpointed_killed_run_imports_no_numpy():
    """``chaos_kill`` draws its compute jitter from named streams, takes a
    checkpoint wave, loses a node and recovers; a figure then fits a line
    and the Poisson injector kills ranks.  The streams and their
    distributions are pure Python (``repro.sim.rng``) and the fit a closed
    form, so none of it may pull ``numpy`` in."""
    assert not _child_imported_numpy(JITTERED_RUN + POISSON_RUN)


def test_the_poisson_injector_runs_to_recovery_without_numpy():
    assert not _child_imported_numpy(POISSON_RUN, block_numpy=True)


# ------------------------------------------------------------------- sends
def _stencil_job(context_cls=None, channel_cls=None):
    """A 4-rank stencil job whose rank 0 has its sends to rank 1 frozen
    once the links are up, run until its next ``isend`` to rank 1 waits
    at the gate."""
    from repro.apps.stencil import Stencil
    from repro.mpi import FtSockChannel
    from tests.mpi.conftest import make_job

    sim = make_simulator(seed=5)
    app = Stencil("A", scale=0.05).make_app(4)
    job, _ = make_job(sim, app, size=4,
                      channel_cls=channel_cls or FtSockChannel)
    if context_cls is not None:
        for context in job.contexts:
            context.__class__ = context_cls
    job.start()
    while 1 not in job.channels[0].conns:
        sim.step()
    gate = job.channels[0].send_gate(1)
    gate.close()
    while not any(waiter.callbacks for waiter in gate._waiters):
        sim.step()
    return job


def _pusher_of(owner, job):
    """Whether ``owner`` is a live ``isend`` pusher process of ``job``."""
    return (isinstance(owner, Process) and owner.name.startswith("isend:")
            and owner.generator.gi_frame is not None
            and owner.generator.gi_frame.f_locals["self"].job is job)


def _isend_processes(job):
    return [process for process in _live(Process) if _pusher_of(process, job)]


def test_an_isend_held_at_a_gate_owns_no_process():
    job = _stencil_job()
    assert job.channels[0]._chains  # the isend is waiting
    assert _isend_processes(job) == []


def test_isend_process_detector_sees_the_pusher():
    """The positive control: the process send path kept as the spec parks
    a pusher process at the gate."""
    from repro.mpi import FtSockChannel
    from repro.mpi.context import RankContext
    from tests.mpi.test_send_reference import GeneratorSend, PusherContext

    job = _stencil_job(
        PusherContext,
        type("GeneratorFtSock", (GeneratorSend, FtSockChannel), {}))
    assert [p.name for p in _isend_processes(job)] == ["isend:r0->r1"]
    assert RankContext.isend is not PusherContext.isend


def _chain_callbacks(job):
    """Pending events holding a callback of a send of ``job``: a chain's
    step, or a pusher process of one of its ranks."""
    from repro.sim.events import Event

    def of_job(callback):
        owner = getattr(callback, "__self__", None)
        channel = getattr(owner, "channel", None)
        return (getattr(channel, "job", None) is job
                or _pusher_of(owner, job))

    return [event.name for event in _live_events(Event)
            if event._state == Event.PENDING
            and any(of_job(callback) for callback in event.callbacks)]


def _live_events(kind):
    gc.collect()
    return [obj for obj in gc.get_objects() if isinstance(obj, kind)]


@pytest.mark.unmonitored  # a bare kill, no recovery: the wave never closes
def test_a_killed_job_leaves_no_send_behind():
    """Kill a Pcl job while an ``isend`` waits at a closed gate: nothing
    pending — no gate waiter, no hop in a daemon queue — still holds a
    send of that job."""
    from tests.ft.conftest import build_ft_run, ring_app_factory

    sim = make_simulator(seed=2)
    run, _ = build_ft_run(sim, ring_app_factory(iters=40, work=0.01,
                                                nbytes=50_000),
                          size=4, protocol="pcl", period=0.05)
    run.start()

    def parked():
        return any(waiter.callbacks
                   for channel in run.job.channels
                   for gate in (channel.global_send_gate,
                                *channel._send_gates.values())
                   for waiter in gate._waiters)

    while not parked():
        sim.step()
    job = run.job
    assert _chain_callbacks(job)  # the detector sees the waiting send
    job.kill()
    assert _chain_callbacks(job) == []
