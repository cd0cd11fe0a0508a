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

The ring also pins what naming costs: a per-rank, per-pipe or per-node
name is derived when read (docs/PERF.md "Names on read"), so a ring
nobody watches stores none of them (before: 181k live strings, 11.4 MB at
10,000 ranks), keeps no link-ready event past its handshake and no idle
inbox, and its channels and contexts keep no ``__dict__``.  Every name,
once read, is the string it always was.

And it pins what a message costs that can go at once: a ring round over
links that are up builds no ``SendChain`` and no per-send ``partial``
(before: one of each per send), while a send held at a closed gate does;
and a rank parked in ``recv`` holds one generator, with no second one
behind it (docs/PERF.md "Sends").
"""

import collections
import functools
import gc
import os
import re
import subprocess
import sys
import types

import pytest

import repro
import repro.mpi.context
from repro.apps.synthetic import token_ring
from repro.mpi.channels.base import SendChain
from repro.net.connection import _INLINE_BYTES, Connection
from repro.net.flows import FlowScheduler
from repro.net.link import Link
from repro.runtime import CHANNELS, DeploymentSpec, build_run
from repro.sim import make_simulator
from repro.sim.events import Event
from repro.sim.primitives import Store
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


def _fields(obj):
    """An object's attributes, whether it keeps them in slots or a dict."""
    slots = [slot for kind in type(obj).__mro__
             for slot in getattr(kind, "__slots__", ())]
    fields = {slot: getattr(obj, slot) for slot in slots if hasattr(obj, slot)}
    fields.update(getattr(obj, "__dict__", {}))
    return fields


def _empty_sets(job):
    """Empty ``set``s held by a channel, its matching engine, a rank
    context or its completed-op set."""
    holders = []
    for channel, context in zip(job.channels, job.contexts):
        holders += [_fields(channel), _fields(channel.matching),
                    _fields(context), _fields(context._completed)]
    return [(name, value) for holder in holders
            for name, value in holder.items()
            if type(value) is set and not value]


#: every name the ring below would store if names were stored, not derived
DERIVED_NAME = re.compile(
    r"((inbox:|get:inbox:|sent:|pump:)?conn\d+\.(ab|ba)"
    r"|(gate:)?g:r\d+(->r\d+)?|recv:r\d+|node-\d+"
    r"|footprint#\d+:(r\d+|link\(\d+, \d+\))"
    r"|(acquire:disk:|disk:)?footprint-\d+(\.tx|\.rx|\.mem)?)$")


def _stored_names():
    """Strings of the derived kinds that some object holds."""
    gc.collect()
    found = set()
    for obj in gc.get_objects():
        for ref in gc.get_referents(obj):
            # a dict of strings only is not tracked: look inside
            refs = ((*ref, *ref.values()) if type(ref) is dict else (ref,))
            found.update(text for text in refs
                         if type(text) is str and DERIVED_NAME.match(text))
    return found


@pytest.mark.unmonitored  # the monitor bus keeps a record window: not transport
def test_idle_and_drained_queues_own_no_deque():
    # deques of the interpreter, pytest and earlier tests are not ours
    known = frozenset(id(obj) for obj in _live(collections.deque))
    known_processes = frozenset(id(obj) for obj in _live(Process))
    known_generators = frozenset(
        id(obj) for obj in _live(types.GeneratorType))
    known_stores = frozenset(id(obj) for obj in _live(Store))
    known_names = _stored_names()
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

    def assert_names_derived():
        assert _stored_names() - known_names == set()
        assert not any(isinstance(ready, Event)
                       for ready in run.job._links.values())
        assert _live(Store, known_stores) == []
        assert not any(hasattr(obj, "__dict__")
                       for obj in (*run.job.channels, *run.job.contexts))

    assert_no_receive_process()
    assert_names_derived()

    go.succeed()
    sim.run_until_complete(run.completed, limit=1e8)
    pipes = [pipe for conn in run.net.connections for pipe in conn.pipes]
    assert len(pipes) >= 2 * N_RANKS  # the ring really connected everyone
    assert sum(pipe.messages_sent for pipe in pipes) >= N_RANKS
    assert _live(collections.deque, known) == []
    assert_no_receive_process()  # connected, and every end has received
    assert_names_derived()
    # the positive control: a name that was read is kept where it is hot
    assert pipes[0].name in _stored_names() - known_names


def test_names_read_as_they_always_were():
    """Every derived name, read, is the string it was when stored."""
    sim = make_simulator(seed=3)
    spec = DeploymentSpec(n_procs=8, protocol=None, launcher="ftpm")
    run = build_run(sim, spec, token_ring(rounds=1), name="names")
    run.start()
    job = run.job
    while not isinstance(job._links.get((3, 4)), Event):
        sim.step()  # until rank 3's send starts the handshake with rank 4
    assert job._links[(3, 4)].name == "names#1:link(3, 4)"
    assert job.establish(4, 3).name == "names#1:link(3, 4)"
    sim.run_until_complete(run.completed, limit=1e8)
    node = job.endpoints[3].node
    assert job.name == "names#1"
    assert job.app_processes[3].name == "names#1:r3"
    channel = job.channels[3]
    assert channel.global_send_gate.name == "g:r3"
    assert channel.global_send_gate.wait().name == "gate:g:r3"
    assert channel.send_gate(4).name == "g:r3->r4"
    assert channel.matching.post_recv(0, 0).name == "recv:r3"
    assert node.name == "names-003"
    assert node.nic_tx.name == "names-003.tx"
    assert node.nic_rx.name == "names-003.rx"
    assert node.mem.name == "names-003.mem"
    assert node.disk.name == "names-003"
    assert node.disk._arm.name == "disk:names-003"
    assert node.disk._arm.acquire().name == "acquire:disk:names-003"

    sim = make_simulator(seed=3)
    sim._connection_counter = 6
    link = Link("l", 1e6)
    conn = Connection(sim, FlowScheduler(sim), [link], [link], 1e-3)
    pipe = conn.pipes[0]
    assert conn.id == 7 and (pipe.name, conn.pipes[1].name) == (
        "conn7.ab", "conn7.ba")
    assert pipe.inbox.name == "inbox:conn7.ab"
    assert pipe.inbox.get().name == "get:inbox:conn7.ab"
    assert conn.end_a.send("small", 8.0).name == "sent:conn7.ab"
    conn.end_a.send("large", 1e6)
    assert "pump:conn7.ab" in [entry[-1].name for entry in sim._heap]


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


# ------------------------------------------------------- a message that can go
def _count_send_chains(monkeypatch):
    """Count every ``SendChain`` built and every ``partial`` the rank
    context builds (a chained send's commit callback)."""
    made = collections.Counter()
    build_chain = SendChain.__init__

    def counting_chain(self, *args, **kwargs):
        made["SendChain"] += 1
        build_chain(self, *args, **kwargs)

    def counting_partial(*args, **kwargs):
        made["partial"] += 1
        return functools.partial(*args, **kwargs)

    monkeypatch.setattr(SendChain, "__init__", counting_chain)
    monkeypatch.setattr(repro.mpi.context, "partial", counting_partial)
    return made


def _second_round(n_ranks, name):
    """A ring that connects everyone in a first round, then parks every
    rank on ``go``; the second round runs once ``go`` succeeds."""
    sim = make_simulator(seed=3)
    go = sim.event(name="go")
    first, second = token_ring(rounds=1), token_ring(rounds=1)

    def app(ctx):
        yield from first(ctx)
        yield go
        yield from second(ctx)

    spec = DeploymentSpec(n_procs=n_ranks, protocol=None, launcher="ftpm",
                          procs_per_node=2)
    run = build_run(sim, spec, app, name=name)
    run.start()
    sim.run()  # drains: every link is up, every rank parked on `go`
    assert not run.completed.triggered
    return sim, go, run


@pytest.mark.unmonitored  # a bare ring: no protocol to monitor
def test_a_round_over_links_that_are_up_builds_no_send_chain(monkeypatch):
    sim, go, run = _second_round(N_RANKS, "footprint")
    made = _count_send_chains(monkeypatch)
    go.succeed()
    sim.run_until_complete(run.completed, limit=1e8)
    assert sum(channel._seq for channel in run.job.channels) == 2 * N_RANKS
    assert made == {}


@pytest.mark.unmonitored
def test_a_send_held_at_a_closed_gate_builds_its_chain(monkeypatch):
    """The positive control: the same round with rank 0's gate to rank 1
    closed until t+1 builds one chain and its commit callback."""
    sim, go, run = _second_round(8, "footprint-gated")
    made = _count_send_chains(monkeypatch)
    gate = run.job.channels[0].send_gate(1)
    gate.close()
    sim.call_at(1.0, gate.open)
    go.succeed()
    sim.run_until_complete(run.completed, limit=1e8)
    assert made == {"SendChain": 1, "partial": 1}


@pytest.mark.unmonitored
def test_a_rank_parked_in_recv_holds_one_generator():
    """While rank 0 connects to send the token, every other rank waits in
    ``recv``: one receive generator each, and no other ``RankContext``
    generator behind it."""
    known = frozenset(id(obj) for obj in _live(types.GeneratorType))
    sim = make_simulator(seed=3)
    go = sim.event(name="go")
    ring = token_ring(rounds=1)

    def app(ctx):
        yield go  # start every rank at once
        yield from ring(ctx)

    spec = DeploymentSpec(n_procs=N_RANKS, protocol=None, launcher="ftpm",
                          procs_per_node=2)
    run = build_run(sim, spec, app, name="footprint")
    run.start()
    sim.run()
    go.succeed()
    channels = run.job.channels
    while sum(len(channel.matching.posted) for channel in channels) \
            < N_RANKS - 1:
        sim.step()
    names = collections.Counter(
        gen.gi_code.co_name for gen in _live(types.GeneratorType, known)
        if gen.gi_code.co_filename.endswith(os.path.join("mpi", "context.py")))
    assert names == {"recv": N_RANKS - 1, "send": 1}
