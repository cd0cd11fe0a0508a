"""Executable naive spec for the send path.

The spec is the send path as processes: a blocking ``send`` runs the
``post_send`` generator inside the application process, an ``isend`` that
misses the inline ``try_fast_send`` is a pusher process whose first step
runs inside the post (so both number their packet and join their first
wait where posted, and a send posted behind a held one to the same peer
waits on its event), and a protocol fan-out is a ``_send_each`` helper
process over the ``send_control`` generator.  It lives on in
``tests/races.py`` as ``GeneratorSend`` (channel), ``PusherContext`` and
``SendEachEndpoint`` (the ch_v rig races against them too), with two
deliberate fixes: a rank's shutdown interrupts its pushers and helpers
(sends die with their rank), and the handshake is the job's, not its
first asker's (:class:`AbortingHandshake` keeps how it was, and
``test_the_old_handshake_died_with_its_first_asker`` pins the
difference).  It is raced against the shipped send path on random
job-level programs over ft-sock, Nemesis and ch_v: 3-5 ranks two to a
node, blocking sends from each rank's application process (one may come
just behind an ``isend`` of the same application to the same peer),
``isend`` s and control fan-outs; lazy connects and ch_v's eager mesh;
per-peer freezes and the Nemesis stopper closing and opening; the
checkpoint transfer tax (a flow-sized stream on a rank's side
connection); and ``detach()``, ``break_()``, task kills (``shutdown()`` +
the application's interrupt) and harvest -> kill -> flush ->
adopt-into-a-fresh-job at arbitrary instants — so mid-freeze, mid-hop and
mid-handshake.  An operation runs at a tick, rides an
application packet (and runs inside the receive path), or rides a side
connection read by a process.

Everything observable must agree: every wire send, every commit (op id and
instant), every transmit-complete of an ``isend`` request, every handled
packet and matched receive, every ``notify_socket_closed`` and ch_v
daemon hop observation, the final channel (gates, links, sequence
numbers), pipe and daemon state, and the pop stream once :data:`RULES`
match each helper's bootstrap with the start step that replaced it and
delete its termination and interrupt wakeups and whatever a send of a
rank that is already down still pops.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mpi import FtSockChannel, NemesisChannel
from repro.mpi.channels.base import HEADER_BYTES, SendChain
from repro.mpi.channels.ch_v import ChVChannel
from repro.mpi.context import RankContext
from repro.net.connection import _INLINE_BYTES
from repro.sim.process import Process

from tests.races import (MAX_RANKS, TICK, ChainEndpoint, DeferredStart,
                         DeferredStartContext, EarlyIsend, GeneratorSend,
                         JobRig, PusherContext, RANK, Rules,
                         SendEachEndpoint, drop, lone, pair, programs, race,
                         recording, rename)

# the protocol monitors assume a real protocol; these programs kill, detach
# and flush at will, and the pop stream is compared directly
pytestmark = pytest.mark.unmonitored

_HANDSHAKE_RTTS = 2.0


# --------------------------------------------------------------------- spec
class AbortingHandshake:
    """``MPIJob.establish`` as the generator it was: the first asker ran
    the handshake, so interrupting it (a task kill of a rank whose blocking
    send was connecting) aborted the handshake for every rank queued
    behind it.  The spec takes the job's handshake instead, which runs to
    its end whoever asked; a pusher or the mesh builder never was
    interrupted, so only this one case moves."""

    def _establish(self, dst, packet=None):
        job, a, b = self.job, self.rank, dst
        key = (a, b) if a < b else (b, a)
        ready = job._links.get(key)
        if ready is None:
            ready = job.sim.event(name=f"{job.name}:link{key}")
            job._links[key] = ready
            lo, hi = key
            try:
                connection = job.net.connect(job.endpoints[lo],
                                             job.endpoints[hi])
                yield job.sim.timeout(
                    _HANDSHAKE_RTTS * connection.end_a.latency)
                if job.killed:
                    connection.break_()
                    raise ConnectionResetError(
                        f"job {job.name} killed during connect")
            except BaseException as error:
                del job._links[key]
                if not ready.triggered:
                    ready.defused = True
                    if isinstance(error, Exception):
                        ready.fail(error)
                    else:
                        ready.fail(ConnectionResetError("connect aborted"))
                raise
            job.channels[lo].attach(hi, connection.end_a)
            job.channels[hi].attach(lo, connection.end_b)
            ready.succeed()
        elif not ready.processed:
            yield ready
        end = job.channels[a].conns.get(b)
        if end is None:
            raise ConnectionResetError(
                f"link {a}<->{b} vanished during establish")
        return end


# ---------------------------------------------------------------- recording
class LoggingCommit:
    """Logs every commit with its op id and instant (a shipped send
    commits through ``_sent``, the spec's through ``_commit``)."""

    __slots__ = ()  # swapped onto a slotted RankContext

    def _log(self, op_id):
        self.sim.rig.log.append(("commit", self.sim.now, self.job.name,
                                 self.rank, op_id))

    def _commit(self, op_id):
        self._log(op_id)
        super()._commit(op_id)

    def _sent(self, op_id, dst, packet):
        self._log(op_id)
        super()._sent(op_id, dst, packet)


RULES = Rules(
    "send",
    # a helper's termination or interrupt wakeup, a stopped chain's wakeup,
    # and what a rank that is down still pops
    drop("gone", "gone:"),
    drop("isend interrupt", "interrupt:isend:"),
    drop("send interrupt", "interrupt:send:"),
    drop("fan-out interrupt", "interrupt:fan-out:"),
    drop("helper interrupt", "interrupt:rig:"),
    drop("helper termination", "rig:", kind=Process.__name__),
    # a process bootstrap is the start step that replaced it
    rename("bootstrap", "init:", "start:"),
    rename("fan-out start", "fan-out:", "start:"),
)


class SendRig(JobRig):
    """Ranks with one endpoint each whose applications make blocking sends
    from their mailboxes.  Pops without a name are labelled by type: a
    waiter is a pusher on one side and a chain on the other."""

    KILL = "kill"
    DESCRIBE = False

    def who(self, channel):
        return channel.job.name, channel.rank

    def do_send(self, a, b, nbytes, carried):
        self.serial += 1
        self.boxes[self.job.name][a].put(
            (b, nbytes, (self.serial, carried), None))

    def do_isend(self, a, b, nbytes, carried):
        self.serial += 1
        if not self.job.channels[a].down:
            self.isend(self.job.contexts[a], b, nbytes,
                       (self.serial, carried))

    def do_tax(self, a, nbytes):
        """A checkpoint image streaming out of rank ``a``."""
        self.tax[a].send("image", nbytes=nbytes)
        self.job.channels[a].active_transfer_end = self.tax[a]

    def do_freeze(self, a, b):
        self.job.channels[a].freeze_sends([b])

    def do_resume(self, a, _):
        self.job.channels[a].resume_sends()

    def do_kill(self, a, _):
        """What a task kill does to a rank of the live job."""
        job = self.job
        channel = job.channels[a]
        if channel.down:
            return
        endpoint = channel.protocol
        channel.shutdown()
        if endpoint is not None:
            endpoint.detach()
        job.app_processes[a].interrupt("task killed")


def run_program(design, n_ranks, program):
    return SendRig(n_ranks, *design).run(program).outcome(RULES)


def rigs(n_ranks, device):
    """The (shipped, spec) rigs of ``device``."""
    return tuple(SendRig(n_ranks, *design) for design in designs(device))


class ShippedContext(LoggingCommit, RankContext):
    __slots__ = ()


class SpecContext(LoggingCommit, PusherContext):
    __slots__ = ()


def designs(device):
    """(shipped, spec) for ``device``: channel, endpoint and rank context
    classes."""
    return ((recording(device), ChainEndpoint, ShippedContext),
            (recording(device, GeneratorSend), SendEachEndpoint, SpecContext))


# ----------------------------------------------------------------- programs
#: payload sizes: inline (the last one lands exactly on the inline limit
#: once the envelope is added), just past it, and flow-sized
SIZES = (0.0, 96.0, _INLINE_BYTES - HEADER_BYTES,
         _INLINE_BYTES - HEADER_BYTES + 1.0, 40_000.0)

#: mostly traffic and gates
_programs = programs(
    SIZES, 40, [pair("recv", "freeze"), lone("resume", "fanout", "detach"),
                st.tuples(st.just("tax"), RANK, st.sampled_from([2e5, 2e6]))],
    kill="kill", sends=("send", "isend", "isend_send"), weight=2)


#: ft-sock: rank 0 freezes its sends to rank 1 and posts a blocking send
#: and an isend to it (a lazy connect each way first), rank 2 is killed
#: while rank 1's send to it is in its handshake, then rank 0 resumes
GATES_AND_HANDSHAKE = [
    (0, [("send", 0, 1, 0.0, None), ("isend", 1, 2, 96.0, None)]),
    (0, [("kill", 2, 0)]),
    (10, [("freeze", 0, 1), ("send", 0, 1, 96.0, None),
          ("isend", 0, 1, 40_000.0, None), ("tax", 0, 2e6)]),
    (12, [("resume", 0, 0), ("send", 1, 0, 0.0, None)]),
]

#: ch_v: rank 0's isend waits for its daemon hop when rank 2 is lost and
#: the survivors' links are harvested into a new incarnation at once
HOP_AND_HARVEST = [
    (20, [("isend", 0, 1, 96.0, None)]),
    (21, [("reincarnate", 2, 0)]),
    (40, [("send", 1, 0, 0.0, None)]),
]

#: Nemesis: the stopper closes with sends queued behind it on two links,
#: a fan-out passes it, and the rank is killed before it reopens
STOPPER = [
    (0, [("send", 0, 1, 0.0, None), ("send", 0, 2, 0.0, None)]),
    (10, [("freeze", 0, 1), ("isend", 0, 2, 96.0, None),
          ("send", 0, 1, 96.0, None), ("fanout", 0, 0)]),
    (11, [("resume", 0, 0), ("freeze", 0, 2), ("isend", 0, 1, 0.0, None)]),
    (12, [("kill", 0, 0)]),
]


#: rank 0's application posts an isend and then a blocking send to rank 1,
#: back to back: before the link is up (and, on ch_v, with it up, where
#: each waits for its daemon hop) both wait, in the order posted
ISEND_THEN_SEND = [
    (0, [("isend_send", 0, 1, 96.0, None)]),
    (20, [("isend_send", 0, 1, 96.0, None)]),
]


@given(program=_programs, n_ranks=st.integers(3, MAX_RANKS),
       device=st.sampled_from([FtSockChannel, NemesisChannel, ChVChannel]))
@example(program=GATES_AND_HANDSHAKE, n_ranks=3, device=FtSockChannel)
@example(program=HOP_AND_HARVEST, n_ranks=3, device=ChVChannel)
@example(program=STOPPER, n_ranks=3, device=NemesisChannel)
@example(program=ISEND_THEN_SEND, n_ranks=3, device=ChVChannel)
@settings(max_examples=150, deadline=None)
def test_send_chain_equals_process_sends(program, n_ranks, device):
    race(*rigs(n_ranks, device), program, RULES)


#: ft-sock: rank 0's blocking send to rank 1 is connecting when rank 1's
#: isend to rank 0 (carried over a side connection) queues behind the same
#: handshake, and rank 0 is killed before it ends
KILL_MID_HANDSHAKE = [
    (0, [("send", 0, 1, 0.0, None),
         ("side", 1, 0, 0.0, ("isend", 1, 0, 0.0, None)),
         ("side", 2, 0, 1000.0, ("kill", 0, 0))]),
]

#: ft-sock: rank 0's send waits at its closed gate to rank 1 when the link
#: breaks; the gate reopens on the broken link
BROKEN_AT_GATE = [
    (0, [("send", 0, 1, 0.0, None)]),
    (10, [("freeze", 0, 1), ("send", 0, 1, 96.0, None)]),
    (11, [("break", 0, 1)]),
    (12, [("resume", 0, 0)]),
]


def witness_races():
    for program, device in [(GATES_AND_HANDSHAKE, FtSockChannel),
                            (HOP_AND_HARVEST, ChVChannel),
                            (STOPPER, NemesisChannel),
                            (KILL_MID_HANDSHAKE, FtSockChannel),
                            (BROKEN_AT_GATE, FtSockChannel),
                            (ISEND_THEN_SEND, NemesisChannel)]:
        yield (*rigs(3, device), program)


# ------------------------------------------------------- the one difference
def aborting(device):
    return (recording(device, AbortingHandshake, GeneratorSend),
            SendEachEndpoint, SpecContext)


def test_the_old_handshake_died_with_its_first_asker():
    """Killing the rank whose blocking send ran the handshake aborted it,
    and threw that rank's ``Interrupt`` into the rank queued behind the
    link: its pusher died without a word.  The job's handshake runs to its
    end, and the queued ``isend`` goes out."""
    log = race(*rigs(3, FtSockChannel), KILL_MID_HANDSHAKE, RULES)
    assert [entry[3] for entry in log if entry[0] == "isend-done"] == [True]

    old_log, (channels, *_), _, _ = run_program(
        aborting(FtSockChannel), 3, KILL_MID_HANDSHAKE)
    assert [entry[3] for entry in old_log if entry[0] == "isend-done"] \
        == [False]
    assert [entry for entry in old_log if entry[0] == "wire"
            and entry[3][0] == "app"] == []
    assert channels[1][6] == []  # rank 1 has no link


# ----------------------------------------------------------------- negatives
class EarlyCommit:
    """Broken on purpose: a chained send commits before the connection
    takes its packet."""

    class _Chain(SendChain):
        __slots__ = ()

        def _put(self, end, extra_latency):
            on_commit, self.on_commit = self.on_commit, None
            on_commit(self._dst, self._packet)
            try:
                super()._put(end, extra_latency)
            finally:
                self.on_commit = on_commit

    def post(self, *args, **kwargs):
        chain = super().post(*args, **kwargs)
        if isinstance(chain, SendChain):  # not a send that went out inline
            chain.__class__ = self._Chain
        return chain


class Unstoppable:
    """Broken on purpose: ``shutdown()`` does not stop a send chain."""

    class _Chain(SendChain):
        __slots__ = ()

        def stop(self):
            pass

    def post(self, *args, **kwargs):
        chain = super().post(*args, **kwargs)
        if isinstance(chain, SendChain):  # not a send that went out inline
            chain.__class__ = self._Chain
        return chain


def broken(mixin, device):
    return recording(device, mixin), ChainEndpoint, ShippedContext


def test_witnesses_reach_the_situations_they_name():
    shipped, _ = designs(FtSockChannel)
    log, _, _, rig = run_program(shipped, 3, GATES_AND_HANDSHAKE)
    # rank 0's blocking send and isend waited at the gate until it opened
    assert ("commit", 12 * TICK, "job0", 0, 1) in log
    log, _, _, rig = run_program(shipped, 3, BROKEN_AT_GATE)
    assert ("closed", 12 * TICK, "job0", 0, None) in log
    shipped, _ = designs(ChVChannel)
    log, (channels, *_), _, _ = run_program(shipped, 3,
                                              HOP_AND_HARVEST)
    assert channels[0][2] and 1 in channels[3][6]  # job1 adopted 0<->1


def test_a_chain_that_commits_before_the_connection_takes_it_is_caught():
    """A send that waited at its gate while its link broke never reached
    the wire: the spec does not commit it."""
    good = race(*rigs(3, FtSockChannel), BROKEN_AT_GATE, RULES)
    bad, _, _, _ = run_program(broken(EarlyCommit, FtSockChannel), 3,
                               BROKEN_AT_GATE)
    assert bad != good
    assert ("commit", 12 * TICK, "job0", 0, 1) in bad
    assert ("commit", 12 * TICK, "job0", 0, 1) not in good


def test_a_chain_that_shutdown_does_not_stop_is_caught():
    """PR 29's send on a harvested link: an ``isend`` of the killed
    incarnation, waiting for its daemon hop, puts its packet on a survivor
    link the next incarnation adopted."""
    good = race(*rigs(3, ChVChannel), HOP_AND_HARVEST, RULES)
    bad, _, _, _ = run_program(broken(Unstoppable, ChVChannel), 3,
                               HOP_AND_HARVEST)
    assert bad != good
    stale = [entry for entry in bad if entry[0] == "packet"
             and entry[2] == "job1" and entry[4] == 0]
    assert stale and not [entry for entry in good if entry[0] == "packet"
                          and entry[2] == "job1" and entry[4] == 0]


class DeferredContext(LoggingCommit, DeferredStartContext):
    __slots__ = ()


def commits(log, rank):
    """The op ids job0's rank ``rank`` committed, in commit order."""
    return [entry[4] for entry in log
            if entry[0] == "commit" and entry[2:4] == ("job0", rank)]


@pytest.mark.parametrize("device", [FtSockChannel, NemesisChannel,
                                    ChVChannel])
def test_a_channel_that_defers_an_isend_is_caught(device):
    """The start rule as it was: an isend that has to wait takes its
    sequence number and its first step one URGENT step late, and the
    blocking send posted behind it leaves first."""
    good = race(*rigs(3, device), ISEND_THEN_SEND, RULES)
    bad, _, _, _ = run_program(
        (recording(device, DeferredStart), ChainEndpoint, DeferredContext),
        3, ISEND_THEN_SEND)
    assert bad != good
    # rank 1 handles rank 0's packets in sequence order either way ...
    for log in (good, bad):
        assert [entry[5] for entry in log if entry[0] == "packet"
                and entry[2:4] == ("job0", 1)] == [1, 2, 3, 4]
    # ... but the first isend (op 0) is numbered and committed after the
    # send posted behind it (op 1)
    assert commits(good, 0) == [0, 1, 2, 3]
    assert commits(bad, 0)[:2] == [1, 0]


class EarlyContext(LoggingCommit, EarlyIsend):
    __slots__ = ()


@pytest.mark.parametrize("device, chained", [(FtSockChannel, 1),
                                             (NemesisChannel, 1),
                                             (ChVChannel, 2)])
def test_an_isend_that_completes_when_its_packet_left_is_caught(device,
                                                                chained):
    """An isend that had to wait (the first one, before the link was up;
    on ch_v both, each behind its daemon hop) completes one step after its
    packet left, where the pusher ended, not in the pop of its
    transmit-complete event: that step orders what its waiter does next
    among the instant's other events (Vcl's daemon order on ch_v)."""
    good = race(*rigs(3, device), ISEND_THEN_SEND, RULES)
    shipped, _ = designs(device)
    _, _, pops, _ = run_program(shipped, 3, ISEND_THEN_SEND)
    bad, _, bad_pops, _ = run_program(
        (recording(device), ChainEndpoint, EarlyContext), 3, ISEND_THEN_SEND)
    # its done event is the one pop it lacks
    done = [pop for pop in pops if pop[2] == "isend:r0->r1"]
    assert len(done) == chained
    assert [pop for pop in pops if pop not in done] == bad_pops
    if device is not ChVChannel:
        # the first isend completes behind the send posted after it, which
        # returns in the pop of its own transmit-complete event; early,
        # ahead of it
        assert done_order(good)[:2] == ["returned", "isend-done"]
        assert done_order(bad)[:2] == ["isend-done", "returned"]


def done_order(log):
    """The isends' completions and the blocking sends' returns, in the
    order they happened."""
    return [entry[0] for entry in log if entry[0] in ("isend-done",
                                                      "returned")]
