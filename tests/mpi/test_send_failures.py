"""One failure rule for every application send.

A send that fails inside its post raises ``ConnectionError`` at the post;
one that fails later raises it at the wait: a blocking ``send`` and an
``isend`` alike (``MPI_Isend`` and ``MPI_Wait`` report errors), and the
application wrapper reports the closure once, as for a failed receive.
Rank 0 makes one send to rank 1 in each way it can fail:

* inside the post, on the inline path: its pipe to rank 1 broke, with the
  link up;
* inside the post, on the chained path: the connect is refused (rank 1's
  node is gone and no link was up);
* later, before the wire: it waits at a frozen destination when its pipe
  breaks, and fails once the freeze lifts;
* later, after the wire: its pipe is flushed while the message is in
  flight (what a recovery does to a survivor link), so its
  transmit-complete event fails;
* later, after the wire: its pipe breaks while the message is in flight,
  and its transmit-complete event fails the same way.

Only rank 0's outgoing pipe breaks, so the closure rank 1 observes is
rank 1's, and rank 0 has exactly the one report its application makes.
"""

import pytest

from repro.mpi import FtSockChannel

from tests.mpi.conftest import make_job

#: rank 0's send: its size, and what happens to it (at the instant given)
CASES = {
    "inline-broken-pipe": (8.0, "post"),
    "refused-connect": (8.0, "post"),
    "broken-at-freeze": (8.0, "wait"),
    "flushed-in-flight": (4e6, "wait"),
    "broken-in-flight": (4e6, "wait"),
}


def _run(sim, kind, case):
    nbytes, _ = CASES[case]
    where = []

    def app(ctx):
        if ctx.rank == 1:
            yield from ctx.compute(5.0)
            return
        if case != "refused-connect":
            yield from ctx.send(1, 0, None, 8.0)  # the link is up
        yield from ctx.compute(1.0)
        if case == "flushed-in-flight":  # once the post put it on the wire
            ctx.sim.call_at(1e-5, lambda: out().flush())
        elif case == "broken-in-flight":
            ctx.sim.call_at(1e-5, lambda: out().break_())
        pops = ctx.sim.events_processed
        try:
            if kind == "isend":
                request = ctx.isend(1, 0, None, nbytes)
                where.append("post")
                yield from request.wait()
            else:
                yield from ctx.send(1, 0, None, nbytes)
        except ConnectionError:
            # a blocking send that raised before any pop raised at its post
            if kind == "send" and ctx.sim.events_processed == pops:
                where.append("post")
            where.append("raised")
            raise

    def out():
        """Rank 0's pipe to rank 1."""
        return job.channels[0].conns[1]._out

    job, net = make_job(sim, app, size=2)
    reports = []
    job.failure_listener = lambda rank, peer: reports.append((rank, peer))
    job.start()
    if case == "inline-broken-pipe":
        sim.call_at(0.5, lambda: out().break_())
    elif case == "refused-connect":
        sim.call_at(0.5, lambda: net.fail_node(job.endpoints[1].node))
    elif case == "broken-at-freeze":
        sim.call_at(0.5, job.channels[0].freeze_sends, [1])
        sim.call_at(1.5, lambda: out().break_())
        sim.call_at(2.0, job.channels[0].resume_sends)
    sim.run(until=10.0)
    return where, [peer for rank, peer in reports if rank == 0]


@pytest.mark.parametrize("kind", ["send", "isend"])
@pytest.mark.parametrize("case", list(CASES))
def test_a_failed_send_raises_at_its_post_or_its_wait(sim, kind, case):
    where, reports = _run(sim, kind, case)
    expected = CASES[case][1]
    if kind == "send":
        # the post and the wait are one call; the post raised when no pop
        # came between it and the error
        assert where == (["post", "raised"] if expected == "post"
                         else ["raised"])
    else:
        assert where == (["raised"] if expected == "post"
                         else ["post", "raised"])
    assert reports == [None]  # the application's report, and only it


def test_the_in_flight_case_fails_a_message_on_the_wire(sim):
    """The flushed-in-flight case fails after the wire: the packet was put
    before the flush, and its transmit-complete event fails."""
    posted = []

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, 0, None, 8.0)
            yield from ctx.compute(1.0)
            ctx.sim.call_at(1e-5, job.channels[0].conns[1]._out.flush)
            posted.append(ctx.isend(1, 0, None,
                                    CASES["flushed-in-flight"][0]).posted)
            yield from ctx.compute(1.0)
        else:
            yield from ctx.compute(5.0)

    job, _ = make_job(sim, app, size=2, channel_cls=FtSockChannel)
    job.start()
    sim.run(until=10.0)
    assert posted[0].processed and not posted[0].ok
