"""Tests of the isend request: it wraps only the send's completion."""

from repro.mpi import Request
from repro.sim import Simulator

from tests.mpi.conftest import make_job, run_job


def test_replayed_request_is_born_complete():
    assert list(Request(None).wait()) == []


def test_request_waits_on_its_event():
    event = Simulator().event(name="sent")
    assert list(Request(event).wait()) == [event]


def test_isend_delivers_without_a_wait(sim):
    """The send commits when the payload is enqueued; the application
    need not wait on the request for the receiver to get it."""
    out = {}

    def app(ctx):
        if ctx.rank == 0:
            ctx.isend(1, tag=3, data="unwaited", nbytes=64)
        else:
            out["data"] = yield from ctx.recv(0, tag=3)

    job, _ = make_job(sim, app, size=2)
    run_job(sim, job)
    assert out["data"] == "unwaited"


def test_wait_twice_returns_both_times(sim):
    out = {}

    def app(ctx):
        if ctx.rank == 0:
            req = ctx.isend(1, tag=4, data=7, nbytes=1 << 20)
            yield from req.wait()
            first = ctx.sim.now
            yield from req.wait()
            out["times"] = (first, ctx.sim.now)
        else:
            yield from ctx.recv(0, tag=4)

    job, _ = make_job(sim, app, size=2)
    run_job(sim, job)
    first, second = out["times"]
    assert first > 0 and second == first
