"""Integration tests: point-to-point communication through jobs."""

import pytest

from repro.mpi import ANY_SOURCE, ChVChannel, FtSockChannel, NemesisChannel

from tests.mpi.conftest import make_job, run_job


def test_two_rank_roundtrip(sim):
    results = {}

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, tag=5, data={"k": 1}, nbytes=100)
            reply = yield from ctx.recv(1, tag=6)
            results["reply"] = reply
        else:
            data = yield from ctx.recv(0, tag=5)
            results["got"] = data
            yield from ctx.send(0, tag=6, data="ack", nbytes=10)

    job, _ = make_job(sim, app, size=2)
    run_job(sim, job)
    assert results == {"got": {"k": 1}, "reply": "ack"}


def test_many_messages_fifo(sim):
    received = []

    def app(ctx):
        if ctx.rank == 0:
            for i in range(50):
                yield from ctx.send(1, tag=1, data=i, nbytes=64)
        else:
            for _ in range(50):
                received.append((yield from ctx.recv(0, tag=1)))

    job, _ = make_job(sim, app, size=2)
    run_job(sim, job)
    assert received == list(range(50))


def test_isend_recv_matches_by_tag(sim):
    out = {}

    def app(ctx):
        if ctx.rank == 0:
            # each payload names the tag it was sent with
            reqs = [ctx.isend(1, tag=i, data=(i, i * i), nbytes=32)
                    for i in range(4)]
            for req in reqs:
                yield from req.wait()
        else:
            vals = []
            for tag in reversed(range(4)):
                vals.append((yield from ctx.recv(0, tag)))
            out["vals"] = vals

    job, _ = make_job(sim, app, size=2)
    run_job(sim, job)
    assert out["vals"] == [(3, 9), (2, 4), (1, 1), (0, 0)]


def test_recv_returns_the_sent_object(sim):
    payload = ("data", 7)  # a 2-tuple, which recv must not unpack
    out = {}

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, tag=2, data=payload, nbytes=64)
        else:
            out["got"] = yield from ctx.recv(0, tag=2)

    job, _ = make_job(sim, app, size=2)
    run_job(sim, job)
    assert out["got"] is payload


def test_any_source_recv(sim):
    seen = []

    def app(ctx):
        if ctx.rank == 0:
            for _ in range(2):
                seen.append((yield from ctx.recv(source=ANY_SOURCE, tag=3)))
        else:
            # each payload names its sender
            yield from ctx.compute(0.001 * ctx.rank)
            yield from ctx.send(0, tag=3, data=(ctx.rank, f"from{ctx.rank}"),
                                nbytes=16)

    job, _ = make_job(sim, app, size=3)
    run_job(sim, job)
    assert sorted(seen) == [(1, "from1"), (2, "from2")]


def test_compute_advances_time(sim):
    def app(ctx):
        yield from ctx.compute(2.5)

    job, _ = make_job(sim, app, size=1)
    t = run_job(sim, job)
    assert t == pytest.approx(2.5)


def test_update_mutates_state(sim):
    def app(ctx):
        ctx.update(lambda s: s.__setitem__("x", 10))
        got = ctx.update(lambda s: s["x"] + 1)
        assert got == 11
        yield from ctx.compute(0.0)

    job, _ = make_job(sim, app, size=1)
    run_job(sim, job)
    assert job.contexts[0].state["x"] == 10


@pytest.mark.parametrize("channel_cls", [FtSockChannel, ChVChannel, NemesisChannel])
def test_all_channels_roundtrip(sim, channel_cls):
    out = {}

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, tag=1, data="ping", nbytes=1000)
            out["pong"] = yield from ctx.recv(1, tag=2)
        else:
            out["ping"] = yield from ctx.recv(0, tag=1)
            yield from ctx.send(0, tag=2, data="pong", nbytes=1000)

    job, _ = make_job(sim, app, size=2, channel_cls=channel_cls)
    run_job(sim, job)
    assert out == {"ping": "ping", "pong": "pong"}


def test_ch_v_latency_higher_than_nemesis():
    """The daemon hops must make ch_v visibly slower for small messages."""
    def ping_app(ctx):
        if ctx.rank == 0:
            for _ in range(100):
                yield from ctx.send(1, tag=1, data=None, nbytes=8)
                yield from ctx.recv(1, tag=2)
        else:
            for _ in range(100):
                yield from ctx.recv(0, tag=1)
                yield from ctx.send(0, tag=2, data=None, nbytes=8)

    times = {}
    for cls in (ChVChannel, NemesisChannel):
        from repro.sim import Simulator
        sim = Simulator(seed=1)
        job, _ = make_job(sim, ping_app, size=2)
        # rebuild with the right channel class
        job, _ = make_job(sim, ping_app, size=2, channel_cls=cls)
        times[cls.channel_name] = run_job(sim, job)
    assert times["ch_v"] > 1.3 * times["nemesis"]


def test_send_to_self_not_supported_gracefully(sim):
    """Self-sends go through the loopback/memory path."""
    out = {}

    def app(ctx):
        req = ctx.isend(ctx.rank, tag=1, data="self", nbytes=8)
        out["data"] = yield from ctx.recv(ctx.rank, tag=1)
        yield from req.wait()

    job, _ = make_job(sim, app, size=1)
    run_job(sim, job)
    assert out["data"] == "self"


def test_job_requires_ranks(sim):
    from repro.mpi import MPIJob
    from repro.net import ClusterNetwork
    net = ClusterNetwork(sim, n_nodes=1)
    with pytest.raises(ValueError):
        MPIJob(sim, net, [], lambda ctx: None, FtSockChannel)


def test_job_double_start_rejected(sim):
    def app(ctx):
        yield from ctx.compute(0.0)

    job, _ = make_job(sim, app, size=1)
    job.start()
    with pytest.raises(RuntimeError):
        job.start()
    sim.run()


def test_establish_on_a_harvested_link_raises(sim):
    """A pair whose link was up and was harvested has lost its ends: asking
    for it again raises, while a pair that is still up is connected and a
    pair never connected starts a handshake.  A channel that was shut down
    has lost its ends too."""

    def ring(ctx):  # on four ranks: pairs (0, 1), (1, 2), (2, 3), (0, 3)
        right, left = (ctx.rank + 1) % ctx.size, (ctx.rank - 1) % ctx.size
        request = ctx.isend(right, 0, None, 8.0)
        yield from ctx.recv(left, 0)
        yield from request.wait()

    job, _ = make_job(sim, ring, size=4)
    run_job(sim, job)
    assert job._links == {}  # every pair is recorded by its ends alone
    assert sorted(job.harvest_links([0, 1, 2])) == [(0, 1), (1, 2)]
    for a, b in ((0, 1), (1, 0), (2, 1)):
        with pytest.raises(ConnectionResetError,
                           match=f"link {a}<->{b} vanished during establish"):
            job.establish(a, b)
    assert job.establish(2, 3) is None
    handshake = job.establish(0, 2)
    assert handshake is not None and job.establish(2, 0) is job._links[(0, 2)]
    sim.run()
    assert job._links == {} and job.establish(0, 2) is None

    job.channels[3].shutdown()
    with pytest.raises(ConnectionResetError, match="vanished"):
        job.establish(3, 2)
    assert job.establish(2, 3) is None  # rank 2 still holds its end
    assert job.establish(3, 1) is not None  # never up: a handshake


def test_mesh_builder_reports_a_task_killed_under_it(sim):
    """A rank whose task dies (its channel shut down, its node alive) while
    the ch_v mesh builder still has to reach a pair it had connected
    lazily is reported like a dead node's rank, and the builder parks
    instead of raising out of the run."""

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.send(3, 0, None, 8.0)
        elif ctx.rank == 3:
            yield from ctx.recv(0, 0)

    job, _ = make_job(sim, app, size=4, channel_cls=ChVChannel)
    reports = []
    job.failure_listener = lambda rank, peer: reports.append((rank, peer))
    job.start()

    def killer():
        while 3 not in job.channels[0].conns:
            yield sim.timeout(1e-6)
        job.channels[0].shutdown()

    sim.process(killer())
    sim.run(until=5.0)
    assert (0, None) in reports  # beside the peers that saw 0 close
