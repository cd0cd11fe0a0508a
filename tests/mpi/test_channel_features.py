"""Channel-level features the checkpoint protocols rely on:
send gates, receive freezing, the Nemesis stopper, failure propagation."""

import pytest

from repro.mpi import ChVChannel, FtSockChannel, NemesisChannel
from repro.mpi.message import MarkerPacket

from tests.mpi.conftest import make_job, run_job


def test_send_gate_blocks_app_messages(sim):
    events = []

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.compute(0.5)  # gate closes at t=0.2
            yield from ctx.send(1, tag=1, data="late", nbytes=8)
            events.append(("sent", ctx.sim.now))
        else:
            yield from ctx.recv(0, tag=1)
            events.append(("recvd", ctx.sim.now))

    job, _ = make_job(sim, app, size=2)
    job.start()
    sim.call_at(0.2, job.channels[0].send_gate(1).close)
    sim.call_at(2.0, job.channels[0].resume_sends)
    sim.run_until_complete(job.completed)
    times = dict(events)
    assert times["sent"] >= 2.0
    assert times["recvd"] >= 2.0


def test_control_packets_bypass_gates(sim):
    got = []

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.compute(0.5)

            def _fire():
                pass

            # Send a marker through the closed gate.
            ctx.channel.post_control([(1, MarkerPacket(0, wave=1))],
                                     "marker:r0", defer=False)
        else:
            yield from ctx.compute(1.0)

    class Sink:
        def on_control(self, packet):
            got.append((packet.wave, packet.src))

        def on_app_packet(self, packet):
            pass

    job, _ = make_job(sim, app, size=2)
    job.channels[1].protocol = Sink()
    job.start()
    sim.call_at(0.1, job.channels[0].send_gate(1).close)
    sim.run_until_complete(job.completed)
    assert got == [(1, 0)]


def test_freeze_delays_app_delivery(sim):
    arrival = {}

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, tag=1, data="frozen", nbytes=8)
        else:
            data = yield from ctx.recv(0, tag=1)
            arrival["t"] = ctx.sim.now
            arrival["data"] = data

    job, _ = make_job(sim, app, size=2)
    job.channels[1].freeze_source(0)
    job.start()
    sim.call_at(3.0, job.channels[1].thaw_sources)
    sim.run_until_complete(job.completed)
    assert arrival["t"] >= 3.0
    assert arrival["data"] == "frozen"


def test_thaw_preserves_arrival_order(sim):
    received = []

    def app(ctx):
        if ctx.rank == 0:
            for i in range(5):
                yield from ctx.send(1, tag=1, data=i, nbytes=8)
        else:
            for _ in range(5):
                received.append((yield from ctx.recv(0, tag=1)))

    job, _ = make_job(sim, app, size=2)
    job.channels[1].freeze_source(0)
    job.start()
    sim.call_at(1.0, job.channels[1].thaw_sources)
    sim.run_until_complete(job.completed)
    assert received == list(range(5))


def test_nemesis_stopper_blocks_all_destinations(sim):
    sent_times = {}

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.compute(0.2)
            for dst in (1, 2):
                yield from ctx.send(dst, tag=1, data="x", nbytes=8)
                sent_times[dst] = ctx.sim.now
        else:
            yield from ctx.recv(0, tag=1)

    job, _ = make_job(sim, app, size=3, channel_cls=NemesisChannel)
    job.start()
    sim.call_at(0.1, job.channels[0].enqueue_stopper)
    sim.call_at(1.5, job.channels[0].dequeue_stopper)
    sim.run_until_complete(job.completed)
    assert all(t >= 1.5 for t in sent_times.values())


def test_channel_shutdown_fails_blocked_recv(sim):
    outcome = {}

    def app(ctx):
        if ctx.rank == 0:
            try:
                yield from ctx.recv(1, tag=1)
            except ConnectionError:
                outcome["error_at"] = ctx.sim.now
        else:
            yield from ctx.compute(10.0)

    job, _ = make_job(sim, app, size=2)
    job.start()
    sim.call_at(2.0, job.channels[0].shutdown)
    sim.run()
    assert outcome["error_at"] == 2.0


def test_peer_node_failure_reported(sim):
    reports = []

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.recv(1, tag=1)  # never satisfied
        else:
            yield from ctx.send(0, tag=1, data=None, nbytes=8)
            yield from ctx.compute(100.0)

    job, net = make_job(sim, app, size=2)
    job.failure_listener = lambda rank, peer: reports.append((sim.now, rank, peer))
    job.start()
    # Let the connection establish, then kill node of rank 1.
    sim.call_at(5.0, lambda: net.fail_node(job.endpoints[1].node))
    sim.run(until=6.0)
    assert any(r[0] == 5.0 for r in reports)
    kill_ranks = {r[1] for r in reports}
    assert 0 in kill_ranks
    job.kill()
    sim.run()


def test_job_kill_interrupts_everything(sim):
    def app(ctx):
        yield from ctx.compute(1000.0)

    job, _ = make_job(sim, app, size=3)
    job.start()
    sim.call_at(1.0, job.kill)
    sim.run()
    assert job.killed
    assert not job.completed.triggered
    assert all(not p.alive for p in job.app_processes)


def test_eager_connect_builds_mesh(sim):
    def app(ctx):
        yield from ctx.compute(1.0)

    job, _ = make_job(sim, app, size=4, channel_cls=ChVChannel)
    run_job(sim, job)
    # every pair connected even though the app never communicated
    for rank in range(4):
        peers = set(job.channels[rank].conns)
        assert peers == set(range(4)) - {rank}


def test_lazy_connect_builds_nothing_without_traffic(sim):
    def app(ctx):
        yield from ctx.compute(1.0)

    job, _ = make_job(sim, app, size=4, channel_cls=FtSockChannel)
    run_job(sim, job)
    assert all(not ch.conns for ch in job.channels)
