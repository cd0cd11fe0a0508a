"""Unit tests for the checkpoint server."""

import pytest

from repro.ft import CheckpointServer, assign_replicas
from repro.ft.image import CheckpointImage
from repro.net import ClusterNetwork
from repro.net.topology import Endpoint
from repro.sim import Simulator


@pytest.fixture
def setup():
    sim = Simulator(seed=1)
    net = ClusterNetwork(sim, n_nodes=3)
    server = CheckpointServer(sim, net, net.nodes[2], name="cs")
    net.nodes[2].service = True
    rank_ep = Endpoint(net.nodes[0], 0)
    return sim, net, server, rank_ep


def image(rank=0, wave=1, nbytes=1e6):
    return CheckpointImage(rank, wave, nbytes, snapshot=None)


def sealed_image(rank=0, wave=1, nbytes=1e6):
    img = image(rank, wave, nbytes)
    img.seal()
    return img


def test_store_image_and_ack(setup):
    sim, net, server, rank_ep = setup
    end = server.open_connection(rank_ep)
    img = image()

    def sender():
        end.send(("image", 0, 1, img, True), nbytes=img.nbytes)
        ack = yield end.recv()
        return (ack, sim.now)

    ack, when = sim.run_until_complete(sim.process(sender()))
    assert ack == ("ack", "image", 0, 1)
    # transfer of 1 MB at GigE plus latency
    assert when >= 1e6 / net.fabric.bandwidth
    # the server stores its own replica copy, sealed and time-stamped; the
    # sender's in-memory image is not aliased or mutated
    stored = server.storage[1][0]
    assert stored is not img
    assert (stored.rank, stored.wave, stored.nbytes) == (0, 1, 1e6)
    assert stored.stored_at is not None and stored.sealed and stored.verify()
    assert img.stored_at is None and not img.sealed
    assert server.bytes_received == 1e6


def test_log_attaches_to_image(setup):
    sim, net, server, rank_ep = setup
    end = server.open_connection(rank_ep)
    img = image()

    def sender():
        end.send(("image", 0, 1, img, False), nbytes=img.nbytes)
        yield end.recv()
        assert not server.storage[1][0].sealed  # log still outstanding
        end.send(("log", 0, 1, ["pkt1", "pkt2"], 555.0), nbytes=555.0)
        ack = yield end.recv()
        return ack

    ack = sim.run_until_complete(sim.process(sender()))
    assert ack == ("ack", "log", 0, 1)
    stored = server.storage[1][0]
    assert stored.logged_messages == ["pkt1", "pkt2"]
    assert stored.logged_bytes == 555.0
    # the log completes the record: sealed, checksum covers the log
    assert stored.sealed and stored.verify()


def test_broken_connection_discards_partial_record(setup):
    sim, net, server, rank_ep = setup
    end = server.open_connection(rank_ep)
    img = image()

    def sender():
        end.send(("image", 0, 1, img, False), nbytes=img.nbytes)
        yield end.recv()
        end.connection.break_()

    sim.run_until_complete(sim.process(sender()))
    sim.run()
    # the upload never completed (no log, no seal): a racing commit must not
    # be able to bless the truncated record
    assert 0 not in server.storage.get(1, {})


def test_broken_connection_keeps_sealed_records(setup):
    sim, net, server, rank_ep = setup
    end = server.open_connection(rank_ep)

    def sender():
        end.send(("image", 0, 1, image(), True), nbytes=1e6)
        yield end.recv()
        end.connection.break_()

    sim.run_until_complete(sim.process(sender()))
    sim.run()
    assert server.storage[1][0].sealed


def test_commit_garbage_collects(setup):
    sim, net, server, rank_ep = setup
    server.storage = {1: {0: sealed_image(wave=1)}, 2: {0: sealed_image(wave=2)}}
    server.commit(2)
    assert server.committed_wave == 2
    assert list(server.storage) == [2]
    # stale commit is a no-op
    server.commit(1)
    assert server.committed_wave == 2


def test_gc_keep_retains_older_commits(setup):
    sim, net, server, rank_ep = setup
    server.gc_keep = 2
    server.storage = {w: {0: sealed_image(wave=w)} for w in (1, 2, 3)}
    server.commit(1)
    server.commit(2)
    # wave 1 is retained (gc_keep=2); wave 3 is in-flight, never collected
    assert sorted(server.storage) == [1, 2, 3]
    server.commit(3)
    assert sorted(server.storage) == [2, 3]
    assert server.committed_waves == [1, 2, 3]


def test_fetch_roundtrip(setup):
    sim, net, server, rank_ep = setup
    img = sealed_image(rank=3, wave=2, nbytes=2e6)
    server.storage = {2: {3: img}}
    end = server.open_connection(rank_ep)

    def fetcher():
        end.send(("fetch", 3, 2), nbytes=64)
        reply = yield end.recv()
        return (reply, sim.now)

    (kind, got, status), when = sim.run_until_complete(sim.process(fetcher()))
    assert kind == "image_data" and status == "ok" and got is img
    # the 2 MB image had to cross the wire back
    assert when >= 2e6 / net.fabric.bandwidth


def test_fetch_missing_returns_none(setup):
    sim, net, server, rank_ep = setup
    end = server.open_connection(rank_ep)

    def fetcher():
        end.send(("fetch", 9, 9), nbytes=64)
        reply = yield end.recv()
        return reply

    kind, got, status = sim.run_until_complete(sim.process(fetcher()))
    assert kind == "image_data" and got is None and status == "missing"


def test_fetch_refuses_unsealed_and_corrupt_records(setup):
    sim, net, server, rank_ep = setup
    partial = image(rank=0, wave=1)          # never sealed
    damaged = sealed_image(rank=1, wave=1)
    damaged.corrupt()
    server.storage = {1: {0: partial, 1: damaged}}
    end = server.open_connection(rank_ep)

    def fetcher():
        replies = []
        for rank in (0, 1):
            end.send(("fetch", rank, 1), nbytes=64)
            replies.append((yield end.recv()))
        return replies

    replies = sim.run_until_complete(sim.process(fetcher()))
    assert replies[0] == ("image_data", None, "partial")
    assert replies[1] == ("image_data", None, "corrupt")


def test_peak_bytes_tracked(setup):
    sim, net, server, rank_ep = setup
    end = server.open_connection(rank_ep)

    def sender():
        end.send(("image", 0, 1, image(0, 1, 1e6), True), nbytes=1e6)
        yield end.recv()
        end.send(("image", 1, 1, image(1, 1, 3e6), True), nbytes=3e6)
        yield end.recv()

    sim.run_until_complete(sim.process(sender()))
    assert server.peak_stored_bytes == pytest.approx(4e6)
    assert server.stored_bytes() == pytest.approx(4e6)


def test_broken_connection_stops_serving(setup):
    sim, net, server, rank_ep = setup
    end = server.open_connection(rank_ep)
    end.connection.break_()
    sim.run()  # the serve loop must exit cleanly


def test_assign_replicas_ring_order(setup):
    sim, net, server, _ = setup
    s2 = CheckpointServer(sim, net, net.nodes[1], name="cs2")
    s3 = CheckpointServer(sim, net, net.nodes[0], name="cs3")
    servers = [server, s2, s3]
    mapping = assign_replicas(4, servers, replication=2)
    assert mapping[0] == [server, s2]
    assert mapping[1] == [s2, s3]
    assert mapping[2] == [s3, server]
    assert mapping[3] == [server, s2]
    # K=1 is exactly the unreplicated layout: primaries round-robin
    other = CheckpointServer(sim, net, net.nodes[1], name="cs4")
    singles = assign_replicas(5, [server, other], replication=1)
    assert singles == {0: [server], 1: [other], 2: [server], 3: [other],
                       4: [server]}


def test_assign_replicas_validates_k(setup):
    sim, net, server, _ = setup
    with pytest.raises(ValueError):
        assign_replicas(2, [server], replication=2)
    with pytest.raises(ValueError):
        assign_replicas(2, [server], replication=0)
    with pytest.raises(ValueError):
        assign_replicas(2, [], replication=1)


def test_image_checksum_lifecycle():
    img = CheckpointImage(2, 3, 5e6, snapshot=None)
    assert not img.verify()          # unsealed records never verify
    img.seal()
    assert img.verify()
    img.logged_bytes = 1.0           # post-seal mutation breaks the checksum
    assert not img.verify()
    img.logged_bytes = 0.0
    assert img.verify()
    img.corrupt()
    assert img.sealed and not img.verify()


def test_replica_copy_is_independent():
    img = CheckpointImage(0, 1, 1e6, snapshot=None,
                          logged_messages=["p"], logged_bytes=10.0)
    img.seal()
    copy = img.replica()
    assert copy is not img and copy.verify()
    copy.corrupt()
    copy.logged_messages.append("q")
    assert img.verify() and img.logged_messages == ["p"]
