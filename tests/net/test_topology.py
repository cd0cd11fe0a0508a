"""Unit tests for cluster/grid topologies, placement and fabrics."""

import pytest

from repro.net import (
    ClusterNetwork,
    GIGABIT_ETHERNET,
    GRID5000_WAN,
    GridNetwork,
    MYRINET_GM,
    grid5000,
)
from repro.net.node import Disk
from repro.sim import Simulator


def sites_used(endpoints):
    """The sites ``endpoints`` sit on, in placement order."""
    return list(dict.fromkeys(e.node.cluster for e in endpoints))


# ------------------------------------------------------------- placement
def test_place_one_per_node_first():
    sim = Simulator()
    net = ClusterNetwork(sim, n_nodes=8)
    eps = net.place(8)
    assert len({e.node.name for e in eps}) == 8
    assert all(e.slot == 0 for e in eps)


def test_place_spills_to_second_slot():
    sim = Simulator()
    net = ClusterNetwork(sim, n_nodes=8)
    eps = net.place(12)
    slots = [e.slot for e in eps]
    assert slots.count(0) == 8 and slots.count(1) == 4


def test_place_explicit_two_per_node():
    sim = Simulator()
    net = ClusterNetwork(sim, n_nodes=8)
    eps = net.place(16, procs_per_node=2)
    assert len({e.node.name for e in eps}) == 8


def test_place_too_many_raises():
    sim = Simulator()
    net = ClusterNetwork(sim, n_nodes=2, n_slots=2)
    with pytest.raises(ValueError):
        net.place(5)


def test_cluster_needs_nodes():
    with pytest.raises(ValueError):
        ClusterNetwork(Simulator(), n_nodes=0)


# ------------------------------------------------------------------ grid
def test_grid5000_composition():
    sim = Simulator()
    grid = grid5000(sim)
    assert sum(len(c.nodes) for c in grid.clusters.values()) == 544
    assert set(grid.clusters) == {
        "bordeaux", "lille", "orsay", "rennes", "sophia", "toulouse",
    }


def test_grid_place_fills_sites_in_order():
    sim = Simulator()
    grid = grid5000(sim)
    eps = grid.place(60)
    assert sites_used(eps) == ["bordeaux", "lille"]


def test_grid_place_529():
    sim = Simulator()
    grid = grid5000(sim)
    eps = grid.place(529)
    assert len(eps) == 529
    assert len(sites_used(eps)) >= 5


def test_grid_too_small():
    sim = Simulator()
    grid = GridNetwork(sim, [("a", 1)], n_slots=1)
    with pytest.raises(ValueError):
        grid.place(2)


def test_intercluster_latency_dominates():
    sim = Simulator()
    grid = GridNetwork(sim, [("a", 2), ("b", 2)])
    a = grid.place(1)[0]
    b_node = grid.clusters["b"].nodes[0]
    from repro.net.topology import Endpoint
    b = Endpoint(b_node, 0)
    conn = grid.connect(a, b)
    ea, eb = conn.end_a, conn.end_b

    def roundtrip():
        ea.send("x", nbytes=0)
        yield eb.recv()
        return sim.now

    t = sim.run_until_complete(sim.process(roundtrip()))
    assert t == pytest.approx(GRID5000_WAN.latency)
    assert t / GIGABIT_ETHERNET.latency == pytest.approx(100.0)


def test_intercluster_bandwidth_capped():
    sim = Simulator()
    grid = GridNetwork(sim, [("a", 2), ("b", 2)])
    from repro.net.topology import Endpoint
    a = Endpoint(grid.clusters["a"].nodes[0], 0)
    b = Endpoint(grid.clusters["b"].nodes[0], 0)
    conn = grid.connect(a, b)
    ea, eb = conn.end_a, conn.end_b
    nbytes = GRID5000_WAN.per_flow_cap  # exactly 1 s at the WAN cap

    def xfer():
        ea.send("bulk", nbytes=nbytes)
        yield eb.recv()
        return sim.now

    t = sim.run_until_complete(sim.process(xfer()))
    assert t == pytest.approx(1.0 + GRID5000_WAN.latency, rel=1e-3)


def test_intracluster_path_inside_grid_is_fast():
    sim = Simulator()
    grid = GridNetwork(sim, [("a", 3)])
    eps = grid.place(2)
    conn = grid.connect(eps[0], eps[1])
    ea, eb = conn.end_a, conn.end_b

    def ping():
        ea.send("x", nbytes=0)
        yield eb.recv()
        return sim.now

    t = sim.run_until_complete(sim.process(ping()))
    assert t == pytest.approx(GIGABIT_ETHERNET.latency)


# --------------------------------------------------------------- fabrics
def test_myrinet_transfer_takes_latency_plus_serialization():
    sim = Simulator()
    net = ClusterNetwork(sim, n_nodes=2, fabric=MYRINET_GM)
    conn = net.connect(*net.place(2))
    nbytes = MYRINET_GM.bandwidth  # exactly 1 s at the link rate

    def xfer():
        conn.end_a.send("bulk", nbytes=nbytes)
        yield conn.end_b.recv()
        return sim.now

    t = sim.run_until_complete(sim.process(xfer()))
    assert t == pytest.approx(1.0 + MYRINET_GM.latency, rel=1e-3)


def test_fabric_ratios_match_paper():
    """Sec. 5.4: ~20x bandwidth and ~100x latency between WAN and LAN."""
    assert GRID5000_WAN.latency / GIGABIT_ETHERNET.latency == pytest.approx(100.0)
    assert GIGABIT_ETHERNET.bandwidth / GRID5000_WAN.per_flow_cap == pytest.approx(20.0)


# ------------------------------------------------------------------ disk
def test_disk_serializes_writes():
    sim = Simulator()
    disk = Disk(sim, "d", write_bandwidth=100.0)

    def writer():
        yield disk.write(500.0)
        return sim.now

    p1 = sim.process(writer())
    p2 = sim.process(writer())
    sim.run()
    times = sorted([p1.value, p2.value])
    assert times == [pytest.approx(5.0), pytest.approx(10.0)]
    assert disk.bytes_written == 1000.0


def test_disk_read_write_bandwidths_differ():
    sim = Simulator()
    disk = Disk(sim, "d", write_bandwidth=100.0, read_bandwidth=200.0)

    def reader():
        yield disk.read(400.0)
        return sim.now

    assert sim.run_until_complete(sim.process(reader())) == pytest.approx(2.0)
    assert disk.bytes_read == 400.0


def test_disk_negative_size_rejected():
    sim = Simulator()
    disk = Disk(sim, "d")

    def bad():
        yield disk.write(-1.0)

    with pytest.raises(ValueError):
        sim.run_until_complete(sim.process(bad()))


def test_node_fail_and_restore():
    sim = Simulator()
    net = ClusterNetwork(sim, n_nodes=1)
    node = net.nodes[0]
    assert node.alive
    node.fail()
    assert not node.alive
    node.restore()
    assert node.alive
