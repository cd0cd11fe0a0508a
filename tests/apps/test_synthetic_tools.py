"""Tests of synthetic kernels, NetPIPE and trace analysis."""

import pytest

from repro.apps.synthetic import burst, ping_pong, token_ring
from repro.mpi import FtSockChannel, MPIJob
from repro.net import ClusterNetwork, GridNetwork
from repro.sim import Simulator
from repro.tools import linear_fit, run_netpipe, summarize


def run_app(app, size, seed=1):
    sim = Simulator(seed=seed)
    net = ClusterNetwork(sim, n_nodes=size)
    job = MPIJob(sim, net, net.place(size), app, FtSockChannel)
    job.start()
    elapsed = sim.run_until_complete(job.completed, limit=1e6)
    return sim, job, elapsed


# ------------------------------------------------------------- synthetic
def test_ping_pong_measures_rtts():
    sim, job, _ = run_app(ping_pong(10, 1000.0), 2)
    rtts = job.contexts[0].state["rtts"]
    assert len(rtts) == 10
    assert all(r > 0 for r in rtts)
    # steady-state round trips are faster than the first (handshake)
    assert min(rtts[1:]) < rtts[0]


def test_token_ring_order():
    sim, job, _ = run_app(token_ring(rounds=3), 5)
    assert job.contexts[0].state["token"] == 2  # last round's index


def test_burst_completes():
    sim, job, _ = run_app(burst(iters=4, nbytes=10_000, fan=3), 6)
    assert all(c.state["iteration"] == 4 for c in job.contexts)


# --------------------------------------------------------------- netpipe
def test_netpipe_intra_cluster():
    sim = Simulator(seed=1)
    net = ClusterNetwork(sim, n_nodes=2)
    a, b = net.place(2)
    samples = run_netpipe(sim, net, a, b, sizes=[8, 1024, 1024 * 1024])
    assert len(samples) == 3
    head = summarize(samples)
    # latency should be wire latency plus small per-message costs
    assert net.fabric.latency <= head["latency"] < 4 * net.fabric.latency
    # big transfers should approach fabric bandwidth
    assert head["bandwidth"] > 0.5 * net.fabric.bandwidth


def test_netpipe_matches_paper_wan_ratios():
    """Sec. 5.4: intra-cluster up to ~20x the bandwidth, ~100x less latency."""
    sim = Simulator(seed=1)
    net = GridNetwork(sim, [("a", 2), ("b", 2)])
    from repro.net.topology import Endpoint
    intra = run_netpipe(sim, net,
                        Endpoint(net.clusters["a"].nodes[0], 0),
                        Endpoint(net.clusters["a"].nodes[1], 0),
                        sizes=[8, 1024 * 1024])
    inter = run_netpipe(sim, net,
                        Endpoint(net.clusters["a"].nodes[0], 0),
                        Endpoint(net.clusters["b"].nodes[0], 0),
                        sizes=[8, 1024 * 1024])
    lat_ratio = summarize(inter)["latency"] / summarize(intra)["latency"]
    bw_ratio = summarize(intra)["bandwidth"] / summarize(inter)["bandwidth"]
    assert 30 <= lat_ratio <= 300
    assert 10 <= bw_ratio <= 30


# ---------------------------------------------------------- trace analysis
def test_linear_fit_recovers_line():
    fit = linear_fit([0, 1, 2, 3], [1.0, 3.0, 5.0, 7.0])
    assert fit.slope == pytest.approx(2.0)
    assert fit.intercept == pytest.approx(1.0)
    assert fit.r2 == pytest.approx(1.0)
    assert fit.predict(10) == pytest.approx(21.0)


def test_linear_fit_r2_below_one_with_noise():
    fit = linear_fit([0, 1, 2, 3], [0.0, 1.5, 1.7, 3.2])
    assert 0.8 < fit.r2 < 1.0


def test_linear_fit_validation():
    with pytest.raises(ValueError):
        linear_fit([1], [1])
    with pytest.raises(ValueError):
        linear_fit([1, 2], [1])
    with pytest.raises(ValueError, match="all have x = 3.0"):
        linear_fit([3.0, 3.0, 3.0], [1.0, 2.0, 4.0])
