"""Tests of the runtime environments: ssh, dispatcher, FTPM."""

import pytest

from repro.runtime import (
    Dispatcher,
    FTPM,
    ScaleLimitError,
    SELECT_FD_LIMIT,
    SOCKETS_PER_PROCESS,
    SshSpawner,
)
from repro.runtime.ftpm import FTPM_MAX_PROCESSES


# ------------------------------------------------------------------- ssh
def test_sequential_ssh_delays():
    ssh = SshSpawner(concurrency=1, per_spawn=0.5)
    assert ssh.delays(3) == [0.5, 1.0, 1.5]


def test_parallel_ssh_delays():
    ssh = SshSpawner(concurrency=4, per_spawn=1.0)
    assert ssh.delays(6) == [1.0, 1.0, 1.0, 1.0, 2.0, 2.0]


def test_ssh_zero_processes():
    assert SshSpawner().delays(0) == []


def test_ssh_validation():
    with pytest.raises(ValueError):
        SshSpawner(concurrency=0)
    with pytest.raises(ValueError):
        SshSpawner(per_spawn=-1.0)


def test_parallel_much_faster_than_sequential():
    n = 256
    sequential = SshSpawner(concurrency=1).delays(n)[-1]
    parallel = SshSpawner(concurrency=32).delays(n)[-1]
    assert parallel <= sequential / 16


# ------------------------------------------------------------ dispatcher
def test_dispatcher_select_limit():
    dispatcher = Dispatcher()
    limit = dispatcher.max_processes()
    # the paper: "this precludes tests with more than 300 processes"
    assert 300 <= limit <= SELECT_FD_LIMIT // SOCKETS_PER_PROCESS
    dispatcher.validate(limit)  # ok
    with pytest.raises(ScaleLimitError):
        dispatcher.validate(400)


def test_dispatcher_spawns_sequentially():
    dispatcher = Dispatcher()
    delays = dispatcher.spawn_delays(4)
    assert delays == sorted(delays)
    assert len(set(delays)) == 4


# ------------------------------------------------------------------ ftpm
def test_ftpm_scales_past_dispatcher():
    ftpm = FTPM()
    ftpm.validate(1024)  # the paper's design target
    with pytest.raises(ScaleLimitError):
        ftpm.validate(FTPM_MAX_PROCESSES + 1)


def test_ftpm_admits_exactly_its_cap():
    FTPM().validate(FTPM_MAX_PROCESSES)


def test_ftpm_spawns_32_at_a_time_and_cleans_up_before_a_respawn():
    ftpm = FTPM()
    assert ftpm.spawn_delays(40) == [0.25] * 32 + [0.5] * 8
    assert ftpm.respawn_lead_time() == 1.0
