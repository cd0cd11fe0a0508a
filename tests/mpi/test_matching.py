"""Unit tests for the matching engine."""

import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG
from repro.mpi.matching import MatchingEngine
from repro.mpi.message import AppPacket
from repro.sim import Simulator


def pkt(src=0, tag=0, data="d", nbytes=10.0, seq=0):
    return AppPacket(src, tag, data, nbytes, seq)


@pytest.fixture
def eng():
    return MatchingEngine(Simulator(), rank=9)


def value_of(event):
    assert event.triggered
    return event.value


def test_posted_recv_matches_arrival(eng):
    ev = eng.post_recv(source=3, tag=7)
    assert not ev.triggered
    eng.deliver(pkt(src=3, tag=7, data="x"))
    assert value_of(ev) == "x"


def test_a_matched_receive_hands_over_the_payload_itself(eng):
    payload = ("a", "tuple")  # a 2-tuple payload is not an envelope
    posted = eng.post_recv(source=1, tag=1)
    eng.deliver(pkt(src=1, tag=1, data=payload))
    eng.deliver(pkt(src=1, tag=2, data=payload))
    assert value_of(posted) is payload
    assert value_of(eng.post_recv(source=1, tag=2)) is payload


def test_unexpected_then_recv(eng):
    eng.deliver(pkt(src=1, tag=2, data="early"))
    ev = eng.post_recv(source=1, tag=2)
    assert value_of(ev) == "early"
    assert not eng.unexpected


def test_wildcard_source(eng):
    ev = eng.post_recv(source=ANY_SOURCE, tag=5)
    eng.deliver(pkt(src=4, tag=5, data="from4"))
    assert value_of(ev) == "from4"


def test_wildcard_tag(eng):
    eng.deliver(pkt(src=2, tag=13, data="t"))
    ev = eng.post_recv(source=2, tag=ANY_TAG)
    assert value_of(ev) == "t"


def test_non_matching_stays_unexpected(eng):
    ev = eng.post_recv(source=1, tag=1)
    eng.deliver(pkt(src=2, tag=1))
    assert not ev.triggered
    assert len(eng.unexpected) == 1
    eng.deliver(pkt(src=1, tag=1))
    assert ev.triggered


def test_fifo_among_unexpected(eng):
    eng.deliver(pkt(src=1, tag=0, data="first", seq=1))
    eng.deliver(pkt(src=1, tag=0, data="second", seq=2))
    ev1 = eng.post_recv(source=1, tag=0)
    ev2 = eng.post_recv(source=1, tag=0)
    assert value_of(ev1) == "first"
    assert value_of(ev2) == "second"


def test_fifo_among_posted(eng):
    ev1 = eng.post_recv(source=ANY_SOURCE, tag=ANY_TAG)
    ev2 = eng.post_recv(source=ANY_SOURCE, tag=ANY_TAG)
    eng.deliver(pkt(data="a"))
    assert ev1.triggered and not ev2.triggered
    eng.deliver(pkt(data="b"))
    assert value_of(ev2) == "b"


def test_specific_recv_skips_older_non_matching(eng):
    eng.deliver(pkt(src=1, tag=1, data="older"))
    eng.deliver(pkt(src=1, tag=2, data="wanted"))
    ev = eng.post_recv(source=1, tag=2)
    assert value_of(ev) == "wanted"
    assert [p.data for p in eng.unexpected] == ["older"]


def test_any_source_takes_oldest_across_sources(eng):
    eng.deliver(pkt(src=5, tag=0, data="from5"))
    eng.deliver(pkt(src=2, tag=0, data="from2"))
    ev = eng.post_recv(source=ANY_SOURCE, tag=0)
    assert value_of(ev) == "from5"


def test_arrival_matches_oldest_compatible_posted(eng):
    specific = eng.post_recv(source=4, tag=1)
    wildcard = eng.post_recv(source=ANY_SOURCE, tag=1)
    eng.deliver(pkt(src=3, tag=1, data="x"))
    assert wildcard.triggered and not specific.triggered
    eng.deliver(pkt(src=4, tag=1, data="y"))
    assert value_of(specific) == "y"
    assert not eng.posted


def test_a_matched_receive_takes_its_packet_off_the_queue(eng):
    assert not eng.unexpected
    eng.deliver(pkt(src=1, tag=1, nbytes=30.0))
    eng.deliver(pkt(src=1, tag=2, nbytes=12.5))
    assert [p.nbytes for p in eng.unexpected] == [30.0, 12.5]
    eng.post_recv(source=1, tag=1)
    assert [p.nbytes for p in eng.unexpected] == [12.5]


def test_fail_all(eng):
    ev = eng.post_recv(source=1, tag=1)
    eng.fail_all(ConnectionError("down"))
    assert ev.triggered and ev.ok is False
    assert not eng.posted


def test_snapshot_restore():
    sim = Simulator()
    a = MatchingEngine(sim, 0)
    a.deliver(pkt(src=1, tag=1, data="keep", nbytes=50.0))
    snap = a.snapshot()
    assert [p.nbytes for p in snap] == [50.0]

    b = MatchingEngine(sim, 0)
    b.restore(snap)
    ev = b.post_recv(source=1, tag=1)
    assert value_of(ev) == "keep"


def test_snapshot_is_a_copy(eng):
    eng.deliver(pkt(src=1, tag=1, data="in"))
    snap = eng.snapshot()
    eng.post_recv(source=1, tag=1)
    eng.deliver(pkt(src=2, tag=2, data="after"))
    assert [p.data for p in snap] == ["in"]


def test_fail_all_leaves_later_arrivals_unexpected(eng):
    eng.post_recv(source=1, tag=1)
    eng.fail_all(ConnectionError("down"))
    eng.deliver(pkt(src=1, tag=1))
    assert len(eng.unexpected) == 1


def test_restore_with_posted_recvs_rejected():
    sim = Simulator()
    a = MatchingEngine(sim, 0)
    a.post_recv(1, 1)
    with pytest.raises(RuntimeError):
        a.restore([])
