"""Broadcast tuple ordering, quorum sizes, and wire payload rendering."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fluttersim.types import (
    BroadcastTuple,
    Decision,
    Message,
    Observe,
    Suggest,
    Time,
    instance_payload,
    quorum_large,
    quorum_majority,
    quorum_small,
    wire_payload,
)

tuples = st.builds(
    BroadcastTuple,
    client=st.text(alphabet="abcdefgh0123456789", min_size=1, max_size=8),
    message=st.binary(min_size=0, max_size=6),
    bet=st.integers(min_value=-1000, max_value=1000),
)


@given(tuples, tuples)
def test_order_antisymmetric(a, b):
    if a < b:
        assert not b < a


@given(tuples, tuples, tuples)
def test_order_transitive(a, b, c):
    if a < b and b < c:
        assert a < c


@given(tuples, tuples)
def test_order_total(a, b):
    assert (a < b) or (b < a) or (a.key() == b.key())


def test_bet_dominates_ordering():
    lo = BroadcastTuple("zzz", b"\xff", 5)
    hi = BroadcastTuple("aaa", b"\x00", 6)
    assert lo < hi


def test_client_breaks_bet_ties():
    a = BroadcastTuple("alice", b"\xff", 5)
    b = BroadcastTuple("bob", b"\x00", 5)
    assert a < b


def test_message_breaks_client_ties():
    a = BroadcastTuple("alice", b"\x01", 5)
    b = BroadcastTuple("alice", b"\x02", 5)
    assert a < b


def test_quorum_sizes():
    # f=1: intersection-safe 5, majority 3, retry threshold 2.
    assert quorum_large(1) == 5
    assert quorum_majority(1) == 3
    assert quorum_small(1) == 2
    assert quorum_large(0) == 1
    assert quorum_majority(0) == 1
    assert quorum_small(0) == 1
    assert quorum_large(3) == 13
    assert quorum_majority(3) == 7
    assert quorum_small(3) == 4


def test_wire_payload_rendering():
    t = BroadcastTuple("c000", b"\x6d", 11)
    assert wire_payload(Observe(t)) == {
        "kind": "Observe",
        "client": "c000",
        "message": "6d",
        "bet": 11,
    }
    assert wire_payload(Time(7)) == {"kind": "Time", "time": 7}
    assert wire_payload(Message(b"\x6d", 11)) == {
        "kind": "Message",
        "message": "6d",
        "bet": 11,
    }
    assert wire_payload(Decision(b"\x6d", 11, True)) == {
        "kind": "Decision",
        "message": "6d",
        "bet": 11,
        "value": True,
    }
    sug = wire_payload(Suggest(t, False))
    assert sug["kind"] == "Suggest"
    assert sug["value"] is False
    assert sug["instance"] == {"client": "c000", "message": "6d", "bet": 11}


def test_instance_payload_forms():
    t = BroadcastTuple("c000", b"\x6d", 11)
    assert instance_payload(t) == {"client": "c000", "message": "6d", "bet": 11}
    assert instance_payload("i0") == {"label": "i0"}


def test_wire_payload_rejects_unknown():
    with pytest.raises(TypeError):
        wire_payload("not a wire message")  # type: ignore[arg-type]
