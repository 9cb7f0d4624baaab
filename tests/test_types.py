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

tuples = st.builds(  # narrow ranges, so bet and client ties leave the message to decide
    BroadcastTuple,
    bet=st.integers(min_value=-3, max_value=3),
    client=st.text(alphabet="ab0", min_size=1, max_size=2),
    message=st.binary(min_size=0, max_size=3).map(bytes.hex),
)


def byte_key(t):
    """The order of bet, then client, then the message's bytes."""
    return (t.bet, t.client, bytes.fromhex(t.message))


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
    assert (a < b) or (b < a) or (a == b)


@given(tuples, tuples)
def test_hex_order_is_byte_order(a, b):
    for x, y in ((a, b), (a, a._replace(message=b.message))):  # the second pair ties on bet and client
        assert (x < y) == (byte_key(x) < byte_key(y))
        assert (x == y) == (byte_key(x) == byte_key(y))


def test_order_is_the_plain_tuple_order():
    assert not {"key", "__lt__", "__le__"} & set(vars(BroadcastTuple))


def test_bet_dominates_ordering():
    lo = BroadcastTuple(5, "zzz", "ff")
    hi = BroadcastTuple(6, "aaa", "00")
    assert lo < hi


def test_client_breaks_bet_ties():
    a = BroadcastTuple(5, "alice", "ff")
    b = BroadcastTuple(5, "bob", "00")
    assert a < b


def test_message_breaks_client_ties():
    a = BroadcastTuple(5, "alice", "01")
    b = BroadcastTuple(5, "alice", "02")
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
    t = BroadcastTuple(11, "c000", "6d")
    assert wire_payload(Observe(t)) == {
        "kind": "Observe",
        "client": "c000",
        "message": "6d",
        "bet": 11,
    }
    assert wire_payload(Time(7)) == {"kind": "Time", "time": 7}
    assert wire_payload(Message("6d", 11)) == {
        "kind": "Message",
        "message": "6d",
        "bet": 11,
    }
    assert wire_payload(Decision("6d", 11, True)) == {
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
    t = BroadcastTuple(11, "c000", "6d")
    assert instance_payload(t) == {"client": "c000", "message": "6d", "bet": 11}
    assert instance_payload("i0") == {"label": "i0"}


def test_wire_payload_rejects_unknown():
    with pytest.raises(TypeError):
        wire_payload("not a wire message")  # type: ignore[arg-type]
