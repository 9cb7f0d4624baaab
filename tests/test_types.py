"""Broadcast tuple ordering, quorum sizes, wire payload rendering, immutable wire messages, and the
semantics of the slotted records."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fluttersim.checkers import CheckReport
from fluttersim.runner import RunResult, campaign_variant, run_checked
from fluttersim.scenario import (
    BlinkScriptEntry,
    BroadcastScript,
    ClientSpec,
    NetworkConfig,
    Scenario,
    ServerFault,
    load_scenario,
)
from fluttersim.trace import TraceEvent
from fluttersim.types import (
    BroadcastTuple,
    Decision,
    Message,
    Suggest,
    Time,
    instance_payload,
    quorum_large,
    quorum_majority,
    quorum_small,
    wire_payload,
)

from conftest import SCENARIOS_DIR


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
    assert wire_payload(Suggest("i0", True)) == {"kind": "Suggest", "instance": {"label": "i0"}, "value": True}
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


WIRE_MESSAGES = [
    Suggest(BroadcastTuple(11, "c000", "6d"), True),
    Time(7),
    Message("6d", 11),
    Decision("6d", 11, False),
]


@pytest.mark.parametrize("msg", WIRE_MESSAGES, ids=lambda m: type(m).__name__)
def test_wire_messages_are_immutable(msg):
    # One send call hands this object to every copy: no receiver, Byzantine or not, may rewrite it.
    for name in msg._fields:
        with pytest.raises(AttributeError):
            setattr(msg, name, None)
    with pytest.raises(AttributeError):
        msg.extra = None
    assert repr(Time(7)) == "Time(time=7)"


def _variant():
    base = load_scenario(SCENARIOS_DIR / "campaign_base.json")
    return campaign_variant(base, "mute", "adversarial_value", 3)


# Each record, its fields in the order the dataclass it replaced declared them, and an instance of it.
RECORDS = {
    TraceEvent: ("time process kind payload", lambda: TraceEvent(3, "s000", "Send", {"dst": "s001", "msg": {}})),
    CheckReport: ("prop verdict detail witness", lambda: CheckReport("tob-total-order", "Fail", "planted", [{"k": 1}])),
    RunResult: ("scenario trace quiescent reports metrics", lambda: run_checked(_variant())),
    Scenario: (
        "name kind n f delta drift epsilon network clock_offsets server_faults clients dep_policy blink_script"
        " step_budget until",
        _variant,
    ),
    NetworkConfig: ("strategy seed delays", lambda: _variant().network),
    ClientSpec: ("name delta_estimate broadcasts crash_time behavior params", lambda: _variant().clients[0]),
    BroadcastScript: ("at message", lambda: _variant().clients[0].broadcasts[0]),
    ServerFault: ("behavior params", lambda: _variant().server_faults["s005"]),
    BlinkScriptEntry: ("at server instance value", lambda: BlinkScriptEntry(0, "s001", "i0", False)),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    names, make = RECORDS[cls]
    record = make()
    assert type(record) is cls
    assert cls.__slots__ == tuple(names.split())
    assert not hasattr(record, "__dict__")
    fields = {name: getattr(record, name) for name in cls.__slots__}

    assert copy.deepcopy(record) == record and cls(**fields) == record
    other = type(cls.__name__, (cls,), {"__slots__": ()})(**fields)  # same name and fields, another class
    assert other != record and record != other and record != tuple(fields.values())
    with pytest.raises(TypeError):
        hash(record)

    assert repr(record) == f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    assert repr(ServerFault("mute")) == "ServerFault(behavior='mute', params={})"

    first = cls.__slots__[0]
    changed = record.replace(**{first: "changed"})
    assert type(changed) is cls and changed is not record
    assert getattr(changed, first) == "changed" and getattr(record, first) == fields[first]
    assert all(getattr(changed, name) is value for name, value in fields.items() if name != first)
    with pytest.raises(TypeError):
        record.replace(no_such_field=1)

    # `--parallel` campaign workers receive their variant pickled.
    assert pickle.loads(pickle.dumps(record)) == record
