"""Shared identifiers, time, values, and the wire-message vocabulary.

Time is integer ticks. Local clocks are the global tick plus a static
per-process offset. NEG_INF stands in for the "minus infinity" initial
value of remote time entries and the processing cursor; it compares
below every int. A message body is a lowercase hex string throughout:
`scenario` parses it once, and nothing converts it after.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

SimTime = int
NEG_INF = float("-inf")


class BroadcastTuple(namedtuple("BroadcastTuple", "bet client message")):
    """The unit Flutter agrees on: (client, message, bet), ordered as a plain tuple.

    The field order is the ordering: bet dominates, then the client name
    (ASCII and zero-padded, so str order is byte order and index order),
    then the message body. A body is a lowercase hex string, whose str
    order is the order of its bytes.
    """

    __slots__ = ()


# A consensus instance is keyed by the tuple it decides on; standalone
# consensus runs use plain string labels instead.
InstanceKey = BroadcastTuple | str


@dataclass(frozen=True, slots=True)
class Suggest:
    instance: InstanceKey
    value: bool


@dataclass(frozen=True, slots=True)
class Time:
    time: SimTime


@dataclass(frozen=True, slots=True)
class Observe:
    tuple: BroadcastTuple


@dataclass(frozen=True, slots=True)
class Message:
    message: str
    bet: SimTime


@dataclass(frozen=True, slots=True)
class Decision:
    message: str
    bet: SimTime
    value: bool


WireMessage = Suggest | Time | Observe | Message | Decision


def instance_payload(instance: InstanceKey) -> dict:
    if isinstance(instance, BroadcastTuple):
        return {"client": instance.client, "message": instance.message, "bet": instance.bet}
    return {"label": instance}


def wire_payload(msg: WireMessage) -> dict:
    """Canonical rendering, fixed key order per variant."""
    if isinstance(msg, Suggest):
        return {"kind": "Suggest", "instance": instance_payload(msg.instance), "value": msg.value}
    if isinstance(msg, Time):
        return {"kind": "Time", "time": msg.time}
    if isinstance(msg, Observe):
        return {"kind": "Observe", **instance_payload(msg.tuple)}
    if isinstance(msg, Message):
        return {"kind": "Message", "message": msg.message, "bet": msg.bet}
    if isinstance(msg, Decision):
        return {"kind": "Decision", "message": msg.message, "bet": msg.bet, "value": msg.value}
    raise TypeError(f"not a wire message: {msg!r}")


def quorum_large(f: int) -> int:
    """Suggestion / lock-time / fast-path quorum."""
    return 4 * f + 1


def quorum_majority(f: int) -> int:
    """Majority inside a large quorum (slow-path proposal)."""
    return 2 * f + 1


def quorum_small(f: int) -> int:
    """Decisions needed before a client retries."""
    return f + 1
