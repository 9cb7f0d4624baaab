"""Shared identifiers, time, values, and the wire-message vocabulary.

Time is integer ticks. Local clocks are the global tick plus a static
per-process offset. NEG_INF stands in for the "minus infinity" initial
value of remote time entries and the processing cursor; it compares
below every int. A message body is a lowercase hex string throughout:
`scenario` parses it once, and nothing converts it after.

Wire messages are immutable named tuples: one send call hands the same
message object to every copy, so no receiver can rewrite what later
receivers get. The package's other records subclass `Record`.
"""

from __future__ import annotations

from collections import namedtuple

SimTime = int
NEG_INF = float("-inf")


class Record:
    """A mutable record whose fields are its class's `__slots__`, in order.

    Equality, repr and `replace` read the fields as a dataclass's do: two
    records are equal when they are of one class and their fields are
    equal, and a record, being mutable, is unhashable. A subclass declares
    `__slots__` and an `__init__` that takes every field by name.
    """

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self.__slots__
        return tuple(getattr(self, name) for name in names) == tuple(getattr(other, name) for name in names)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with `changes` applied; an unknown field is a TypeError, as the class's own call makes it."""
        return type(self)(**{name: getattr(self, name) for name in self.__slots__} | changes)


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


# Fields: Suggest(instance: InstanceKey, value: bool), Time(time: SimTime), Observe(tuple: BroadcastTuple),
# Message(message: str, bet: SimTime), Decision(message: str, bet: SimTime, value: bool).
class Suggest(namedtuple("Suggest", "instance value")):
    __slots__ = ()


class Time(namedtuple("Time", "time")):
    __slots__ = ()


class Observe(namedtuple("Observe", "tuple")):
    __slots__ = ()


class Message(namedtuple("Message", "message bet")):
    __slots__ = ()


class Decision(namedtuple("Decision", "message bet value")):
    __slots__ = ()


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
