"""Shared identifiers, time, values, and the wire-message vocabulary.

Time is integer ticks. Local clocks are the global tick plus a static
per-process offset. NEG_INF stands in for the "minus infinity" initial
value of remote time entries and the processing cursor; it compares
below every int.
"""

from __future__ import annotations

from dataclasses import dataclass

SimTime = int
NEG_INF = float("-inf")


@dataclass(frozen=True, slots=True)
class BroadcastTuple:
    """The unit Flutter agrees on: (client, message, bet)."""

    client: str  # client process name; zero-padded so byte order == index order
    message: bytes
    bet: SimTime

    def key(self) -> tuple:
        # bet dominates, then client name (ASCII, so str order is byte order), then message
        return (self.bet, self.client, self.message)

    def __lt__(self, other: "BroadcastTuple") -> bool:
        return self.key() < other.key()

    def __le__(self, other: "BroadcastTuple") -> bool:
        return self.key() <= other.key()


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
    message: bytes
    bet: SimTime


@dataclass(frozen=True, slots=True)
class Decision:
    message: bytes
    bet: SimTime
    value: bool


WireMessage = Suggest | Time | Observe | Message | Decision


def instance_payload(instance: InstanceKey) -> dict:
    if isinstance(instance, BroadcastTuple):
        return {
            "client": instance.client,
            "message": instance.message.hex(),
            "bet": instance.bet,
        }
    return {"label": instance}


def wire_payload(msg: WireMessage) -> dict:
    """Canonical rendering, fixed key order per variant."""
    if isinstance(msg, Suggest):
        return {"kind": "Suggest", "instance": instance_payload(msg.instance), "value": msg.value}
    if isinstance(msg, Time):
        return {"kind": "Time", "time": msg.time}
    if isinstance(msg, Observe):
        t = msg.tuple
        return {"kind": "Observe", "client": t.client, "message": t.message.hex(), "bet": t.bet}
    if isinstance(msg, Message):
        return {"kind": "Message", "message": msg.message.hex(), "bet": msg.bet}
    if isinstance(msg, Decision):
        return {"kind": "Decision", "message": msg.message.hex(), "bet": msg.bet, "value": msg.value}
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
