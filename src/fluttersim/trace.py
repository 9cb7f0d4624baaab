"""Trace events and the JSONL trace format.

One JSON object per line, keys always time/process/kind/payload in that
order. Payloads are built as JSON-ready dicts up front so the in-memory
trace and the file render identically byte for byte. Lines are rendered
by hand with f-strings for the payload shapes the simulator emits, each
guarded by its key order and exact value types; every other shape falls
back to the JSON encoder, whose bytes the hand renderers reproduce.

A wire message is rendered once per send call, and a broadcast is one
call: every Send event of the call and the Deliver event of each of
those sends hold the same `msg` dict, and the Deliver events of the call
share one payload dict. Treat payloads as read-only; code that edits one
must copy the event (say, with copy.deepcopy) first, or the edit shows up
in every event sharing it.
A run reaches the checkers, and `fluttersim run`'s `TraceWriter`, one event
at a time from the simulator; `read_trace` streams a saved trace back so.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote  # what _ENCODER.encode does with a str

from .types import Record

# Event kinds
SEND = "Send"
DELIVER = "Deliver"
PROPOSE = "Propose"
DECIDE = "Decide"
APP_DELIVER = "AppDeliver"
BROADCAST = "Broadcast"
TIMER_FIRE = "TimerFire"
DEP_PROPOSE = "DepPropose"
DEP_DECIDE = "DepDecide"

_ENCODER = json.JSONEncoder(separators=(",", ":"))  # shared; json.dumps would build one per line
_BOOL = {True: "true", False: "false"}


# Hand renderers of the payload shapes the simulator emits. Each takes a dict's values in key order and
# gives what _ENCODER makes of the dict, or None when a value is off its type, so `render` falls back.
def _tuple(client, message, bet) -> str | None:  # AppDeliver, and a tuple's instance payload
    if type(client) is str and type(message) is str and type(bet) is int:
        return f'{{"client":{_quote(client)},"message":{_quote(message)},"bet":{bet}}}'
    return None


def _decided(instance, value) -> str | None:  # Propose, Decide, DepPropose, DepDecide
    inst = _hand(instance)
    return f'{{"instance":{inst},"value":{_BOOL[value]}}}' if inst and type(value) is bool else None


def _message(message, bet) -> str | None:
    return f'{{"message":{_quote(message)},"bet":{bet}}}' if type(message) is str and type(bet) is int else None


def _decision(message, bet, value) -> str | None:
    line = _message(message, bet)
    return f'{line[:-1]},"value":{_BOOL[value]}}}' if line and type(value) is bool else None


def _field(key: str, typ: type):  # a one-key payload: Time's body, a label instance, TimerFire, Broadcast
    head = f'{{"{key}":'
    return lambda value: f"{head}{_quote(value) if typ is str else value}}}" if type(value) is typ else None


def _wire(body):
    """The renderer of a wire dict {"kind": str, **d}, from the renderer `body` of d."""
    def rendered(kind, *values) -> str | None:
        line = body(*values)
        return f'{{"kind":{_quote(kind)},{line[1:]}' if line and type(kind) is str else None
    return rendered


_SHAPES = {  # key order -> renderer
    ("kind", "instance", "value"): _wire(_decided),
    ("kind", "time"): _wire(_field("time", int)),
    ("kind", "client", "message", "bet"): _wire(_tuple),
    ("kind", "message", "bet"): _wire(_message),
    ("kind", "message", "bet", "value"): _wire(_decision),
    ("instance", "value"): _decided,
    ("client", "message", "bet"): _tuple,
    ("label",): _field("label", str),
    ("token",): _field("token", str),
    ("message",): _field("message", str),
}


def _hand(d) -> str | None:
    """`d` rendered by hand, or None when it has no shape in _SHAPES."""
    shape = _SHAPES.get(tuple(d)) if type(d) is dict else None
    return shape and shape(*d.values())


def render(payload) -> str:
    """`payload` as _ENCODER renders it: by hand for a shape in _SHAPES, else by _ENCODER."""
    return _hand(payload) or _ENCODER.encode(payload)


class TraceEvent(Record):
    __slots__ = ("time", "process", "kind", "payload")

    def __init__(self, time: int, process: str, kind: str, payload: dict):
        self.time = time
        self.process = process
        self.kind = kind
        self.payload = payload

    def to_line(self) -> str:
        if type(self.time) is int and type(self.process) is str and type(self.kind) is str:
            return (f'{{"time":{self.time},"process":{_quote(self.process)},"kind":{_quote(self.kind)},'
                    f'"payload":{render(self.payload)}}}')
        return _ENCODER.encode({"time": self.time, "process": self.process, "kind": self.kind, "payload": self.payload})


class TraceWriter:
    """Writes trace events to an open text file one at a time, each as `to_line` renders it."""

    def __init__(self, fh):
        self.fh = fh
        # A call's Sends hold one msg dict, as does each copy's Deliver, so a message's line tails are built once:
        # id(msg) -> [msg, tail, sender JSON + tail, sender, copies in flight]; holding msg keeps its id() unique.
        self.msgs: dict[int, list] = {}

    def write(self, ev: TraceEvent) -> None:
        kind, process, payload, msgs = ev.kind, ev.process, ev.payload, self.msgs
        sending, peer_key = (True, "dst") if kind == SEND else (False, "src")
        # Only an int time, str names and the exact payload layout {peer_key, "msg"} take the cached path.
        if ((not sending and kind != DELIVER) or type(ev.time) is not int or len(payload) != 2
                or next(iter(payload)) != peer_key or "msg" not in payload
                or type(process) is not str or type(peer := payload[peer_key]) is not str):
            self.fh.write(ev.to_line() + "\n")
            return
        entry = msgs.get(id(msg := payload["msg"]))
        if sending:
            if entry is None:
                tail = f',"msg":{render(msg)}}}}}\n'
                entry = msgs[id(msg)] = [msg, tail, _quote(process) + tail, process, 0]
            entry[4] += 1
            self.fh.write(f'{{"time":{ev.time},"process":{_quote(process)},"kind":"Send","payload":{{"dst":'
                          f'{_quote(peer)}{entry[1]}')
        elif entry is None or entry[3] != peer:  # no matching Send: the stream (say, read from a file) shares no dicts
            msgs.clear()
            self.fh.write(ev.to_line() + "\n")
        else:
            entry[4] -= 1
            if not entry[4]:
                del msgs[id(msg)]
            self.fh.write(f'{{"time":{ev.time},"process":{_quote(process)},"kind":"Deliver","payload":{{"src":'
                          f'{entry[2]}')


def write_trace(path, events) -> None:
    """Write `events`, any iterable of trace events, as JSONL."""
    with open(path, "w") as fh:
        write = TraceWriter(fh).write
        for ev in events:
            write(ev)


def read_trace(path):
    """Yield the events of a JSONL trace, one per line; no two share a dict."""
    with open(path) as fh:
        for obj in map(json.loads, filter(str.strip, fh)):
            yield TraceEvent(obj["time"], obj["process"], obj["kind"], obj["payload"])


def instance_key_from_payload(obj: dict) -> tuple:
    """Hashable instance key from a rendered instance payload."""
    if "label" in obj:
        return ("label", obj["label"])
    return (obj["client"], obj["message"], obj["bet"])
