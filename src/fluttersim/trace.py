"""Trace events and the JSONL trace format.

One JSON object per line, keys always time/process/kind/payload in that
order. Payloads are built as JSON-ready dicts up front so the in-memory
trace and the file render identically byte for byte. Every line is what
the stdlib's C JSON encoder writes, with compact separators, from one
encoder built at import (JSONEncoder.encode builds a new one per call).

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
from json.encoder import c_make_encoder
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

_ENCODER = json.JSONEncoder(separators=(",", ":"))
# What _ENCODER.encode runs on a non-str, built once: JSONEncoder builds a new C encoder on every call. No
# markers, so a cyclic payload raises RecursionError instead of ValueError; trace payloads are trees.
_ITERENCODE = c_make_encoder(None, _ENCODER.default, _quote, _ENCODER.indent, _ENCODER.key_separator,
                             _ENCODER.item_separator, _ENCODER.sort_keys, _ENCODER.skipkeys, _ENCODER.allow_nan)


def render(payload) -> str:
    """`payload` as _ENCODER.encode renders it."""
    return "".join(_ITERENCODE(payload, 0))


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
        return render({"time": self.time, "process": self.process, "kind": self.kind, "payload": self.payload})


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
        # Only an int time, str names and a dict payload of exactly {peer_key, "msg"} take the cached path.
        if ((not sending and kind != DELIVER) or type(ev.time) is not int or type(payload) is not dict
                or len(payload) != 2 or next(iter(payload)) != peer_key or "msg" not in payload
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
