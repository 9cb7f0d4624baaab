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
A run reaches its sink (a `Trace`, the checkers, `fluttersim run`'s
`TraceWriter`) one event at a time, but each send call once; a `Trace`
keeps a call once, building its Send events only when iterated.
`read_trace` streams a saved trace back.
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


def send_event(time: int, src: str, dst: str, msg) -> TraceEvent:
    """The Send event of the copy of a send call that goes to `dst`."""
    return TraceEvent(time, src, SEND, {"dst": dst, "msg": msg})


class Trace:
    """A kept trace, and the simulator's sink that keeps it: each event, and each send call once, in run order."""

    __slots__ = ("calls", "extra")

    def __init__(self):
        self.calls: list = []  # each event, or a send call's (time, src, dsts, msg) with `dsts` as a tuple
        self.extra = 0  # events beyond one per call: each send call's copies, less one

    def event(self, ev: TraceEvent) -> None:
        self.calls.append(ev)

    def sends(self, time: int, src: str, dsts, msg) -> None:
        self.calls.append((time, src, tuple(dsts), msg))  # a snapshot: the caller may reuse its list
        self.extra += len(dsts) - 1

    def replay(self, sink) -> None:
        """Hand `sink` the calls the run made, in order."""
        event, sends = sink.event, sink.sends
        for call in self.calls:
            if type(call) is tuple:
                sends(*call)
            else:
                event(call)

    def __len__(self) -> int:
        return len(self.calls) + self.extra

    def __iter__(self):
        for call in self.calls:
            if type(call) is tuple:
                yield from [send_event(call[0], call[1], dst, call[3]) for dst in call[2]]
            else:
                yield call


class TraceWriter:
    """A sink that writes each event, and each send call's Send events, to an open text file as `to_line` would."""

    def __init__(self, fh):
        self.fh = fh
        # id(msg) -> [msg (held, so its id() stays unique), sender JSON + line tail, sender, copies in flight]
        self.msgs: dict[int, list] = {}

    def sends(self, time: int, src: str, dsts, msg) -> None:
        """One send call, with an int time and str names: a Send line per copy, in one write."""
        tail = f',"msg":{render(msg)}}}}}\n'
        head = f'{{"time":{time},"process":{_quote(src)},"kind":"Send","payload":{{"dst":'
        self.fh.write("".join([f"{head}{_quote(dst)}{tail}" for dst in dsts]))
        self.msgs.setdefault(id(msg), [msg, _quote(src) + tail, src, 0])[3] += len(dsts)

    def event(self, ev: TraceEvent) -> None:
        """One event that is no Send call's copy."""
        payload = ev.payload
        if (ev.kind != DELIVER or type(ev.time) is not int or type(payload) is not dict or len(payload) != 2
                or next(iter(payload)) != "src" or "msg" not in payload or type(ev.process) is not str
                or type(src := payload["src"]) is not str):
            self.fh.write(ev.to_line() + "\n")
            return
        msgs = self.msgs
        entry = msgs.get(id(msg := payload["msg"]))
        if entry is None or entry[2] != src:  # no matching Send: the stream (say, read from a file) shares no dicts
            msgs.clear()
            self.fh.write(ev.to_line() + "\n")
            return
        entry[3] -= 1
        if not entry[3]:
            del msgs[id(msg)]
        self.fh.write(f'{{"time":{ev.time},"process":{_quote(ev.process)},"kind":"Deliver","payload":{{"src":'
                      f'{entry[1]}')

    def write(self, events) -> None:
        """Write a `Trace`'s calls, or one call per Send of `events` shaped as the simulator writes it."""
        if isinstance(events, Trace):
            return events.replay(self)
        for ev in events:
            payload = ev.payload
            if (ev.kind != SEND or type(payload) is not dict or len(payload) != 2 or next(iter(payload)) != "dst"
                    or "msg" not in payload or type(dst := payload["dst"]) is not str or type(ev.time) is not int
                    or type(ev.process) is not str):
                self.event(ev)
            else:
                self.sends(ev.time, ev.process, (dst,), payload["msg"])


def write_trace(path, events) -> None:
    """Write `events`, a `Trace` or any iterable of trace events, as JSONL."""
    with open(path, "w") as fh:
        TraceWriter(fh).write(events)


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
