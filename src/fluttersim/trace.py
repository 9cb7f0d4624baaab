"""Trace events and the JSONL trace format.

One JSON object per line, keys always time/process/kind/payload in that
order, as the stdlib's C JSON encoder writes it (compact separators, one
encoder built at import): a kept trace and its file render byte for byte.

A run reaches its sink (a `Trace`, the check pass and its observers, a
`TraceWriter`) in three calls, made in `Simulator.emit`, `Simulator.send`
and `run()`'s `finally`: `sends(time, src, dsts, msg)` once per send call,
`deliver(run)` once per run of consecutive deliveries, a non-empty list of
(time, dst, payload), and `event(ev)` for every other event. A sink reads
a run only during the call: the simulator reuses its list. A run holds one
dict per distinct message, send call's Deliver payload, instance,
(instance, value) and timer token, so treat payloads as read-only (copy an
event before editing it). A `Trace` keeps the calls, and builds Send and
Deliver events only when iterated. A `TraceWriter` renders a dict once
while its cache, keyed by id() and at most BLOCK_LINES long, holds it, and
writes lines in blocks of BLOCK_LINES, the last on `close`: use it in a
`with` block, so a run that raises keeps its lines.
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


def deliver_event(delivery: tuple) -> TraceEvent:
    """The Deliver event of a delivery, (time, dst, payload)."""
    return TraceEvent(delivery[0], delivery[1], DELIVER, delivery[2])


class Trace:
    """A kept trace, and the simulator's sink that keeps it: each event, run and send call once, in run order."""

    __slots__ = ("calls", "extra")

    def __init__(self):
        self.calls: list = []  # each event, run (a list of deliveries), or send call (time, src, dsts tuple, msg)
        self.extra = 0  # events beyond one per call: each run's and send call's copies, less one

    def event(self, ev: TraceEvent) -> None:
        self.calls.append(ev)

    def deliver(self, run: list) -> None:
        self.calls.append(run[:])  # a snapshot: the caller reuses its list
        self.extra += len(run) - 1

    def sends(self, time: int, src: str, dsts, msg) -> None:
        self.calls.append((time, src, tuple(dsts), msg))  # a snapshot: the caller may reuse its list
        self.extra += len(dsts) - 1

    def replay(self, sink) -> None:
        """Hand `sink` the calls the run made, in order."""
        event, deliver, sends = sink.event, sink.deliver, sink.sends
        for call in self.calls:
            if type(call) is list:
                deliver(call)
            elif type(call) is tuple:
                sends(*call)
            else:
                event(call)

    def __len__(self) -> int:
        return len(self.calls) + self.extra

    def __iter__(self):
        for call in self.calls:
            if type(call) is list:
                yield from map(deliver_event, call)
            elif type(call) is tuple:
                yield from [send_event(call[0], call[1], dst, call[3]) for dst in call[2]]
            else:
                yield call


BLOCK_LINES = 512  # lines a writer collects per write: about 64 KiB, at the 125-140 characters of a typical line


class TraceWriter:
    """A sink that writes each event, delivery and send call's Send events to an open text file as `to_line` would.

    It collects lines in one block and writes the block in one call once it holds BLOCK_LINES lines, at the end of
    `write`, and on `close`, which a `with` block calls on the way out, also when the run raised. `close` leaves
    the file open for its owner, and a second `close` writes nothing.
    """

    def __init__(self, fh):
        self.fh = fh
        self.block: list[str] = []  # text not yet written: each line, but one string for a send call's Send lines
        self.lines = 0  # lines in `block`
        self.texts: dict[int, tuple[dict, str]] = {}  # id(payload) -> (payload, held so its id() stays unique, JSON)
        self.heads: dict[tuple[str, str], str] = {}  # (process, kind) -> its lines' text from process to payload
        self.deliver_heads: dict[str, str] = {}  # process -> its Deliver lines' text from process to the src value

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Write the lines collected so far, if any."""
        if self.block:
            self.fh.write("".join(self.block))
            self.block.clear()
            self.lines = 0

    def _head(self, process: str, kind: str) -> str:
        head = self.heads[process, kind] = f',"process":{_quote(process)},"kind":{_quote(kind)},"payload":'
        return head

    def _text(self, payload) -> str:
        """`render(payload)`, from the cache, which starts over when it holds BLOCK_LINES payloads."""
        if (entry := self.texts.get(id(payload))) is None:
            if len(self.texts) >= BLOCK_LINES:
                self.texts.clear()
            entry = self.texts[id(payload)] = (payload, render(payload))
        return entry[1]

    def sends(self, time: int, src: str, dsts, msg) -> None:
        """One send call, with an int time and str names: a Send line per copy, built by one join."""
        tail = f',"msg":{self._text(msg)}}}}}\n'
        head = f'{{"time":{time}{self.heads.get((src, SEND)) or self._head(src, SEND)}{{"dst":'
        self.block.append(head + (tail + head).join(map(_quote, dsts)) + tail)
        self.lines += len(dsts)
        if self.lines >= BLOCK_LINES:
            self.close()

    def deliver(self, run: list) -> None:
        """A run of deliveries (int time, str names, payload exactly {"src", "msg"}): head, quoted src, msg text."""
        texts, heads, append = self.texts, self.deliver_heads, self.block.append
        for time, dst, payload in run:
            text = self._text(msg) if (entry := texts.get(id(msg := payload["msg"]))) is None else entry[1]
            try:
                head = heads[dst]
            except KeyError:
                head = heads[dst] = self._head(dst, DELIVER) + '{"src":'
            append(f'{{"time":{time}{head}{_quote(payload["src"])},"msg":{text}}}}}\n')
        self.lines += len(run)
        if self.lines >= BLOCK_LINES:
            self.close()

    def event(self, ev: TraceEvent) -> None:
        """Any one event, as its `to_line`: the simulator hands every event that is no Send or Deliver here."""
        time, process, kind = ev.time, ev.process, ev.kind
        if type(time) is int and type(process) is str and type(kind) is str:
            head = self.heads.get((process, kind)) or self._head(process, kind)
            self.block.append(f'{{"time":{time}{head}{self._text(ev.payload)}}}\n')
        else:
            self.block.append(ev.to_line() + "\n")
        self.lines += 1
        if self.lines >= BLOCK_LINES:
            self.close()

    def write(self, events) -> None:
        """Replay a `Trace`'s calls, or write each event of any other iterable as its own line; then `close`."""
        if isinstance(events, Trace):
            events.replay(self)
        else:
            for ev in events:
                self.event(ev)
        self.close()


def write_trace(path, events) -> None:
    """Write `events` as JSONL: a `Trace` by replaying its calls, any other iterable line by line."""
    with open(path, "w") as fh, TraceWriter(fh) as writer:
        writer.write(events)


def read_trace(path):
    """Yield the events of a JSONL trace, one per line; no two share a dict."""
    with open(path) as fh:
        for obj in map(json.loads, filter(str.strip, fh)):
            yield TraceEvent(obj["time"], obj["process"], obj["kind"], obj["payload"])


def instance_key_from_payload(obj: dict) -> tuple:
    """The hashable key of an instance payload, or of an AppDeliver payload of the same shape: a tuple's
    (bet, client, message), in BroadcastTuple's order, or a label's ("label", label)."""
    if "label" in obj:
        return ("label", obj["label"])
    return (obj["bet"], obj["client"], obj["message"])
