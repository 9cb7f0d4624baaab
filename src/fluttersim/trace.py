"""Trace events and the JSONL trace format.

One JSON object per line, keys always time/process/kind/payload in that
order. Payloads are built as JSON-ready dicts up front so the in-memory
trace and the file render identically byte for byte.

A wire message is rendered once per send call, and a broadcast is one
call: every Send event of the call and the Deliver event of each of
those sends hold the same `msg` dict, and the Deliver events of the call
share one payload dict. Treat payloads as read-only; code that edits one
must copy the event (say, with copy.deepcopy) first, or the edit shows up
in every event sharing it.
Events reach the checkers one by one, from a kept trace or, in a campaign
run, straight from the simulator with no trace kept.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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


@dataclass(slots=True)
class TraceEvent:
    time: int
    process: str
    kind: str
    payload: dict

    def to_line(self) -> str:
        return _ENCODER.encode(
            {"time": self.time, "process": self.process, "kind": self.kind, "payload": self.payload}
        )


def _encode_into(memo: dict[int, str], obj) -> str:
    text = memo[id(obj)] = _ENCODER.encode(obj)
    return text


def write_trace(path, trace: list[TraceEvent]) -> None:
    """Write `trace` as JSONL, byte for byte as `to_line` renders each event.

    Send and Deliver lines are assembled from cached JSON pieces: each
    message dict (shared by its Send and Deliver events), each process
    name and each peer name is encoded once. The cache is keyed by id(),
    which stays valid because `trace` keeps every cached object alive.
    """
    memo: dict[int, str] = {}
    with open(path, "w") as fh:
        for ev in trace:
            kind = ev.kind
            peer_key = "dst" if kind == SEND else "src" if kind == DELIVER else None
            payload = ev.payload
            # Only an int time and the exact payload layout {peer_key, "msg"} take the cached path.
            if (
                peer_key is None
                or type(ev.time) is not int
                or len(payload) != 2
                or next(iter(payload)) != peer_key
                or "msg" not in payload
            ):
                fh.write(ev.to_line() + "\n")
                continue
            process, peer, msg = ev.process, payload[peer_key], payload["msg"]
            process = memo.get(id(process)) or _encode_into(memo, process)
            peer = memo.get(id(peer)) or _encode_into(memo, peer)
            msg = memo.get(id(msg)) or _encode_into(memo, msg)
            fh.write(
                f'{{"time":{ev.time},"process":{process},"kind":"{kind}",'
                f'"payload":{{"{peer_key}":{peer},"msg":{msg}}}}}\n'
            )


def load_trace(path) -> list[TraceEvent]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            out.append(TraceEvent(obj["time"], obj["process"], obj["kind"], obj["payload"]))
    return out


def instance_key_from_payload(obj: dict) -> tuple:
    """Hashable instance key from a rendered instance payload."""
    if "label" in obj:
        return ("label", obj["label"])
    return (obj["client"], obj["message"], obj["bet"])
