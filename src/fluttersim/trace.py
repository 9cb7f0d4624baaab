"""Trace events and the JSONL trace format.

One JSON object per line, keys always time/process/kind/payload in that
order. Payloads are built as JSON-ready dicts up front so the in-memory
trace and the file render identically byte for byte.
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


def write_trace(path, trace: list[TraceEvent]) -> None:
    with open(path, "w") as fh:
        for ev in trace:
            fh.write(ev.to_line())
            fh.write("\n")


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
