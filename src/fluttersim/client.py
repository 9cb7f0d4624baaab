"""Broadcast client with exponential bet backoff.

The client guesses the network delay, bets that a message sent now is
everywhere within 2^r times that guess, and resubmits with the next r
when f+1 servers report the bet lost, so one honest report guarantees
the loss is real and doubling eventually clears any delay underestimate.
A new message starts at the client's floor, the r its lost bets taught
it, so an underestimate that persists across messages is cleared about
once per client. The first new bet at a floor probes it: if f+1 servers
decide that bet True, the floor falls by one, so a rare loss does not
widen every later bet. As in Karn's rule, a resubmitted bet's win says
nothing about a lower r and leaves the floor alone.
"""

from __future__ import annotations

from . import trace as tr
from .errors import ProtocolBugError
from .types import Decision, Message, quorum_small


class FlutterClient:
    def __init__(self, name: str, f: int, delta_estimate: int, epsilon: int, script=None,
                 crash_time: int | None = None):
        self.name = name
        self.f = f
        self.delta_estimate = delta_estimate
        self.epsilon = epsilon
        self.script = list(script or [])  # BroadcastScript entries
        self.crash_time = crash_time
        self.submissions: dict[str, tuple[int, int]] = {}
        # (message, bet) -> the servers whose latest Decision on that bet is False
        self.falses: dict[tuple[str, int], set[str]] = {}
        self._server_set: frozenset[str] = frozenset()
        self.floor = 0  # the attempt a new message starts at; f+1 False Decisions raise it
        # the first new (message, bet) at the floor, and the servers whose latest Decision on it is True
        self.probe: tuple[str, int] | None = None
        self.probe_trues: set[str] = set()

    def _crashed(self, ctx) -> bool:
        return self.crash_time is not None and ctx.now() >= self.crash_time

    def on_init(self, ctx) -> None:
        self._server_set = frozenset(ctx.servers)
        for i, entry in enumerate(self.script):
            ctx.schedule_global(entry.at, f"broadcast@{i}")

    def on_timer(self, ctx, token: str) -> None:
        if self._crashed(ctx):  # every timer is a `broadcast@<index>` that on_init scheduled
            return
        self.broadcast(ctx, self.script[int(token.removeprefix("broadcast@"))].message)

    def broadcast(self, ctx, message: str) -> None:
        if message in self.submissions:
            raise ProtocolBugError(f"{self.name} broadcast {message} twice")
        ctx.emit(tr.BROADCAST, {"message": message})
        self._submit(ctx, message, self.floor)
        if self.probe is None and self.floor:
            self.probe = (message, self.submissions[message][1])
            self.probe_trues.clear()

    def _submit(self, ctx, message: str, attempt: int) -> None:
        bet = ctx.local_time() + (2**attempt) * self.delta_estimate + self.epsilon
        self.submissions[message] = (attempt, bet)
        if attempt > self.floor:
            self.floor, self.probe = attempt, None
        ctx.broadcast(Message(message, bet))

    def on_deliver(self, ctx, src: str, msg) -> None:
        if self._crashed(ctx):
            return
        if not isinstance(msg, Decision) or src not in self._server_set:
            return
        key = (msg.message, msg.bet)
        falses = self.falses.setdefault(key, set())
        if msg.value is False:
            falses.add(src)
        else:
            falses.discard(src)
        if key == self.probe:
            (self.probe_trues.discard if msg.value is False else self.probe_trues.add)(src)
            if len(self.probe_trues) >= quorum_small(self.f):  # the floor won on a first attempt: try one lower
                self.floor, self.probe = self.floor - 1, None
        current = self.submissions.get(msg.message)
        if current is not None and current[1] == msg.bet and len(falses) >= quorum_small(self.f):
            self._submit(ctx, msg.message, max(current[0] + 1, self.floor))
