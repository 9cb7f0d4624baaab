"""Broadcast client with exponential bet backoff.

The client guesses the network delay, bets that a message sent now is
everywhere within 2^r times that guess, and resubmits with the next r
when f+1 servers report the bet lost, so one honest report guarantees
the loss is real and doubling eventually clears any delay underestimate.
"""

from __future__ import annotations

from . import trace as tr
from .errors import ProtocolBugError
from .types import Decision, Message, quorum_small


class FlutterClient:
    def __init__(self, name: str, f: int, script=None, crash_time: int | None = None):
        self.name = name
        self.f = f
        self.script = list(script or [])  # BroadcastScript entries
        self.crash_time = crash_time
        self.submissions: dict[str, tuple[int, int]] = {}
        self.decisions: dict[tuple[str, int, str], bool] = {}
        self._falses: dict[tuple[str, int], int] = {}  # False entries of decisions per (message, bet)
        self._margins: dict[str, tuple[int, int]] = {}  # message -> (delta_estimate, epsilon)
        self._server_set: frozenset[str] = frozenset()

    def _crashed(self, ctx) -> bool:
        return self.crash_time is not None and ctx.now() >= self.crash_time

    def on_init(self, ctx) -> None:
        self._server_set = frozenset(ctx.servers)
        for i, entry in enumerate(self.script):
            ctx.schedule_global(entry.at, f"broadcast@{i}")

    def on_timer(self, ctx, token: str) -> None:
        if self._crashed(ctx) or not token.startswith("broadcast@"):
            return
        entry = self.script[int(token.removeprefix("broadcast@"))]
        self.broadcast(ctx, entry.message, entry.delta_estimate, entry.epsilon)

    def broadcast(self, ctx, message: str, delta_estimate: int, epsilon: int) -> None:
        if message in self.submissions:
            raise ProtocolBugError(f"{self.name} broadcast {message} twice")
        self._margins[message] = (delta_estimate, epsilon)
        ctx.emit(tr.BROADCAST, {"message": message})
        self._submit(ctx, message, 0)

    def _submit(self, ctx, message: str, attempt: int) -> None:
        estimate, epsilon = self._margins[message]
        bet = ctx.local_time() + (2**attempt) * estimate + epsilon
        self.submissions[message] = (attempt, bet)
        ctx.broadcast(Message(message, bet))

    def on_deliver(self, ctx, src: str, msg) -> None:
        if self._crashed(ctx):
            return
        if not isinstance(msg, Decision) or src not in self._server_set:
            return
        slot = (msg.message, msg.bet)
        was_false = self.decisions.get((*slot, src)) is False
        self.decisions[(*slot, src)] = msg.value
        falses = self._falses[slot] = self._falses.get(slot, 0) + (msg.value is False) - was_false
        current = self.submissions.get(msg.message)
        if current is None or current[1] != msg.bet:
            return
        if falses >= quorum_small(self.f):
            self._submit(ctx, msg.message, current[0] + 1)
