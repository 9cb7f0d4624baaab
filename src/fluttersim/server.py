"""Leaderless total-order broadcast server.

Every message carries a client-chosen bet, a timestamp by which the
client expects delivery everywhere. Servers spot (bet, client,
message) tuples, relay them, vote through one consensus instance per
tuple on whether the bet arrived in time, and app-deliver positive
tuples in bet order once the lock time (a 4f+1-supported lower bound
on other servers' clocks) has passed the bet, so no earlier tuple can
still win a consensus instance.

A server sends its Suggests and Times to every other server and takes
its own copy in the step it sends them. A correct server relays a tuple
only in its own Suggest: the one a client's Message makes it send, or
the False vote its timer sends at the bet. It spots the tuple that a
client Message or any Suggest on a tuple names, and sets one timer at
the bet. It holds one consensus instance exactly for each tuple it has
spotted, and reads a tuple's decision off that instance. A Suggest on a
label names no tuple, so it is dropped.

Why the lock is safe (n = 5f+1, k <= f Byzantine servers): a correct
server votes True on t only on a Message it gets while its clock is
below t.bet, and sends and counts that Suggest in the same step, so it
precedes the voter's first Time(>= t.bet) on every FIFO link and at the
voter itself. A True decision needs at least 2f+1-k correct True
voters, and a lock at t.bet needs Time(>= t.bet) from at least 4f+1-k
correct servers. Together they outnumber the 5f+1-k correct servers, so
some voter's True Suggest reached the lock holder before its Time did:
the holder spotted t while t still cleared its lock. The README's
protocol model gives the steps.
"""

from __future__ import annotations

import heapq

from . import trace as tr
from .blink import BlinkInstance, BlinkNode
from .types import (
    NEG_INF,
    BroadcastTuple,
    Decision,
    Message,
    Suggest,
    Time,
    quorum_large,
)


class FlutterServer(BlinkNode):
    """A BlinkNode that feeds one consensus instance per spotted tuple."""

    def __init__(self, name: str, f: int, oracle):
        super().__init__(name, f, oracle)
        self._queue: list[BroadcastTuple] = []  # heap of unprocessed candidates: tuples whose bet cleared the lock
        self.delivered: set[tuple[str, str]] = set()
        self.remote_times: dict[str, int | float] = {}
        self._lock: int | float = NEG_INF  # lock_time(); it cannot move until 4f+1 entries lie above it
        self._above = 0  # entries of remote_times strictly above _lock; fewer than 4f+1 between Times
        self._announced: int | float = NEG_INF  # the last Time broadcast; a beat at no later clock is no news
        self._due: list[BroadcastTuple] = []  # heap of spotted tuples the timer has not yet passed
        self._client_set: frozenset[str] = frozenset()
        self.large = quorum_large(f)  # the 4f+1 entries above the lock that raise it

    def on_init(self, ctx) -> None:
        super().on_init(ctx)
        self._client_set = frozenset(ctx.clients)
        self.remote_times = {s: NEG_INF for s in ctx.servers}

    def lock_time(self) -> int | float:
        ranked = sorted(self.remote_times.values(), reverse=True)
        return ranked[self.large - 1]

    def on_deliver(self, ctx, src: str, msg) -> None:
        # Dispatch on the exact class, most frequent first; a sender of the wrong role is dropped, and so is a Suggest
        # on a label, which names no tuple and which no correct server sends.
        cls = type(msg)
        if src in self._server_set:
            if cls is Suggest:
                key = msg.instance
                if type(key) is BroadcastTuple:
                    self._spot(ctx, key).on_suggest(ctx, src, msg.value)
            elif cls is Time:
                self._on_time(ctx, src, msg.time)
        elif cls is Message and src in self._client_set:
            self._on_message(ctx, src, msg.message, msg.bet)

    def _on_message(self, ctx, client: str, message: str, bet: int) -> None:
        t = BroadcastTuple(bet, client, message)
        instance = self._spot(ctx, t)
        if not instance.self_proposed:  # so this step proposes, and on t's first spot its Suggest relays t
            instance.propose(ctx, bet > ctx.local_time())

    def _spot(self, ctx, t: BroadcastTuple) -> BlinkInstance:
        # A tuple's instance exists iff it is spotted: dep decides one only once every correct server dep-proposed.
        instance = self.instances.get(t)
        if instance is None:
            instance = self.instance(t)
            # A tuple is a candidate iff it clears the never-falling lock when first spotted, so not processable yet.
            if t.bet > self._lock:
                heapq.heappush(self._queue, t)
            heapq.heappush(self._due, t)
            ctx.schedule_local(t.bet, "due")
        return instance

    def on_timer(self, ctx, token: str) -> None:
        # Vote before the beat. The order is harmless, not what safety rests on: the lock needs only the True votes,
        # which a Message sends before the clock reaches the bet (the module docstring's proof).
        now, due = ctx.local_time(), self._due
        while due and due[0].bet <= now:  # a later bet waits for its own timer
            instance = self.instance(heapq.heappop(due))
            if not instance.self_proposed:
                instance.propose(ctx, False)
        if now > self._announced:  # a repeat changes no receiver: FIFO delivered our last Time first
            self._announced = now
            ctx.broadcast(Time(now))
            self._on_time(ctx, self.name, now)

    def _on_time(self, ctx, src: str, time: int) -> None:
        old, lock = self.remote_times[src], self._lock
        if time > old:
            self.remote_times[src] = time
            if old <= lock < time:
                self._above += 1
                if self._above >= self.large:
                    self._lock = lock = self.lock_time()
                    self._above = sum(v > lock for v in self.remote_times.values())
                    self._process_next(ctx)

    def on_decided(self, ctx, key: BroadcastTuple, value: bool) -> None:
        if key.client in self._client_set:  # a forged tuple may name no client
            ctx.send(key.client, Decision(key.message, key.bet, value))
        self._process_next(ctx)

    def _process_next(self, ctx) -> None:
        # Run on a decision or a lock rise. Queued bets cleared a lock that never falls: all lie above tuples taken.
        while self._queue:
            best = self._queue[0]
            decision = self.instances[best].decision  # a queued tuple is spotted, so it has its instance
            if decision is None or best.bet > self._lock:
                return
            heapq.heappop(self._queue)
            if decision:
                self._order(ctx, best)

    def _order(self, ctx, t: BroadcastTuple) -> None:
        if (t.client, t.message) not in self.delivered:
            self.delivered.add((t.client, t.message))
            ctx.emit(tr.APP_DELIVER, ctx.fact(t))
