"""Leaderless total-order broadcast server.

Every message carries a client-chosen bet, a timestamp by which the
client expects delivery everywhere. Servers observe (bet, client,
message) tuples, relay them, vote through one consensus instance per
tuple on whether the bet arrived in time, and app-deliver positive
tuples in bet order once the lock time (a 4f+1-supported lower bound
on other servers' clocks) has passed the bet, so no earlier tuple can
still win a consensus instance.

A correct server relays a tuple only in its own Suggest: the one a
client's Message makes it send, or the False vote its timer sends at the
bet. It spots the tuple that a client Message, any Suggest on a tuple,
or an Observe (sent only by Byzantine servers) names, and sets one timer
at the bet. That timer proposes False on every due tuple not yet
proposed, in bet order, before it broadcasts its clock as a Time (only
when that is news). So for a tuple a correct server spots before its
clock reaches the bet, its first Suggest is sent before its first
Time(>= bet) on every link.

Why the lock argument holds: if a server's lock passes bet b, it holds
Time(>= b) from at least 3f+1 correct servers. If any of them spotted t
in time, its Suggest came first on that FIFO link, so the lock holder
spotted t earlier, while t still cleared its lock. Otherwise all 3f+1
vote False (a correct server votes True only on a Message it spots in
time), at most f correct servers vote True, and t cannot be decided True.
"""

from __future__ import annotations

import heapq

from . import trace as tr
from .blink import BlinkNode
from .types import (
    NEG_INF,
    BroadcastTuple,
    Decision,
    InstanceKey,
    Message,
    Observe,
    Suggest,
    Time,
    instance_payload,
    quorum_large,
)


class FlutterServer(BlinkNode):
    """A BlinkNode that feeds one consensus instance per spotted tuple."""

    def __init__(self, name: str, f: int, oracle):
        super().__init__(name, f, oracle)
        self.observed: set[BroadcastTuple] = set()
        self._queue: list[BroadcastTuple] = []  # heap of unprocessed candidates: tuples whose bet cleared the lock
        self.delivered: set[tuple[str, str]] = set()
        self.decisions: dict[BroadcastTuple, bool] = {}
        self.remote_times: dict[str, int | float] = {}
        self._lock: int | float = NEG_INF  # lock_time(); it cannot move until 4f+1 entries lie above it
        self._above = 0  # entries of remote_times strictly above _lock; fewer than 4f+1 between Times
        self._announced: int | float = NEG_INF  # the last Time broadcast; a beat at no later clock is no news
        self._due: list[BroadcastTuple] = []  # heap of spotted tuples the timer has not yet passed
        self._client_set: frozenset[str] = frozenset()

    def on_init(self, ctx) -> None:
        super().on_init(ctx)
        self._client_set = frozenset(ctx.clients)
        self.remote_times = {s: NEG_INF for s in ctx.servers}

    def lock_time(self) -> int | float:
        ranked = sorted(self.remote_times.values(), reverse=True)
        return ranked[quorum_large(self.f) - 1]

    def on_deliver(self, ctx, src: str, msg) -> None:
        # Dispatch on the exact class, most frequent first; a sender of the wrong role is dropped.
        cls = type(msg)
        if src in self._server_set:
            if cls is Suggest:
                key = msg.instance
                if key not in self.observed and type(key) is BroadcastTuple:  # a Suggest on a tuple observes it
                    self._spot(ctx, key)
                self.instance(key).on_suggest(ctx, src, msg.value)
            elif cls is Time:
                self._on_time(ctx, src, msg.time)
            elif cls is Observe:
                self._spot(ctx, msg.tuple)
        elif cls is Message and src in self._client_set:
            self._on_message(ctx, src, msg.message, msg.bet)

    def _on_message(self, ctx, client: str, message: str, bet: int) -> None:
        t = BroadcastTuple(bet, client, message)
        instance = self.instance(t)
        if not instance.self_proposed:  # so this step proposes, and on t's first spot its Suggest relays t
            self._spot(ctx, t)
            instance.propose(ctx, bet > ctx.local_time())

    def _spot(self, ctx, t: BroadcastTuple) -> None:
        if t in self.observed:
            return
        # A tuple is a candidate iff it clears the never-falling lock when first spotted, so it is not processable yet.
        if t.bet > self._lock:
            heapq.heappush(self._queue, t)
        heapq.heappush(self._due, t)
        ctx.schedule_local(t.bet, "due")
        self.observed.add(t)

    def on_timer(self, ctx, token: str) -> None:
        # Vote before the beat: every Time we sent so far lies below the bet of a tuple spotted in time, and a beat
        # sends only news, so on each link our Suggest on that tuple precedes our first Time(b') with b' >= bet.
        now, due = ctx.local_time(), self._due
        while due and due[0].bet <= now:  # a later bet waits for its own timer
            instance = self.instance(heapq.heappop(due))
            if not instance.self_proposed:
                instance.propose(ctx, False)
        if now > self._announced:  # a repeat changes no receiver: FIFO delivered our last Time first
            self._announced = now
            ctx.broadcast(Time(now))

    def _on_time(self, ctx, src: str, time: int) -> None:
        old, lock = self.remote_times[src], self._lock
        if time > old:
            self.remote_times[src] = time
            if old <= lock < time:
                self._above += 1
                if self._above >= quorum_large(self.f):
                    self._lock = lock = self.lock_time()
                    self._above = sum(v > lock for v in self.remote_times.values())
                    self._process_next(ctx)

    def on_decided(self, ctx, key: InstanceKey, value: bool) -> None:
        if not isinstance(key, BroadcastTuple):
            return
        self.decisions[key] = value
        if key.client in self._client_set:  # a forged tuple may name no client
            ctx.send(key.client, Decision(key.message, key.bet, value))
        self._process_next(ctx)

    def _process_next(self, ctx) -> None:
        # Run on a decision or a lock rise. Queued bets cleared a lock that never falls: all lie above tuples taken.
        while self._queue:
            best = self._queue[0]
            if best not in self.decisions or best.bet > self._lock:
                return
            heapq.heappop(self._queue)
            if self.decisions[best]:
                self._order(ctx, best)

    def _order(self, ctx, t: BroadcastTuple) -> None:
        if (t.client, t.message) not in self.delivered:
            self.delivered.add((t.client, t.message))
            ctx.emit(tr.APP_DELIVER, instance_payload(t))
