"""Byzantine process behaviors.

Each behavior replaces a process handler wholesale: it may send
arbitrary well-formed wire messages on real links but cannot forge
sender identity, drop other processes' traffic, or act outside the
network model. A behavior sees only its own inbox, its local clock and
the global time: there is no shared scratchpad and no trace access.
"""

from __future__ import annotations

from .errors import ConfigError
from .types import BroadcastTuple, InstanceKey, Message, Observe, Suggest, Time
from . import trace as tr


def _sighted_key(src: str, msg) -> InstanceKey | None:
    if isinstance(msg, Suggest):
        return msg.instance
    if isinstance(msg, Observe):
        return msg.tuple
    if isinstance(msg, Message):
        return BroadcastTuple(msg.bet, src, msg.message)
    return None


class Behavior:
    """A fault behavior: its slot, its declared params, no-op handler hooks.

    `params` maps each accepted param name to the JSON type of its value
    ("int", "bool", "str", "hex", "ints", "strs"; see `scenario`), or to a
    tuple of its allowed values. Scenario parsing rejects any other key or
    value, and stores a hex value lowercase, so the handlers can trust what
    they read. A behavior is built as cls(name, delta, params).
    """

    role = "server"
    params: dict[str, object] = {}

    def __init__(self, name: str, delta: int, params: dict):
        self.name = name

    def on_init(self, ctx) -> None:
        pass

    def on_timer(self, ctx, token: str) -> None:
        pass

    def on_deliver(self, ctx, src: str, msg) -> None:
        pass


class Equivocator(Behavior):
    """Suggests conflicting consensus inputs to different servers."""

    params = {"mode": ("split", "all_false", "all_true"), "instances": "strs", "react": "bool"}

    def __init__(self, name: str, delta: int, params: dict):
        super().__init__(name, delta, params)
        self.mode = params.get("mode", "split")
        self.initial = params.get("instances", [])
        self.react = params.get("react", True)
        self.seen: set[InstanceKey] = set()

    def _equivocate(self, ctx, key: InstanceKey) -> None:
        if key in self.seen:
            return
        self.seen.add(key)
        half = len(ctx.servers) // 2
        for i, server in enumerate(ctx.servers):
            if self.mode == "split":
                value = i < half
            else:
                value = self.mode == "all_true"
            ctx.send(server, Suggest(key, value))

    def on_init(self, ctx) -> None:
        for label in self.initial:
            self._equivocate(ctx, label)

    def on_deliver(self, ctx, src: str, msg) -> None:
        if not self.react:
            return
        key = _sighted_key(src, msg)
        if key is not None:
            self._equivocate(ctx, key)


class TimeLiar(Behavior):
    """Floods clock reports far from its real local time."""

    params = {"ahead": "int", "max_blasts": "int"}

    def __init__(self, name: str, delta: int, params: dict):
        super().__init__(name, delta, params)
        self.ahead = params.get("ahead", 1000)
        # Two liars echoing each other would blast forever; a finite budget
        # keeps every run quiescent without weakening the single-liar case.
        self.blasts_left = params.get("max_blasts", 64)
        self.last_blast: int | None = None

    def _blast(self, ctx) -> None:
        if self.blasts_left <= 0 or self.last_blast == ctx.now():
            return
        self.blasts_left -= 1
        self.last_blast = ctx.now()
        ctx.broadcast(Time(ctx.local_time() + self.ahead))

    def on_init(self, ctx) -> None:
        self._blast(ctx)

    def on_deliver(self, ctx, src: str, msg) -> None:
        if src != self.name:
            self._blast(ctx)


class ObserveForger(Behavior):
    """Injects an observation for a message no client ever sent."""

    params = {"client": "str", "message": "hex", "bet": "int", "bet_offset": "int"}

    def __init__(self, name: str, delta: int, params: dict):
        super().__init__(name, delta, params)
        self.victim = params.get("client")
        self.message = params.get("message", "f00d")
        self.bet = params.get("bet")
        self.bet_offset = params.get("bet_offset", 5 * delta)

    def on_init(self, ctx) -> None:
        victim = self.victim if self.victim is not None else (ctx.clients[0] if ctx.clients else None)
        if victim is None or victim not in ctx.clients:
            raise ConfigError(f"observe_forger needs an existing victim client, got {victim!r}")
        bet = self.bet if self.bet is not None else ctx.local_time() + self.bet_offset
        ctx.broadcast(Observe(BroadcastTuple(bet, victim, self.message)))


class Mute(Behavior):
    """Sends nothing at all."""


class StaleRelay(Behavior):
    """Reports a clock past each tuple's bet before relaying the tuple."""

    params = {"lead": "int"}

    def __init__(self, name: str, delta: int, params: dict):
        super().__init__(name, delta, params)
        self.lead = params.get("lead", 0)
        self.seen: set[BroadcastTuple] = set()

    def on_deliver(self, ctx, src: str, msg) -> None:
        key = _sighted_key(src, msg)
        if not isinstance(key, BroadcastTuple) or key in self.seen:
            return
        self.seen.add(key)
        # Time first, Observe second on every link: FIFO then shows each
        # peer a clock already past the bet before it can spot the tuple.
        ctx.broadcast(Time(key.bet + self.lead))
        ctx.broadcast(Observe(key))


class PartialDisseminator(Behavior):
    """Faulty client: submits to a strict subset of servers, then goes silent."""

    role = "client"
    params = {"targets": "ints", "at": "int", "bet_offset": "int", "message": "hex"}

    def __init__(self, name: str, delta: int, params: dict):
        super().__init__(name, delta, params)
        self.targets = params.get("targets", [0])
        self.at = params.get("at", 0)
        self.bet_offset = params.get("bet_offset", 10 * delta)
        self.message = params.get("message", "fade")

    def on_init(self, ctx) -> None:
        ctx.schedule_global(self.at, "send")

    def on_timer(self, ctx, token: str) -> None:
        if token != "send":
            return
        for i in self.targets:
            if not 0 <= i < len(ctx.servers):
                raise ConfigError(f"partial_disseminator target {i} out of range")
        ctx.emit(tr.BROADCAST, {"message": self.message})
        submission = Message(self.message, ctx.local_time() + self.bet_offset)
        for i in self.targets:
            ctx.send(ctx.servers[i], submission)


BEHAVIORS: dict[str, type[Behavior]] = {
    "equivocator": Equivocator,
    "time_liar": TimeLiar,
    "observe_forger": ObserveForger,
    "mute": Mute,
    "stale_relay": StaleRelay,
    "partial_disseminator": PartialDisseminator,
}
