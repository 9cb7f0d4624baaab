"""Byzantine process behaviors.

Each behavior replaces a process handler wholesale: it may send
arbitrary well-formed wire messages on real links but cannot forge
sender identity, drop other processes' traffic, or act outside the
network model. A behavior sees only its own inbox, its local clock and
the global time: there is no shared scratchpad and no trace access.
"""

from __future__ import annotations

from .types import BroadcastTuple, InstanceKey, Message, Suggest, Time
from . import trace as tr


def _sighted_key(src: str, msg) -> InstanceKey | None:
    if isinstance(msg, Suggest):
        return msg.instance
    if isinstance(msg, Message):
        return BroadcastTuple(msg.bet, src, msg.message)
    return None


class Behavior:
    """A fault behavior: its slot, its declared params, no-op handler hooks.

    `params` maps each accepted param name to the JSON type of its value
    ("bool", "hex" or "strs"; see `scenario`), or to a tuple of its allowed
    values, the default first. Scenario parsing rejects any other key or
    value, and stores a hex value lowercase, so the handlers can trust what
    they read. A param is declared only while a bundled scenario sets it;
    every other knob is a constant. `needs_client` marks a behavior that
    parsing admits only into a scenario with a client. A behavior is built
    as cls(name, delta, params).
    """

    role = "server"
    params: dict[str, object] = {}
    needs_client = False

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

    params = {"mode": ("split", "all_false"), "instances": "strs", "react": "bool"}

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
            ctx.send(server, Suggest(key, self.mode == "split" and i < half))

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
    """Floods clock reports 1000 past its real local time, in at most 64 rounds."""

    def __init__(self, name: str, delta: int, params: dict):
        super().__init__(name, delta, params)
        # Two liars echoing each other would blast forever; a finite budget
        # keeps every run quiescent without weakening the single-liar case.
        self.blasts_left = 64
        self.last_blast: int | None = None

    def _blast(self, ctx) -> None:
        if self.blasts_left <= 0 or self.last_blast == ctx.now():
            return
        self.blasts_left -= 1
        self.last_blast = ctx.now()
        ctx.broadcast(Time(ctx.local_time() + 1000))

    def on_init(self, ctx) -> None:
        self._blast(ctx)

    def on_deliver(self, ctx, src: str, msg) -> None:  # its own broadcast never reaches it
        self._blast(ctx)


class ObserveForger(Behavior):
    """Votes True on a forged tuple: message f00d, bet 5 delta ahead, from the first client, which never sent it."""

    needs_client = True

    def __init__(self, name: str, delta: int, params: dict):
        super().__init__(name, delta, params)
        self.bet_offset = 5 * delta

    def on_init(self, ctx) -> None:
        ctx.broadcast(Suggest(BroadcastTuple(ctx.local_time() + self.bet_offset, ctx.clients[0], "f00d"), True))


class Mute(Behavior):
    """Sends nothing at all."""


class StaleRelay(Behavior):
    """Reports a clock at each tuple's bet before relaying the tuple in a False vote."""

    def __init__(self, name: str, delta: int, params: dict):
        super().__init__(name, delta, params)
        self.seen: set[BroadcastTuple] = set()

    def on_deliver(self, ctx, src: str, msg) -> None:
        key = _sighted_key(src, msg)
        if not isinstance(key, BroadcastTuple) or key in self.seen:
            return
        self.seen.add(key)
        # Time first, Suggest second on every link: FIFO then shows each
        # peer a clock already at the bet before this relay can spot the tuple.
        ctx.broadcast(Time(key.bet))
        ctx.broadcast(Suggest(key, False))


class PartialDisseminator(Behavior):
    """Faulty client: at global time 0 submits, bet 10 delta ahead, to server 0 alone, then goes silent."""

    role = "client"
    params = {"message": "hex"}

    def __init__(self, name: str, delta: int, params: dict):
        super().__init__(name, delta, params)
        self.bet_offset = 10 * delta
        self.message = params.get("message", "fade")

    def on_init(self, ctx) -> None:
        ctx.schedule_global(0, "send")

    def on_timer(self, ctx, token: str) -> None:  # its one timer, "send"
        ctx.emit(tr.BROADCAST, {"message": self.message})
        ctx.send(ctx.servers[0], Message(self.message, ctx.local_time() + self.bet_offset))


BEHAVIORS: dict[str, type[Behavior]] = {
    "equivocator": Equivocator,
    "time_liar": TimeLiar,
    "observe_forger": ObserveForger,
    "mute": Mute,
    "stale_relay": StaleRelay,
    "partial_disseminator": PartialDisseminator,
}
