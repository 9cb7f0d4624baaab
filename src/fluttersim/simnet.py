"""Deterministic discrete-event simulator.

Reliable authenticated FIFO links with per-message delays in [1, delta],
and a static clock offset per process (`add_process`), which its `Context`
adds to global time and takes from a local-time timer. A send call (a
broadcast is one) renders its message once, draws its copies' delays in
one `strategy.delays(src, dsts)` call, and reaches the sink once, and
consecutive deliveries reach it as one run. Only `emit` (every other
event, TimerFire and DepDecide too) and `send`, each of which hands the
pending run first, and `run()`'s `finally` call the sink; `trace` has its
three calls. Events wait in one list per tick, under a heap of those
ticks, and run tick by tick in push order: one a handler schedules at the
current tick runs later in it. Handlers take zero ticks. Quiescence = no
pending event.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush

from .errors import BudgetExceededError, ConfigError
from .trace import DEP_DECIDE, TIMER_FIRE, Trace, TraceEvent
from .types import SimTime, WireMessage, instance_payload, wire_payload

_DELIVER = 0
_TIMER = 1
_DEP = 2


class ExactDelta:
    """Every message takes exactly delta."""

    def __init__(self, delta: int):
        self.delta = delta

    def delays(self, src: str, dsts) -> list[int]:
        return [self.delta] * len(dsts)


class SeededRandom:
    """Uniform delays in [1, delta], drawn in send order from one stream."""

    def __init__(self, delta: int, seed):
        self.delta = delta
        self.rng = random.Random(seed)
        self._bits = delta.bit_length()

    def delays(self, src: str, dsts) -> list[int]:
        # rng.randint(1, delta) inlined: the same rejection draw from the same stream, one per copy.
        bits, delta, getrandbits = self._bits, self.delta, self.rng.getrandbits
        out = []
        for _ in dsts:
            r = getrandbits(bits)
            while r >= delta:
                r = getrandbits(bits)
            out.append(r + 1)
        return out


class Scripted:
    """Per-link delay lists keyed "src->dst", each taken in its link's send order; unlisted sends take delta."""

    def __init__(self, delta: int, table: dict[str, list[int]]):
        self.delta = delta
        self.left = {link: iter(delays) for link, delays in table.items()}  # each link's delays not yet taken

    def delays(self, src: str, dsts) -> list[int]:
        out = [next(self.left.get(f"{src}->{dst}", iter(())), self.delta) for dst in dsts]
        if not all(1 <= d <= self.delta for d in out):
            raise ConfigError(f"scripted delays {out} from {src} to {list(dsts)} outside [1, {self.delta}]")
        return out


class Context:
    """Per-process handle into the simulator, passed to every handler."""

    __slots__ = ("sim", "name", "offset", "servers", "clients")

    def __init__(self, sim: "Simulator", name: str, offset: int):
        self.sim = sim
        self.name = name
        self.offset = offset  # its static clock offset: local time = global time + offset
        self.servers = sim.servers  # the simulator's own lists, which grow as processes are added
        self.clients = sim.clients

    def local_time(self) -> SimTime:
        return self.sim.now + self.offset

    def send(self, dst: str, msg: WireMessage) -> None:
        self.sim.send(self.name, (dst,), msg)

    def broadcast(self, msg: WireMessage) -> None:
        """Send `msg` to every server, this one included, in server order."""
        self.sim.send(self.name, self.servers, msg)

    def schedule_local(self, fire_at_local: SimTime, token: str) -> None:
        self.sim.schedule_global(self.name, fire_at_local - self.offset, token)

    def schedule_global(self, fire_at: SimTime, token: str) -> None:
        self.sim.schedule_global(self.name, fire_at, token)

    def emit(self, kind: str, payload: dict) -> None:
        self.sim.emit(self.name, kind, payload)

    # Global time. Behaviors may read it freely; the only correct-process
    # caller is a client checking its scripted crash time, which is part of
    # the scenario rather than of the protocol.
    def now(self) -> SimTime:
        return self.sim.now


class Simulator:
    def __init__(self, strategy, *, step_budget: int = 1_000_000):
        self.strategy = strategy
        self.step_budget = step_budget
        self.now: SimTime = 0
        self.trace = Trace()
        self.sink = self.trace  # takes every event and send call; replace it to keep no trace
        self.handlers: dict[str, object] = {}
        self.contexts: dict[str, Context] = {}
        self.servers: list[str] = []
        self.clients: list[str] = []
        self._buckets: dict[SimTime, list] = {}  # time -> its pending (kind, a, b, c, d), in push order
        self._times: list[SimTime] = []  # heap of the times in _buckets
        self._links: dict[str, dict[str, SimTime]] = {}  # src -> dst -> the link's last delivery time
        self._run: list = []  # deliveries (time, dst, payload) not yet handed to the sink, in order
        self._started = False
        self._steps = 0

    def add_process(self, name: str, kind: str, handler, offset: int = 0) -> None:
        if name in self.handlers:
            raise ConfigError(f"duplicate process {name}")
        self.handlers[name] = handler
        self.contexts[name] = Context(self, name, offset)
        (self.servers if kind == "server" else self.clients).append(name)

    def _push(self, time: SimTime, kind: int, a, b, c=None, d=None) -> None:
        if time < self.now:  # past target: fires this tick, after the current handler
            time = self.now
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = self._buckets[time] = []
            heappush(self._times, time)
        bucket.append((kind, a, b, c, d))

    def emit(self, process: str, kind: str, payload: dict) -> None:
        if run := self._run:
            self.sink.deliver(run)
            run.clear()
        self.sink.event(TraceEvent(self.now, process, kind, payload))

    def send(self, src: str, dsts: list[str] | tuple[str, ...], msg: WireMessage) -> None:
        """Send `msg`, rendered once, from `src` to each of `dsts` in order (all checked first), as one sink call."""
        handlers = self.handlers
        if not all(map(handlers.__contains__, dsts)):
            raise ConfigError(f"send to unknown process {next(d for d in dsts if d not in handlers)}")
        wire = wire_payload(msg)
        delivered = {"src": src, "msg": wire}
        links = self._links.setdefault(src, {})
        now, buckets = self.now, self._buckets
        for dst, delay in zip(dsts, self.strategy.delays(src, dsts)):
            when = now + delay
            if when < (last := links.get(dst, 0)):  # FIFO repair: never deliver before an earlier send
                when = last
            links[dst] = when
            bucket = buckets.get(when)
            if bucket is None:
                bucket = buckets[when] = []
                heappush(self._times, when)
            bucket.append((_DELIVER, src, dst, msg, delivered))
        if dsts:
            if run := self._run:
                self.sink.deliver(run)
                run.clear()
            self.sink.sends(now, src, dsts, wire)

    def schedule_global(self, name: str, when: SimTime, token: str) -> None:
        """Timer at global time `when`: a scenario script's, or a local timer its context has converted."""
        self._push(when, _TIMER, name, token)

    def schedule_dep_decide(self, when: SimTime, server: str, instance, value: bool) -> None:
        self._push(when, _DEP, server, instance, value)

    def start(self) -> None:
        """Run init hooks once, in process insertion order."""
        if self._started:
            return
        self._started = True
        for name, handler in self.handlers.items():
            init = getattr(handler, "on_init", None)
            if init is not None:
                init(self.contexts[name])

    def run(self, until: SimTime | None = None) -> bool:
        """Process events until quiescence or past `until`.

        Returns True iff no event is pending (quiescence). A cutoff runs
        every event of each tick up to `until`, those handlers add at that
        tick included, and leaves later ticks pending, so a later call
        resumes where it stopped. A run that raised cannot be resumed.
        """
        self.start()
        buckets, times, handlers, contexts = self._buckets, self._times, self.handlers, self.contexts
        run, budget, steps, emit, pend = self._run, self.step_budget, self._steps, self.emit, self._run.append
        try:
            while times:
                time = times[0]
                if until is not None and time > until:
                    return False
                heappop(times)
                self.now = time
                for kind, a, b, c, d in buckets[time]:  # also reaches entries handlers append at `time`
                    steps += 1
                    if steps > budget:
                        raise BudgetExceededError(f"no quiescence after {budget} events")
                    if kind == _DELIVER:
                        pend((time, b, d))
                        handlers[b].on_deliver(contexts[b], a, c)
                    elif kind == _TIMER:
                        emit(a, TIMER_FIRE, {"token": b})
                        handlers[a].on_timer(contexts[a], b)
                    else:  # _DEP: decide indication from the weak-consensus oracle
                        emit(a, DEP_DECIDE, {"instance": instance_payload(b), "value": c})
                        handlers[a].on_dep_decide(contexts[a], b, c)
                del buckets[time]
            return True
        finally:
            self._steps = steps
            if run:  # the sink reads a run only during its call
                self.sink.deliver(run)
                run.clear()
