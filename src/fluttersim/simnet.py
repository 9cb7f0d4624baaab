"""Deterministic discrete-event simulator.

Reliable authenticated FIFO links with per-message delays in [1, delta],
and a static clock offset per process (`add_process`), which its `Context`
adds to global time and takes from a local-time timer. No link leads from
a process to itself: a broadcast goes to every other server, and a server
takes its own copy in the step that sends it. A send call (a broadcast is
one) draws its copies' delays in one `strategy.delays(src, dsts)` call,
gives them one Deliver payload, and reaches the sink once; consecutive
deliveries reach it as one run. Intern tables keep one dict per run for
each distinct message (keyed by its class and field types too), timer
token, and `fact`. Only `emit` (every other event) and `send`, each
handing the pending run first, and `run()`'s `finally` call the sink.
Events wait in one list per tick, under a heap of those ticks, and run
tick by tick in push order: one a handler schedules at the current tick
runs later in it. Each `run` call looks up every process's deliver hook
and context once. Handlers take zero ticks. Quiescence = no pending event.

The simulator owns each process's handler and context. A context, and
the dep oracle a server holds, point back at it, so they make cycles
until `close()` unhooks the sink and drops both; then reference counting
frees the run. `run_checked` closes its simulator; one from
`build_simulation` stays open, to be inspected after `run()`.
"""

from __future__ import annotations

import random
from functools import cache
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


@cache
def _byte_draws(delta: int) -> tuple[bytes, bytes]:
    """For delta below 256: the `translate` table that maps a word's top byte to its delay, and the bytes it drops."""
    bits = delta.bit_length()
    run = 1 << (8 - bits)  # the top bytes that make one draw; the last draw, 2**bits - 1, is never below delta
    return (b"".join(bytes((draw + 1,)) * run for draw in range((1 << bits) - 1)) + bytes(run),
            bytes(range(delta * run, 256)))


class SeededRandom:
    """Uniform delays in [1, delta] drawn in send order from one stream: `rng.randint(1, delta)`'s values.

    randint keeps the top delta.bit_length() bits of a 32-bit word, drawing again while they reach delta. Below 256
    they lie in the word's top byte, every fourth of a block of `_WORDS` words read little-endian, and one `translate`
    maps each accepted draw to its delay and drops the rest. The rng is private, so drawing ahead changes no delay.
    """

    _WORDS = 256

    def __init__(self, delta: int, seed):
        self.delta = delta
        self.rng = random.Random(seed)
        self._drawn, self._taken = b"", 0  # a block of delays, one per byte, and how many of them are taken
        self._table = _byte_draws(delta) if delta < 256 else None  # from 256 on, each delay is drawn on its own

    def delays(self, src: str, dsts) -> list[int]:
        if self._table is None:
            return [self.rng.randint(1, self.delta) for _ in dsts]
        drawn, start = self._drawn, self._taken
        end = start + len(dsts)
        while end > len(drawn):
            words = self.rng.getrandbits(32 * self._WORDS).to_bytes(4 * self._WORDS, "little")
            drawn = self._drawn = drawn[start:] + words[3::4].translate(*self._table)
            start, end = 0, end - start
        self._taken = end
        return list(drawn[start:end])


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

    __slots__ = ("sim", "name", "offset", "servers", "clients", "peers", "fact")

    def __init__(self, sim: "Simulator", name: str, offset: int, peers: list[str]):
        self.sim = sim
        self.name = name
        self.offset = offset  # its static clock offset: local time = global time + offset
        self.servers = sim.servers  # the simulator's own lists, which grow as processes are added
        self.clients = sim.clients
        self.peers = peers  # every server but this process, in server order; it grows as servers are added
        self.fact = sim.fact  # the run's one payload of an instance fact, so handlers build no dicts

    def local_time(self) -> SimTime:
        return self.sim.now + self.offset

    def send(self, dst: str, msg: WireMessage) -> None:
        self.sim.send(self.name, (dst,), msg)

    def broadcast(self, msg: WireMessage) -> None:
        """Send `msg` to every server but this process, in server order; a server takes its own copy itself."""
        self.sim.send(self.name, self.peers, msg)

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
        self._wires: dict[tuple, dict] = {}  # (class, message, its field types) -> the run's one wire dict of it
        self._facts: dict[tuple, dict] = {}  # (instance key, a bool value or None) -> the run's one payload of it
        self._tokens: dict[str, dict] = {}  # timer token -> the run's one TimerFire payload of it
        self._started = False
        self._steps = 0

    def add_process(self, name: str, kind: str, handler, offset: int = 0) -> None:
        if name in self.handlers:
            raise ConfigError(f"duplicate process {name}")
        self.handlers[name] = handler
        if kind == "server":
            for other in self.servers:
                self.contexts[other].peers.append(name)
        peers = self.servers.copy() if kind == "server" else self.servers  # a client's peers are all the servers
        self.contexts[name] = Context(self, name, offset, peers)
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

    def fact(self, key, value=None) -> dict:
        """The run's one `instance_payload(key)`, or with a bool `value` its one {"instance": that, "value": value}."""
        return self._facts.get((key, value)) or self._facts.setdefault(
            (key, value), instance_payload(key) if value is None else {"instance": self.fact(key), "value": value})

    def send(self, src: str, dsts: list[str] | tuple[str, ...], msg: WireMessage) -> None:
        """Send `msg` from `src` to each of `dsts` in order (all checked first), as one sink call."""
        handlers = self.handlers
        if not all(map(handlers.__contains__, dsts)):
            raise ConfigError(f"send to unknown process {next(d for d in dsts if d not in handlers)}")
        # Equal named tuples may differ in class or field types (Suggest("ab", True) == Message("ab", 1)), so the key
        # holds both. A wire message has one to three fields, each its first, middle or last: indexing beats `map`.
        key = (type(msg), msg, type(msg[0]), type(msg[len(msg) // 2]), type(msg[-1]))
        wire = self._wires.get(key) or self._wires.setdefault(key, wire_payload(msg))
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

    def close(self) -> None:
        """Unhook the sink and drop the processes, so what the run built is freed by reference counting."""
        self.sink = self.trace
        self.handlers.clear()
        self.contexts.clear()

    def run(self, until: SimTime | None = None) -> bool:
        """Process events until quiescence or past `until`.

        Returns True iff no event is pending (quiescence). A cutoff runs
        every event of each tick up to `until`, those handlers add at that
        tick included, and leaves later ticks pending, so a later call
        resumes where it stopped. A run that raised cannot be resumed.
        """
        self.start()
        buckets, times, handlers, contexts = self._buckets, self._times, self.handlers, self.contexts
        receivers = {name: (handler.on_deliver, contexts[name]) for name, handler in handlers.items()}
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
                        on_deliver, ctx = receivers[b]
                        on_deliver(ctx, a, c)
                    elif kind == _TIMER:
                        emit(a, TIMER_FIRE, self._tokens.get(b) or self._tokens.setdefault(b, {"token": b}))
                        handlers[a].on_timer(contexts[a], b)
                    else:  # _DEP: decide indication from the weak-consensus oracle
                        emit(a, DEP_DECIDE, self.fact(b, c))
                        handlers[a].on_dep_decide(contexts[a], b, c)
                del buckets[time]
            return True
        finally:
            self._steps = steps
            if run:  # the sink reads a run only during its call
                self.sink.deliver(run)
                run.clear()
