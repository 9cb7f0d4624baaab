"""Event loop semantics: delays, FIFO links, skewed clocks, determinism."""

from __future__ import annotations

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluttersim import simnet
from fluttersim.errors import BudgetExceededError, ConfigError
from fluttersim.simnet import ExactDelta, Scripted, SeededRandom, Simulator
from fluttersim.trace import DELIVER, DEP_DECIDE, SEND, TIMER_FIRE, Trace, TraceEvent
from fluttersim.types import Time, instance_payload, wire_payload


class Sink:
    def on_init(self, ctx):
        pass

    def on_deliver(self, ctx, src, msg):
        pass

    def on_timer(self, ctx, token):
        pass


class SendAt:
    """Sends Time(i) to `dst` at each listed local time."""

    def __init__(self, dst, times):
        self.dst = dst
        self.times = times

    def on_init(self, ctx):
        for i, t in enumerate(self.times):
            ctx.schedule_local(t, str(i))

    def on_deliver(self, ctx, src, msg):
        pass

    def on_timer(self, ctx, token):
        ctx.send(self.dst, Time(int(token)))


def deliveries(sim):
    return [
        (e.time, e.payload["msg"]["time"])
        for e in sim.trace
        if e.kind == DELIVER
    ]


def test_exact_delta_delivers_at_send_plus_delta():
    sim = Simulator(ExactDelta(10))
    sim.add_process("a", "server", SendAt("b", [0, 3]))
    sim.add_process("b", "server", Sink())
    assert sim.run()
    assert deliveries(sim) == [(10, 0), (13, 1)]


def test_fifo_repair_holds_fast_message_behind_slow_one():
    # a->b delays scripted 10 then 2: the second send (t=1) would land at
    # t=3, before the first (t=10); FIFO forces both out at t=10.
    sim = Simulator(Scripted(10, {"a->b": [10, 2]}))
    sim.add_process("a", "server", SendAt("b", [0, 1]))
    sim.add_process("b", "server", Sink())
    assert sim.run()
    assert deliveries(sim) == [(10, 0), (10, 1)]


@pytest.mark.parametrize("bad_delay", [0, 11])
def test_scripted_rejects_delay_outside_bounds(bad_delay):
    sim = Simulator(Scripted(10, {"a->b": [bad_delay]}))
    sim.add_process("a", "server", SendAt("b", [0]))
    sim.add_process("b", "server", Sink())
    with pytest.raises(ConfigError):
        sim.run()


def test_scripted_links_take_their_own_lists_in_order():
    # Two links interleave their sends, in one call and across calls: each takes the next entry of its own list.
    strategy = Scripted(10, {"a->b": [3, 5, 7], "a->c": [2, 4]})
    assert strategy.delays("a", ["b", "c"]) == [3, 2]
    assert strategy.delays("a", ["c"]) == [4]
    assert strategy.delays("a", ["b", "c", "b"]) == [5, 10, 7]
    assert strategy.delays("c", ["b"]) == strategy.delays("a", ["b"]) == [10]
    assert strategy.delays("a", []) == []


def test_scripted_falls_back_to_delta_when_list_exhausted():
    sim = Simulator(Scripted(10, {"a->b": [2]}))
    sim.add_process("a", "server", SendAt("b", [0, 0]))
    sim.add_process("b", "server", Sink())
    assert sim.run()
    times = sorted(t for t, _ in deliveries(sim))
    assert times == [2, 10]


def test_send_to_unknown_process_is_config_error():
    sim = Simulator(ExactDelta(5))
    sim.add_process("a", "server", SendAt("ghost", [0]))
    with pytest.raises(ConfigError, match="duplicate process a"):
        sim.add_process("a", "client", Sink())
    with pytest.raises(ConfigError):
        sim.run()


def test_a_send_call_with_an_unknown_destination_sends_no_copy():
    # Every destination is checked before any copy is scheduled or handed to the sink.
    sim = Simulator(Scripted(10, {"a->b": [3, 4]}))
    for name in "ab":
        sim.add_process(name, "server", Sink())
    with pytest.raises(ConfigError, match="ghost"):
        sim.send("a", ["b", "ghost", "a"], Time(1))
    assert len(sim.trace) == 0 and sim._links == {} and sim._times == []
    sim.send("a", ["b"], Time(2))  # the failed call drew no delay: this copy takes the link's first one
    assert sim.run()
    assert [(e.time, e.kind, e.process) for e in sim.trace] == [(0, SEND, "a"), (3, DELIVER, "b")]


class LocalTimerProbe:
    """At global time 5, schedules one local timer `ahead` ticks past its local clock (negative: in the past)."""

    def __init__(self, ahead):
        self.ahead = ahead
        self.fired = []  # (global, local) time of each fire of that timer

    def on_init(self, ctx):
        ctx.schedule_global(5, "start")

    def on_deliver(self, ctx, src, msg):
        pass

    def on_timer(self, ctx, token):
        if token == "start":
            ctx.schedule_local(ctx.local_time() + self.ahead, "k")
        else:
            self.fired.append((ctx.sim.now, ctx.local_time()))


@pytest.mark.parametrize("ahead", [-3, 0, 4])
@pytest.mark.parametrize("offset", [-2, 0, 2])
def test_local_timer_honours_clock_offset(offset, ahead):
    # A timer for local time `target` fires at global max(target - offset, now), so never before `target` on the
    # process's clock, and on it unless `target` had passed: the server's due timer relies on this.
    probe = LocalTimerProbe(ahead)
    sim = Simulator(ExactDelta(5))
    sim.add_process("p", "server", probe, offset)
    assert sim.run()
    target = 5 + offset + ahead
    ((fired, local),) = probe.fired
    assert fired == max(target - offset, 5)
    assert local >= target
    assert local == target or ahead < 0


class PastTimer:
    order = []

    def on_init(self, ctx):
        ctx.schedule_local(0, "first")

    def on_deliver(self, ctx, src, msg):
        pass

    def on_timer(self, ctx, token):
        PastTimer.order.append((ctx.sim.now, token))
        if token == "first":
            ctx.schedule_local(ctx.local_time() - 5, "past")
            PastTimer.order.append((ctx.sim.now, "after-schedule"))


def test_past_timer_clamps_to_now_and_fires_after_handler():
    PastTimer.order = []
    sim = Simulator(ExactDelta(5))
    sim.add_process("q", "server", PastTimer())
    assert sim.run()
    assert PastTimer.order == [(0, "first"), (0, "after-schedule"), (0, "past")]


def test_seeded_delays_stay_in_bounds_and_replay_identically():
    def trace_lines(seed):
        sim = Simulator(SeededRandom(10, seed))
        sim.add_process("a", "server", SendAt("b", list(range(8))))
        sim.add_process("b", "server", Sink())
        sim.run()
        return [e.to_line() for e in sim.trace]

    assert trace_lines(42) == trace_lines(42)
    assert trace_lines(42) != trace_lines(43)

    sim = Simulator(SeededRandom(10, 42))
    sim.add_process("a", "server", SendAt("b", list(range(8))))
    sim.add_process("b", "server", Sink())
    sim.run()
    sends = {e.payload["msg"]["time"]: e.time for e in sim.trace if e.kind == SEND}
    for t, msg_id in deliveries(sim):
        dt = t - sends[msg_id]
        assert 1 <= dt <= 10


class SameTick:
    """At local 20, schedules a timer for the current time and sends Time(1) to b."""

    def on_init(self, ctx):
        ctx.schedule_local(20, "first")

    def on_deliver(self, ctx, src, msg):
        pass

    def on_timer(self, ctx, token):
        if token == "first":
            ctx.schedule_local(ctx.local_time(), "again")
            ctx.send("b", Time(1))


def test_run_until_cutoff_preserves_pending_events():
    sim = Simulator(ExactDelta(10))
    sim.add_process("a", "server", SendAt("b", [0, 50]))
    sim.add_process("b", "server", Sink())
    quiescent = sim.run(until=20)
    assert not quiescent
    assert deliveries(sim) == [(10, 0)]
    # the held-back delivery is still queued: resuming delivers it on time
    assert sim.run()
    assert deliveries(sim) == [(10, 0), (60, 1)]

    # A timer a handler schedules at now, in the last tick the cutoff admits, runs in that tick.
    def same_tick():
        sim = Simulator(ExactDelta(10))
        sim.add_process("a", "server", SameTick())
        sim.add_process("b", "server", Sink())
        return sim

    cut = same_tick()
    assert not cut.run(until=20)
    assert [(e.time, e.payload["token"]) for e in cut.trace if e.kind == TIMER_FIRE] == [(20, "first"), (20, "again")]
    assert deliveries(cut) == []
    assert cut.run()
    whole = same_tick()
    assert whole.run()
    assert deliveries(whole) == [(30, 1)]
    assert [e.to_line() for e in cut.trace] == [e.to_line() for e in whole.trace]


def test_step_budget_exceeded_raises():
    class PingPong:
        def on_init(self, ctx):
            ctx.send("b" if ctx.name == "a" else "a", Time(0))

        def on_deliver(self, ctx, src, msg):
            ctx.send(src, Time(msg.time + 1))

        def on_timer(self, ctx, token):
            pass

    sim = Simulator(ExactDelta(5), step_budget=100)
    sim.add_process("a", "server", PingPong())
    sim.add_process("b", "server", PingPong())
    with pytest.raises(BudgetExceededError):
        sim.run()

    # The edge: three timer fires and three deliveries quiesce on a budget of six, and raise on five.
    def six_events(budget):
        sim = Simulator(ExactDelta(5), step_budget=budget)
        sim.add_process("a", "server", SendAt("b", [0, 1, 1]))
        sim.add_process("b", "server", Sink())
        return sim

    sim = six_events(6)
    assert sim.run()
    assert len([e for e in sim.trace if e.kind in (TIMER_FIRE, DELIVER)]) == 6
    with pytest.raises(BudgetExceededError):
        six_events(5).run()


def test_on_init_runs_in_insertion_order_before_any_event():
    seen = []

    class Greeter:
        def __init__(self, tag):
            self.tag = tag

        def on_init(self, ctx):
            seen.append(self.tag)

        def on_deliver(self, ctx, src, msg):
            pass

        def on_timer(self, ctx, token):
            pass

    sim = Simulator(ExactDelta(5))
    for tag in ("x", "y", "z"):
        sim.add_process(tag, "server", Greeter(tag))
    sim.run()
    assert seen == ["x", "y", "z"]


def test_timer_fire_traced():
    sim = Simulator(ExactDelta(5))
    sim.add_process("a", "server", SendAt("b", [4]))
    sim.add_process("b", "server", Sink())
    sim.run()
    fires = [e for e in sim.trace if e.kind == TIMER_FIRE]
    assert len(fires) == 1
    assert fires[0].time == 4
    assert fires[0].process == "a"


@pytest.mark.parametrize("seed", [0, 104729, "fluttersim"])
def test_seeded_delays_are_the_randint_stream(seed):
    # SeededRandom draws randint(1, delta)'s values, a block at a time below delta 256 and one by one from 256 on:
    # every golden digest rests on the two streams agreeing.
    for chunk in (1, 6, 16):  # one send call's copies draw in one `delays` call
        calls = -(-100 // chunk)
        for delta in [*range(1, 71), 127, 128, 255, 256, 1000]:
            strategy, reference = SeededRandom(delta, seed), random.Random(seed)
            drawn = [d for _ in range(calls) for d in strategy.delays("a", ["b"] * chunk)]
            assert drawn == [reference.randint(1, delta) for _ in range(calls * chunk)]
    # 100-copy calls until one takes the end of a block and the start of the next, then a call longer than a block.
    for delta in (1, 10, 255):
        strategy, reference = SeededRandom(delta, seed), random.Random(seed)
        spans = False
        while not spans:
            spans = 0 < len(strategy._drawn) - strategy._taken < 100
            assert strategy.delays("a", ["b"] * 100) == [reference.randint(1, delta) for _ in range(100)]
        assert strategy.delays("a", ["b"] * 1000) == [reference.randint(1, delta) for _ in range(1000)]


class Fanout:
    """Sends Time(t) to every other server at each listed local time t, by broadcast or by a send loop."""

    def __init__(self, times, loop):
        self.times = times
        self.loop = loop

    def on_init(self, ctx):
        for t in self.times:
            ctx.schedule_local(t, str(t))

    def on_deliver(self, ctx, src, msg):
        pass

    def on_timer(self, ctx, token):
        msg = Time(int(token))
        if self.loop:
            for server in ctx.servers:
                if server != ctx.name:
                    ctx.send(server, msg)
        else:
            ctx.broadcast(msg)


FIFO_REPAIR = {"s000->s001": [10, 2], "s000->s002": [9, 1, 1]}  # later sends would overtake earlier ones


def fanout_trace(strategy, loop):
    sim = Simulator(strategy)
    sim.add_process("s000", "server", Fanout([0, 1, 4], loop))
    for name in ("s001", "s002"):
        sim.add_process(name, "server", Sink())
    sim.add_process("c000", "client", Sink())
    assert sim.run()
    return sim.trace


@pytest.mark.parametrize(
    "strategy",
    [lambda: ExactDelta(10), lambda: SeededRandom(10, 7), lambda: Scripted(10, FIFO_REPAIR)],
    ids=["exact", "seeded", "scripted-fifo-repair"],
)
def test_broadcast_matches_a_send_loop(strategy):
    looped, broadcast = fanout_trace(strategy(), True), fanout_trace(strategy(), False)
    assert [(e.time, e.process, e.kind, e.payload) for e in broadcast] == [
        (e.time, e.process, e.kind, e.payload) for e in looped
    ]
    assert {e.process for e in broadcast if e.kind == DELIVER} == {"s001", "s002"}  # the other servers only
    # One call renders the message once: its Sends share one dict.
    for t in (0, 1, 4):
        assert len({id(e.payload["msg"]) for e in broadcast if e.kind == SEND and e.time == t}) == 1


def test_a_broadcast_reaches_every_server_but_its_sender():
    # A server's peers grow with each server added after it; a client is no server, so it reaches all n.
    sim = Simulator(ExactDelta(1))
    for name in ("s000", "s001"):
        sim.add_process(name, "server", Sink())
    sim.add_process("c000", "client", Sink())
    sim.add_process("s002", "server", Sink())
    peers = {name: ctx.peers for name, ctx in sim.contexts.items()}
    assert peers == {"s000": ["s001", "s002"], "s001": ["s000", "s002"], "s002": ["s000", "s001"],
                     "c000": ["s000", "s001", "s002"]}
    for name in ("s001", "c000"):
        sim.contexts[name].broadcast(Time(0))
    assert sim.run()
    assert [(e.process, e.payload["dst"]) for e in sim.trace if e.kind == SEND] == [
        ("s001", "s000"), ("s001", "s002"), ("c000", "s000"), ("c000", "s001"), ("c000", "s002")]


def test_scripted_table_forces_fifo_repair_on_broadcast():
    trace = fanout_trace(Scripted(10, FIFO_REPAIR), False)
    at = {(e.process, e.payload["msg"]["time"]): e.time for e in trace if e.kind == DELIVER}
    assert at[("s001", 1)] == 10 and at[("s002", 1)] == 9 and at[("s002", 4)] == 9  # held behind earlier sends


class HeapSimulator(Simulator):
    """The reference event loop: one heap of (time, seq, kind, a, b, c, d), popped one event at a time."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._heap = []
        self._seq = 0

    def _push(self, time, kind, a, b, c=None, d=None):
        self._seq += 1
        heapq.heappush(self._heap, (max(time, self.now), self._seq, kind, a, b, c, d))

    def send(self, src, dsts, msg):
        wire = wire_payload(msg)
        delivered = {"src": src, "msg": wire}
        links = self._links.setdefault(src, {})
        for dst in dsts:
            if dst not in self.handlers:
                raise ConfigError(f"send to unknown process {dst}")
        for dst, delay in zip(dsts, self.strategy.delays(src, dsts)):
            when = links[dst] = max(self.now + delay, links.get(dst, 0))
            self._push(when, simnet._DELIVER, src, dst, msg, delivered)
        if dsts:
            self.sink.sends(self.now, src, dsts, wire)

    def run(self, until=None):
        self.start()
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                return False
            self._steps += 1
            if self._steps > self.step_budget:
                raise BudgetExceededError(f"no quiescence after {self.step_budget} events")
            time, _seq, kind, a, b, c, d = heapq.heappop(self._heap)
            self.now = time
            if kind == simnet._DELIVER:  # each delivery a run of its own
                self.sink.deliver([(time, b, d)])
                self.handlers[b].on_deliver(self.contexts[b], a, c)
            elif kind == simnet._TIMER:
                self.sink.event(TraceEvent(time, a, TIMER_FIRE, {"token": b}))
                self.handlers[a].on_timer(self.contexts[a], b)
            else:
                self.sink.event(TraceEvent(time, a, DEP_DECIDE, {"instance": instance_payload(b), "value": c}))
                self.handlers[a].on_dep_decide(self.contexts[a], b, c)
        return True


PROBES = ("p0", "p1", "p2", "q0")  # three servers and a client
ACTION = st.one_of(
    st.tuples(st.just("timer"), st.integers(-3, 3)),  # local timer in the past, at now, or ahead
    st.tuples(st.just("send"), st.sampled_from(PROBES)),
    st.tuples(st.just("broadcast"), st.just(0)),
    st.tuples(st.just("dep"), st.integers(-2, 3)),  # dep decide at a global time, clamped to now if past
)


class Probe:
    """Logs every handler call; its k-th call performs the k-th action list of its script."""

    def __init__(self, script, calls):
        self.script = script
        self.calls = calls
        self.k = 0

    def act(self, ctx, kind, arg):
        self.calls.append((ctx.sim.now, ctx.name, kind, arg))
        actions = self.script[self.k] if self.k < len(self.script) else []
        self.k += 1
        for i, (what, x) in enumerate(actions):
            tag = f"{ctx.name}.{self.k}.{i}"
            if what == "timer":
                ctx.schedule_local(ctx.local_time() + x, tag)
            elif what == "send":
                ctx.send(x, Time(self.k))
            elif what == "broadcast":
                ctx.broadcast(Time(self.k))
            else:
                ctx.sim.schedule_dep_decide(ctx.sim.now + x, ctx.name, tag, self.k % 2 == 0)

    def on_init(self, ctx):
        self.act(ctx, "init", None)

    def on_deliver(self, ctx, src, msg):
        self.act(ctx, "deliver", (src, msg.time))

    def on_timer(self, ctx, token):
        self.act(ctx, "timer", token)

    def on_dep_decide(self, ctx, instance, value):
        self.act(ctx, "dep", (instance, value))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    scripts=st.lists(st.lists(st.lists(ACTION, max_size=3), max_size=6), min_size=4, max_size=4),
    delta=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    offsets=st.lists(st.integers(-2, 2), min_size=4, max_size=4),
    until=st.none() | st.integers(0, 12),
)
def test_event_order_matches_the_reference_heap_loop(scripts, delta, seed, offsets, until):
    def run(cls):
        calls = []
        sim = cls(SeededRandom(delta, seed))
        sim.trace = sim.sink = RunLog()
        for name, script, offset in zip(PROBES, scripts, offsets):
            sim.add_process(name, "client" if name.startswith("q") else "server", Probe(script, calls), offset)
        cut = sim.run(until)
        at_cut = (cut, sim.now, len(calls), len(sim.trace))
        assert sim.run()
        return at_cut, calls, sim.trace.deliveries, [e.to_line() for e in sim.trace]

    # The simulator's runs, flattened, hand the sink the reference loop's deliveries, one per copy, in its order.
    assert run(Simulator) == run(HeapSimulator)


class RunLog(Trace):
    """A kept trace that also logs every delivery it is handed, in order, whatever run it came in."""

    def __init__(self):
        super().__init__()
        self.deliveries = []

    def deliver(self, run):
        super().deliver(run)
        self.deliveries.extend(run)
