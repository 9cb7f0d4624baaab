"""Event loop semantics: delays, FIFO links, skewed clocks, determinism."""

from __future__ import annotations

import random

import pytest

from fluttersim.errors import BudgetExceededError, ConfigError
from fluttersim.simnet import ClockModel, ExactDelta, Scripted, SeededRandom, Simulator
from fluttersim.trace import DELIVER, SEND, TIMER_FIRE
from fluttersim.types import Time


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
    with pytest.raises(ConfigError):
        sim.run()


class LocalTimerProbe:
    fired_global = None
    fired_local = None

    def on_init(self, ctx):
        ctx.schedule_local(11, "k")

    def on_deliver(self, ctx, src, msg):
        pass

    def on_timer(self, ctx, token):
        LocalTimerProbe.fired_global = ctx.sim.now
        LocalTimerProbe.fired_local = ctx.local_time()


def test_local_timer_honours_clock_offset():
    # Offset +2: local 11 corresponds to global 9.
    LocalTimerProbe.fired_global = None
    sim = Simulator(ExactDelta(5), ClockModel({"p": 2}))
    sim.add_process("p", "server", LocalTimerProbe())
    assert sim.run()
    assert LocalTimerProbe.fired_global == 9
    assert LocalTimerProbe.fired_local == 11


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
    # SeededRandom inlines randint(1, delta): every golden digest rests on the two streams agreeing.
    for delta in range(1, 71):
        strategy, reference = SeededRandom(delta, seed), random.Random(seed)
        assert [strategy.delay("a", "b", i) for i in range(100)] == [reference.randint(1, delta) for _ in range(100)]


class Fanout:
    """Sends Time(t) to every server at each listed local time t, by broadcast or by a send loop."""

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
    assert {e.process for e in broadcast if e.kind == DELIVER} == {"s000", "s001", "s002"}  # servers only
    # One call renders the message once: its Sends share one dict.
    for t in (0, 1, 4):
        assert len({id(e.payload["msg"]) for e in broadcast if e.kind == SEND and e.time == t}) == 1


def test_scripted_table_forces_fifo_repair_on_broadcast():
    trace = fanout_trace(Scripted(10, FIFO_REPAIR), False)
    at = {(e.process, e.payload["msg"]["time"]): e.time for e in trace if e.kind == DELIVER}
    assert at[("s001", 1)] == 10 and at[("s002", 1)] == 9 and at[("s002", 4)] == 9  # held behind earlier sends
