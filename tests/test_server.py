"""Server ordering core: lock time, spotting, the due timer, in-order release."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluttersim.adversary import BEHAVIORS
from fluttersim.checkers import CheckerConfig, _lock_rank, _ServerInvariants
from fluttersim.runner import build_simulation, campaign_variant, run_checked
from fluttersim.scenario import BroadcastScript, ClientSpec, Scenario, load_scenario, parse_scenario
from fluttersim.server import FlutterServer
from fluttersim.simnet import ExactDelta, Simulator
from fluttersim.trace import APP_DELIVER, DECIDE, DELIVER, SEND
from fluttersim.types import NEG_INF, BroadcastTuple, Message, Suggest, Time, quorum_large

from conftest import SCENARIOS_DIR, simulate
from test_checkers import late_spot_scenario
from test_golden import LARGE_RUN_DIGESTS, _large_run
from test_mutants import mutant

SERVERS = [f"s{i:03d}" for i in range(6)]
PEERS = SERVERS[1:]  # every server but FakeCtx's s000, which takes its own copy of a broadcast in the step it sends


def lock_bruteforce(times, f):
    """Largest t with at least 4f+1 entries >= t; second route for checking."""
    q = quorum_large(f)
    for t in sorted(set(times.values()), reverse=True):
        if sum(1 for v in times.values() if v >= t) >= q:
            return t
    return NEG_INF


def make_server():
    srv = FlutterServer("s000", 1, oracle=None)
    srv._server_set = frozenset(SERVERS)
    srv._client_set = frozenset(["c000"])
    srv.remote_times = {s: NEG_INF for s in SERVERS}
    return srv


class FakeCtx:
    name = "s000"
    servers = SERVERS
    clients = ["c000"]

    def __init__(self, local=0):
        self.local = local
        self.sent = []
        self.timers = []
        self.emitted = []
        self.fact = Simulator(ExactDelta(1)).fact  # a run's payload tables, as a real context reaches them

    def local_time(self):
        return self.local

    def send(self, dst, msg):
        self.sent.append((dst, msg))

    def broadcast(self, msg):
        for server in self.servers:
            if server != self.name:
                self.send(server, msg)

    def schedule_local(self, at, token):
        self.timers.append((at, token))

    def emit(self, kind, payload):
        self.emitted.append((kind, payload))


def set_lock(srv, ctx, time):
    """Every server's Time entry reaches `time`, so the lock time does too."""
    for s in SERVERS:
        srv._on_time(ctx, s, time)


def decide(srv, ctx, t, value):
    """Spotted tuple `t`'s instance decides `value`, as when the dep oracle settles it."""
    srv.instances[t].on_dep_decide(ctx, value)


def delivered_bets(ctx):
    return [p["bet"] for k, p in ctx.emitted if k == APP_DELIVER]


def test_lock_time_frozen_examples():
    srv = make_server()
    srv.remote_times = dict(zip(SERVERS, [10, 10, 10, 10, 10, 3]))
    assert srv.lock_time() == 10
    srv.remote_times = dict(zip(SERVERS, [9, 8, 7, 6, 5, 4]))
    assert srv.lock_time() == 5
    srv.remote_times = {s: NEG_INF for s in SERVERS}
    assert srv.lock_time() == NEG_INF


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=6, max_size=6))
def test_lock_time_matches_bruteforce(values):
    srv = make_server()
    srv.remote_times = dict(zip(SERVERS, values))
    assert srv.lock_time() == lock_bruteforce(srv.remote_times, 1)


@given(
    st.integers(min_value=0, max_value=3),
    st.data(),
)
def test_lock_time_matches_bruteforce_any_f(f, data):
    n = 5 * f + 1
    names = [f"s{i:03d}" for i in range(n)]
    values = data.draw(
        st.lists(st.integers(min_value=-20, max_value=20), min_size=n, max_size=n)
    )
    srv = FlutterServer("s000", f, oracle=None)
    srv.remote_times = dict(zip(names, values))
    assert srv.lock_time() == lock_bruteforce(srv.remote_times, f)


# One Time at a time: (sender, how its entry moves, by how much). "tie" sends the current lock.
HOW = st.sampled_from(["rise", "repeat", "fall", "tie"])
TIME_STEPS = st.lists(st.tuples(st.integers(min_value=0, max_value=15), HOW, st.integers(min_value=1, max_value=4)),
                      max_size=120)


def next_time(entry, lock, how, by):
    base = 0 if entry == NEG_INF else entry
    if how == "tie":
        return 0 if lock == NEG_INF else lock
    return {"rise": base + by, "repeat": base, "fall": base - by}[how]


@pytest.mark.parametrize("f", [1, 2, 3])
@settings(max_examples=200)
@given(steps=TIME_STEPS)
# At f=1: five rises lift the lock to 1, s005 falls to -1 and then ties the lock, which leaves it at 1.
@example(steps=[(i, "rise", 1) for i in range(5)] + [(5, "fall", 1), (5, "tie", 1), (0, "rise", 1)])
def test_lock_kept_by_count_matches_the_sort(f, steps):
    """The server and the checker's replay recompute the lock only once 4f+1 entries lie above it.

    After every Time, each lock must equal the full sort's, and each count the entries above it.
    """
    names = [f"s{i:03d}" for i in range(5 * f + 1)]
    srv = FlutterServer("s000", f, oracle=None)
    srv.remote_times = dict.fromkeys(names, NEG_INF)
    ctx = FakeCtx()
    cfg = CheckerConfig.from_scenario(Scenario(name="lock", kind="flutter", n=len(names), f=f, delta=10), False)
    invariants = _ServerInvariants(cfg)
    replay = invariants.replays["s000"]
    for i, (sender, how, by) in enumerate(steps):
        src = names[sender % len(names)]
        time = next_time(srv.remote_times[src], srv._lock, how, by)
        srv._on_time(ctx, src, time)
        msg = {"kind": "Time", "time": time}
        if src == "s000":  # its own Time: the replay takes it from the send call
            invariants.sends(10**6 + i, src, names[1:], msg)
        else:
            invariants.deliver([(10**6 + i, "s000", {"src": src, "msg": msg})])
        assert srv._lock == srv.lock_time()
        assert srv._above == sum(v > srv._lock for v in srv.remote_times.values())
        assert replay.remote_times == srv.remote_times
        assert replay.lock == _lock_rank(replay.remote_times.values(), f) == srv._lock
        assert replay.above == srv._above
    assert invariants.vs_local is None


def test_spot_known_tuple_sets_no_second_timer():
    srv = make_server()
    ctx = FakeCtx()
    t = BroadcastTuple(11, "c000", "6d")
    srv._spot(ctx, t)
    srv._spot(ctx, t)
    assert ctx.sent == [] and ctx.timers == [(11, "due")]
    assert srv._queue == [t]


def test_the_timer_votes_false_on_a_due_tuple_before_its_time():
    srv = make_server()
    ctx = FakeCtx(local=0)
    t = BroadcastTuple(11, "c000", "6d")
    srv._spot(ctx, t)
    ctx.local = 11  # local clock reached the bet
    srv.on_timer(ctx, "due")
    assert srv.instances[t].self_proposed and srv._due == []
    assert ctx.sent == [(s, Suggest(t, False)) for s in PEERS] + [(s, Time(11)) for s in PEERS]


def test_two_tuples_due_at_one_clock_both_vote_before_the_single_time():
    srv = make_server()
    ctx = FakeCtx(local=0)
    b, a = BroadcastTuple(11, "c001", "02"), BroadcastTuple(11, "c000", "01")
    srv._spot(ctx, b)
    srv._spot(ctx, a)
    assert ctx.timers == [(11, "due"), (11, "due")]
    ctx.local = 11
    srv.on_timer(ctx, "due")
    srv.on_timer(ctx, "due")  # the second timer finds nothing due and no news
    assert ctx.sent == [(s, Suggest(t, False)) for t in (a, b) for s in PEERS] + [(s, Time(11)) for s in PEERS]


def test_the_timer_skips_a_proposed_tuple_and_leaves_a_later_bet():
    srv = make_server()
    ctx = FakeCtx(local=0)
    t, later = BroadcastTuple(11, "c000", "6d"), BroadcastTuple(12, "c000", "6e")
    srv._on_message(ctx, "c000", "6d", 11)
    srv._spot(ctx, later)
    sent_before = len(ctx.sent)
    ctx.local = 11
    srv.on_timer(ctx, "due")
    assert ctx.sent[sent_before:] == [(s, Time(11)) for s in PEERS]
    assert srv._due == [later] and not srv.instance(later).self_proposed


def test_a_late_spot_votes_false_at_its_clamped_timer():
    srv = make_server()
    ctx = FakeCtx(local=20)
    set_lock(srv, ctx, 20)
    t = BroadcastTuple(15, "c000", "6d")
    srv.on_deliver(ctx, "s001", Suggest(t, False))
    assert t not in srv._queue and t in srv.instances
    assert ctx.sent == [] and ctx.timers == [(15, "due")]  # past its bet: the simulator fires it at once
    srv.on_timer(ctx, "due")
    assert ctx.sent == [(s, Suggest(t, False)) for s in PEERS] + [(s, Time(20)) for s in PEERS]


def test_message_in_time_proposes_true_late_proposes_false():
    t = BroadcastTuple(11, "c000", "6d")
    for local, value in ((0, True), (11, False)):  # bet 11 > local 0; bet 11 == local 11 is not strictly ahead
        srv, ctx = make_server(), FakeCtx(local=local)
        srv._on_message(ctx, "c000", "6d", 11)
        assert ctx.sent == [(s, Suggest(t, value)) for s in PEERS]


def test_a_message_first_sight_relays_the_tuple_in_its_suggest_alone():
    srv = make_server()
    ctx = FakeCtx(local=0)
    t = BroadcastTuple(11, "c000", "6d")
    srv.on_deliver(ctx, "c000", Message("6d", 11))
    assert ctx.sent == [(s, Suggest(t, True)) for s in PEERS]
    assert srv.instances[t].suggestions == {"s000": True}  # its own vote, counted in the step it sends it
    assert t in srv.instances and srv._queue == [t]
    assert ctx.timers == [(11, "due")]


def test_a_peer_suggest_first_sight_sends_nothing_and_sets_one_timer():
    srv = make_server()
    ctx = FakeCtx(local=0)
    t = BroadcastTuple(11, "c000", "6d")
    srv.on_deliver(ctx, "s001", Suggest(t, True))
    srv.on_deliver(ctx, "s002", Suggest(t, True))
    assert ctx.sent == [] and ctx.timers == [(11, "due")]
    assert srv._queue == [t] and srv.instances[t].suggestions == {"s001": True, "s002": True}


def test_a_label_suggest_is_dropped():
    # A label names no tuple, and no correct server suggests one: even from every server, a label Suggest makes no
    # instance, sets no timer, and so reaches no dep proposal, decision or ordering.
    srv = make_server()
    ctx = FakeCtx(local=0)
    for server in SERVERS:
        srv.on_deliver(ctx, server, Suggest("x", True))
    assert srv.instances == {} and srv._due == [] and srv._queue == []
    assert ctx.sent == [] and ctx.timers == [] and ctx.emitted == []


def test_a_beat_announces_only_a_clock_above_the_last_time():
    srv = make_server()
    ctx = FakeCtx(local=11)
    srv.on_timer(ctx, "due")
    srv.on_timer(ctx, "due")  # a second beat at the same clock: a repeat, which no receiver would read
    assert ctx.sent == [(s, Time(11)) for s in PEERS]
    ctx.local = 12
    srv.on_timer(ctx, "due")
    assert ctx.sent[5:] == [(s, Time(12)) for s in PEERS]
    assert srv.remote_times["s000"] == srv._announced == 12


def without_repeated_times(trace):
    """`trace` less each Send and each Deliver of a Time not above the last Time of its kind on its link."""
    last, kept = {}, []
    for ev in trace:
        msg = ev.payload.get("msg") if ev.kind in (SEND, DELIVER) else None
        if msg is not None and msg["kind"] == "Time":
            src, dst = (ev.process, ev.payload["dst"]) if ev.kind == SEND else (ev.payload["src"], ev.process)
            link = (ev.kind, src, dst)
            if msg["time"] <= last.get(link, NEG_INF):
                continue
            last[link] = msg["time"]
        kept.append(ev)
    return kept


def test_a_beat_leaves_out_exactly_the_repeated_times(monkeypatch):
    # Two clients broadcast at once, so each server spots two tuples with one bet, and its two beats fire at one
    # clock: on exact_delta links, the trace is the trace of an unconditional beat less the repeats.
    base = load_scenario(SCENARIOS_DIR / "goodcase.json")
    scenario = base.replace(clients=[*base.clients, ClientSpec("c001", 10, [BroadcastScript(0, "6e")])])
    news, quiescent = simulate(scenario)
    assert quiescent
    monkeypatch.setattr(FlutterServer, "on_timer",
                        mutant(FlutterServer, "on_timer", {"if now > self._announced:": "if True:"}))
    every, _ = simulate(scenario)
    assert len(news) < len(every)
    assert news == without_repeated_times(every)


class TimeSends:
    """A simulator sink that keeps each sender's Time values, one per send call."""

    def __init__(self):
        self.times = {}

    def event(self, ev):
        pass

    def deliver(self, run):
        pass

    def sends(self, time, src, dsts, msg):
        if msg["kind"] == "Time":
            self.times.setdefault(src, []).append(msg["time"])


def announced(scenario):
    """Each correct server's Time values, in send order."""
    sim, sink = build_simulation(scenario), TimeSends()
    sim.sink = sink
    sim.run(until=scenario.until)
    return {s: sink.times[s] for s in scenario.correct_servers if s in sink.times}


def announcing_runs():
    """Every bundled flutter scenario, a campaign sample, and the golden large shapes."""
    for path in sorted(SCENARIOS_DIR.glob("*.json")):
        scenario = load_scenario(path)
        if scenario.kind == "flutter":
            yield scenario
    for base in ("campaign_base", "campaign_wide"):
        for behavior in sorted(BEHAVIORS):
            for seed in range(2):
                yield campaign_variant(load_scenario(SCENARIOS_DIR / f"{base}.json"), behavior, "adversarial_value",
                                       seed)
    for shape in sorted(LARGE_RUN_DIGESTS):
        yield parse_scenario(_large_run(shape, 101))


@pytest.mark.parametrize("scenario", list(announcing_runs()), ids=lambda scenario: scenario.name)
def test_each_correct_server_announces_rising_times(scenario):
    times = announced(scenario)
    assert times
    for values in times.values():
        assert all(a < b for a, b in zip(values, values[1:]))


def tuple_named(src: str, msg: dict, clients, servers) -> BroadcastTuple | None:
    """The tuple a delivered wire message makes a server spot: a client's Message or a server's tuple Suggest."""
    kind = msg["kind"]
    if kind == "Message":
        return BroadcastTuple(msg["bet"], src, msg["message"]) if src in clients else None
    named = msg["instance"] if kind == "Suggest" else {}
    return BroadcastTuple(named["bet"], named["client"], named["message"]) if src in servers and "bet" in named else None


class RelayOrder:
    """A simulator sink that follows each correct server's spots and sends.

    `unrelayed` holds, per server, the tuples it spotted while its local clock lay below the bet and has sent no
    Suggest on yet. A correct server sends each Suggest and Time to every other server in one call, so the order of its
    send calls is the order on each FIFO link, and a Time at or above such a bet overtakes the tuple's relay.
    `late_trues` holds each copy of a True vote on a tuple sent on a link after a Time at or above its bet.
    """

    def __init__(self, sim, correct: list[str]):
        self.offsets = {s: sim.contexts[s].offset for s in correct}
        self.clients, self.servers = frozenset(sim.clients), frozenset(sim.servers)
        self.spotted = {s: set() for s in correct}
        self.unrelayed = {s: set() for s in correct}
        self.in_time = 0  # spots before the bet, over all correct servers
        self.overtaken = []  # (server, tuple, the Time sent before the tuple's Suggest)
        self.clock = {}  # (src, dst) -> the highest Time sent on the link
        self.true_copies = 0  # True vote copies on tuples, over all correct servers
        self.late_trues = []  # (src, dst, tuple)

    def event(self, ev):
        pass

    def deliver(self, run):
        for time, dst, delivered in run:
            if dst in self.offsets:
                t = tuple_named(delivered["src"], delivered["msg"], self.clients, self.servers)
                if t is not None and t not in self.spotted[dst]:
                    self.spotted[dst].add(t)
                    if time + self.offsets[dst] < t.bet:
                        self.unrelayed[dst].add(t)
                        self.in_time += 1

    def sends(self, time, src, dsts, msg):
        if src in self.offsets:
            kind = msg["kind"]
            if kind == "Suggest" and "bet" in msg["instance"]:
                t = tuple_named(src, msg, (), self.servers)
                self.unrelayed[src].discard(t)
                if msg["value"]:
                    self.true_copies += len(dsts)
                    self.late_trues += [(src, dst, t) for dst in dsts if self.clock.get((src, dst), NEG_INF) >= t.bet]
            elif kind == "Time":
                self.overtaken += [(src, t, msg["time"]) for t in self.unrelayed[src] if t.bet <= msg["time"]]
                for dst in dsts:
                    self.clock[src, dst] = max(self.clock.get((src, dst), NEG_INF), msg["time"])


def relay_order(scenario) -> RelayOrder:
    sim = build_simulation(scenario)
    sim.sink = order = RelayOrder(sim, scenario.correct_servers)
    sim.run(until=scenario.until)
    return order


@pytest.mark.parametrize("scenario", list(announcing_runs()), ids=lambda scenario: scenario.name)
def test_a_correct_server_relays_each_tuple_it_spots_in_time_before_its_time_passes_the_bet(scenario):
    # A stronger rule than the lock needs: its proof (server.py's docstring) rests only on the True votes, below.
    order = relay_order(scenario)
    assert order.in_time > 0
    assert order.overtaken == []


def true_vote_runs():
    """Every bundled scenario, and campaign variants of both bases: 6 behaviors x 2 policies x seeds 0-4."""
    for path in sorted(SCENARIOS_DIR.glob("*.json")):
        yield load_scenario(path)
    for base in ("campaign_base", "campaign_wide"):
        for behavior in sorted(BEHAVIORS):
            for policy in ("adversarial_value", "adversarial_timing"):
                for seed in range(5):
                    yield campaign_variant(load_scenario(SCENARIOS_DIR / f"{base}.json"), behavior, policy, seed)


def test_each_correct_true_vote_precedes_its_senders_first_time_at_the_bet_on_every_link():
    # The fact the lock's proof uses (server.py's docstring): a True vote leaves before its sender's clock reaches
    # the bet, so every lock holder that counts the sender's Time(>= bet) has spotted the tuple first.
    copies = 0
    for scenario in true_vote_runs():
        order = relay_order(scenario)
        assert order.late_trues == [], scenario.name
        copies += order.true_copies
    assert copies > 10_000


class LateSpots:
    """A simulator sink that replays each correct server's lock as the checker does (`_ServerInvariants`, one input
    at a time), and notes each tuple a correct server first spots when its replayed lock is at or past the bet."""

    def __init__(self, scenario):
        self.invariants = _ServerInvariants(CheckerConfig.from_scenario(scenario, False))
        self.clients, self.servers = frozenset(scenario.client_names), frozenset(scenario.servers)
        self.spotted = {s: set() for s in scenario.correct_servers}
        self.late: set[BroadcastTuple] = set()
        self.decided: dict[BroadcastTuple, dict[str, bool]] = {}  # tuple -> correct server -> its decision

    def sends(self, time, src, dsts, msg):
        self.invariants.sends(time, src, dsts, msg)

    def deliver(self, run):
        for delivery in run:
            _time, dst, delivered = delivery
            if dst in self.spotted:
                t = tuple_named(delivered["src"], delivered["msg"], self.clients, self.servers)
                if t is not None and t not in self.spotted[dst]:
                    self.spotted[dst].add(t)
                    if self.invariants.replays[dst].lock >= t.bet:
                        self.late.add(t)
            self.invariants.deliver([delivery])

    def event(self, ev):
        self.invariants.event(ev)
        if ev.kind == DECIDE and ev.process in self.spotted and "bet" in (named := ev.payload["instance"]):
            t = BroadcastTuple(named["bet"], named["client"], named["message"])
            self.decided.setdefault(t, {})[ev.process] = ev.payload["value"]


def test_a_tuple_first_spotted_at_or_past_the_lock_is_decided_false_everywhere():
    # The lock's proof (server.py's docstring) read the other way round: a tuple that some correct server spots only
    # once its lock has reached the bet is never decided True, so every correct server decides it False. The 128
    # runs spot no tuple late (the nearest spot lies 2 ticks above its lock), so a scripted run adds one.
    late = 0
    for scenario in [*true_vote_runs(), late_spot_scenario()]:
        if scenario.kind != "flutter":
            continue
        sim = build_simulation(scenario)
        sim.sink = spots = LateSpots(scenario)
        assert sim.run(until=scenario.until), scenario.name
        for t in spots.late:
            assert spots.decided.get(t) == dict.fromkeys(scenario.correct_servers, False), (scenario.name, t)
        late += len(spots.late)
    assert late > 0


def send_path_runs():
    """Every bundled scenario, and both campaign bases x 6 behaviors (adversarial_value, seed 0)."""
    for path in sorted(SCENARIOS_DIR.glob("*.json")):
        yield load_scenario(path)
    for base in ("campaign_base", "campaign_wide"):
        for behavior in sorted(BEHAVIORS):
            yield campaign_variant(load_scenario(SCENARIOS_DIR / f"{base}.json"), behavior, "adversarial_value", 0)


class SelfSends:
    """A simulator sink that counts the send calls of correct processes and keeps each one that names its sender."""

    def __init__(self, correct):
        self.correct = correct
        self.calls = 0
        self.to_self = []

    def event(self, ev):
        pass

    def deliver(self, run):
        pass

    def sends(self, time, src, dsts, msg):
        if src in self.correct:
            self.calls += 1
            if src in dsts:
                self.to_self.append((time, src, msg))


def takes_its_own_copies(server, handler, proposals: Counter):
    """`handler`, checked after each call: `server` holds its own suggestion in each instance it proposed on, and a
    FlutterServer's own Time entry is the last Time it announced."""

    def checked(*args):
        handler(*args)
        for instance in server.instances.values():
            if instance.self_proposed:
                assert server.name in instance.suggestions, (server.name, instance.key)
                proposals[server.name] += 1
        if isinstance(server, FlutterServer):
            assert server.remote_times[server.name] == server._announced

    return checked


@pytest.mark.parametrize("scenario", list(send_path_runs()), ids=lambda scenario: scenario.name)
def test_a_correct_process_sends_nothing_to_itself_and_takes_its_own_copies_in_the_step(scenario):
    sim = build_simulation(scenario)
    sim.sink = sink = SelfSends(set(scenario.correct_servers) | set(scenario.correct_clients()))
    proposals = Counter()
    for name in scenario.correct_servers:
        server = sim.handlers[name]
        for hook in ("on_deliver", "on_timer", "on_dep_decide"):
            setattr(server, hook, takes_its_own_copies(server, getattr(server, hook), proposals))
    assert sim.run(until=scenario.until)
    assert sink.calls > 0 and sink.to_self == []
    assert proposals and set(proposals) <= set(scenario.correct_servers)


def test_a_beat_before_the_due_votes_overtakes_a_relay(monkeypatch):
    # The retired mutant `beat-before-due` (tests/test_mutants.py): partial_dissemination's client tells s000 alone,
    # so every other server spots the tuple only in s000's Suggest, and its Time at the bet leaves before its False
    # vote. It moves no True vote, so the fact the lock's proof uses still holds.
    beat = """    if now > self._announced:  # a repeat changes no receiver: FIFO delivered our last Time first
        self._announced = now
        ctx.broadcast(Time(now))
"""
    first = "    now, due = ctx.local_time(), self._due\n"
    monkeypatch.setattr(FlutterServer, "on_timer", mutant(FlutterServer, "on_timer", {beat: "", first: first + beat}))
    order = relay_order(load_scenario(SCENARIOS_DIR / "partial_dissemination.json"))
    assert {server for server, _, _ in order.overtaken} == set(SERVERS[1:])
    assert order.late_trues == [] and order.true_copies > 0


def test_time_updates_are_monotonic_max():
    srv = make_server()
    ctx = FakeCtx()
    srv._on_time(ctx, "s001", 10)
    assert srv.remote_times["s001"] == 10
    srv._on_time(ctx, "s001", 7)  # stale, ignored
    assert srv.remote_times["s001"] == 10


def test_process_next_releases_in_bet_order_after_lock():
    srv = make_server()
    ctx = FakeCtx()
    a = BroadcastTuple(5, "c000", "01")
    b = BroadcastTuple(8, "c000", "02")
    srv._spot(ctx, b)
    srv._spot(ctx, a)
    decide(srv, ctx, b, True)
    decide(srv, ctx, a, True)
    assert delivered_bets(ctx) == []  # lock still -inf
    set_lock(srv, ctx, 9)  # lock = 9 > both bets
    assert delivered_bets(ctx) == [5, 8]
    assert srv._queue == []


def test_process_next_stalls_on_undecided_minimum():
    srv = make_server()
    ctx = FakeCtx()
    a = BroadcastTuple(5, "c000", "01")
    b = BroadcastTuple(8, "c000", "02")
    srv._spot(ctx, a)
    srv._spot(ctx, b)
    decide(srv, ctx, b, True)  # a undecided blocks everything
    set_lock(srv, ctx, 9)
    assert delivered_bets(ctx) == []
    assert sorted(srv._queue) == [a, b]


def test_process_next_stalls_until_lock_passes_bet():
    srv = make_server()
    ctx = FakeCtx()
    a = BroadcastTuple(5, "c000", "01")
    srv._spot(ctx, a)
    decide(srv, ctx, a, True)
    set_lock(srv, ctx, 5)
    assert delivered_bets(ctx) == [5]  # bet 5 <= lock 5 releases

    srv2 = make_server()
    ctx2 = FakeCtx()
    b = BroadcastTuple(6, "c000", "02")
    srv2._spot(ctx2, b)
    decide(srv2, ctx2, b, True)
    set_lock(srv2, ctx2, 5)  # lock 5 < bet 6 stalls
    assert delivered_bets(ctx2) == []


def test_false_decision_advances_cursor_without_delivery():
    srv = make_server()
    ctx = FakeCtx()
    a = BroadcastTuple(5, "c000", "01")
    b = BroadcastTuple(8, "c000", "02")
    srv._spot(ctx, a)
    srv._spot(ctx, b)
    decide(srv, ctx, a, False)
    decide(srv, ctx, b, True)
    set_lock(srv, ctx, 9)
    delivered = [p for k, p in ctx.emitted if k == APP_DELIVER]
    assert [d["message"] for d in delivered] == ["02"]
    assert srv._queue == []


class ScanModel:
    """Reference ordering core: a full candidate scan on every step and a
    lock time recomputed from scratch on every read."""

    def __init__(self):
        self.times = {s: NEG_INF for s in SERVERS}
        self.candidates = set()
        self.decisions = {}
        self.last = None
        self.seen = set()
        self.delivered = []

    def spot(self, t):
        if t.bet > lock_bruteforce(self.times, 1):
            self.candidates.add(t)

    def time(self, src, value):
        self.times[src] = max(self.times[src], value)
        self.process()

    def decide(self, t, value):
        self.decisions[t] = value
        self.process()

    def process(self):
        while True:
            best = None
            for t in self.candidates:
                if self.last is not None and t <= self.last:
                    continue
                if best is None or t < best:
                    best = t
            if best is None or best not in self.decisions or best.bet > lock_bruteforce(self.times, 1):
                return
            if self.decisions[best] and (best.client, best.message) not in self.seen:
                self.seen.add((best.client, best.message))
                self.delivered.append((best.client, best.message, best.bet))
            self.last = best


MODEL_TUPLES = [
    BroadcastTuple(bet, c, m) for c in ("c000", "c001") for m in ("01", "02") for bet in range(1, 4)
]
MODEL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("spot"), st.sampled_from(MODEL_TUPLES)),
        st.tuples(st.just("time"), st.sampled_from(SERVERS), st.integers(min_value=0, max_value=4)),
        st.tuples(st.just("beat"), st.integers(min_value=0, max_value=4)),
        st.tuples(st.just("decide"), st.sampled_from(MODEL_TUPLES), st.booleans()),
    ),
    max_size=80,
)


@given(MODEL_OPS)
@example([("spot", MODEL_TUPLES[1]), ("decide", MODEL_TUPLES[1], True), ("beat", 2)])  # lock == bet releases
def test_candidate_heap_matches_full_scan(ops):
    srv = make_server()
    ctx = FakeCtx()
    model = ScanModel()
    for op in ops:
        if op[0] == "spot":
            srv._spot(ctx, op[1])
            model.spot(op[1])
        elif op[0] == "time":
            srv._on_time(ctx, op[1], op[2])
            model.time(op[1], op[2])
        elif op[0] == "beat":  # every server's clock announcement reaches op[1]
            set_lock(srv, ctx, op[1])
            for src in SERVERS:
                model.time(src, op[1])
        elif op[1] in srv.instances and op[1] not in model.decisions:  # a spotted tuple's instance decides once
            decide(srv, ctx, op[1], op[2])
            model.decide(op[1], op[2])
        delivered = [(p["client"], p["message"], p["bet"]) for k, p in ctx.emitted if k == APP_DELIVER]
        assert delivered == model.delivered
        assert sorted(srv._queue) == sorted(t for t in model.candidates if model.last is None or t > model.last)


def test_no_handler_leaves_the_queue_head_processable(monkeypatch):
    # A server drains its queue only after a decision or a lock rise. That is enough only if, after every input, the
    # head of the queue is undecided or its bet lies above the lock: no other input may make a candidate processable.
    calls = Counter()

    def checked(hook):
        real = getattr(FlutterServer, hook)

        def handler(self, ctx, *args):
            real(self, ctx, *args)
            calls[hook] += 1
            head = self._queue[0] if self._queue else None
            assert head is None or self.instances[head].decision is None or head.bet > self._lock, (hook, head)

        return handler

    for hook in ("on_deliver", "on_timer", "on_dep_decide"):
        monkeypatch.setattr(FlutterServer, hook, checked(hook))
    base = load_scenario(SCENARIOS_DIR / "campaign_base.json")
    scenarios = [load_scenario(path) for path in sorted(SCENARIOS_DIR.glob("*.json"))]
    for scenario in scenarios + [campaign_variant(base, b, "adversarial_timing", 3) for b in sorted(BEHAVIORS)]:
        run_checked(scenario)
    assert min(calls.values()) > 100


def test_order_dedups_same_client_message_across_bets():
    srv = make_server()
    ctx = FakeCtx()
    srv._order(ctx, BroadcastTuple(11, "c000", "6d"))
    srv._order(ctx, BroadcastTuple(33, "c000", "6d"))
    assert len([1 for k, _ in ctx.emitted if k == APP_DELIVER]) == 1
