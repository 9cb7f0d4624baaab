"""Server ordering core: lock time, spotting, expiry, in-order release."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluttersim.adversary import BEHAVIORS
from fluttersim.checkers import CheckerConfig, _lock_rank, _ServerInvariants
from fluttersim.runner import campaign_variant, run_checked
from fluttersim.scenario import Scenario, load_scenario
from fluttersim.server import FlutterServer
from fluttersim.trace import APP_DELIVER
from fluttersim.types import NEG_INF, BroadcastTuple, Observe, Time, quorum_large

from conftest import SCENARIOS_DIR

SERVERS = [f"s{i:03d}" for i in range(6)]


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

    def local_time(self):
        return self.local

    def send(self, dst, msg):
        self.sent.append((dst, msg))

    def broadcast(self, msg):
        for server in self.servers:
            self.send(server, msg)

    def schedule_local(self, at, token):
        self.timers.append((at, token))

    def emit(self, kind, payload):
        self.emitted.append((kind, payload))


def set_lock(srv, ctx, time):
    """Every server's Time entry reaches `time`, so the lock time does too."""
    for s in SERVERS:
        srv._on_time(ctx, s, time)


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
        invariants.deliver([(10**6 + i, "s000", {"src": src, "msg": {"kind": "Time", "time": time}})])
        assert srv._lock == srv.lock_time()
        assert srv._above == sum(v > srv._lock for v in srv.remote_times.values())
        assert replay.remote_times == srv.remote_times
        assert replay.lock == _lock_rank(replay.remote_times.values(), f) == srv._lock
        assert replay.above == srv._above
    assert invariants.fails == {}


def test_spot_new_tuple_relays_then_schedules_then_observes():
    srv = make_server()
    ctx = FakeCtx()
    t = BroadcastTuple(11, "c000", "6d")
    srv._spot(ctx, t)
    assert t in srv._queue  # lock is -inf, every bet clears it
    assert [dst for dst, _ in ctx.sent] == SERVERS
    assert all(isinstance(m, Observe) and m.tuple == t for _, m in ctx.sent)
    assert (11, "beat@11") in ctx.timers
    assert any(tok.startswith("expiry@") for _, tok in ctx.timers)
    assert t in srv.observed


def test_spot_known_tuple_does_not_relay_again():
    srv = make_server()
    ctx = FakeCtx()
    t = BroadcastTuple(11, "c000", "6d")
    srv._spot(ctx, t)
    sent_before = len(ctx.sent)
    srv._spot(ctx, t)
    assert len(ctx.sent) == sent_before
    assert srv._queue == [t]


def test_spot_late_tuple_relayed_but_not_candidate():
    srv = make_server()
    ctx = FakeCtx()
    set_lock(srv, ctx, 20)
    t = BroadcastTuple(15, "c000", "6d")
    srv._spot(ctx, t)
    assert t not in srv._queue
    assert t in srv.observed
    assert len(ctx.sent) == 6  # still relayed for candidate completeness


def test_expiry_votes_false_when_bet_passed_unproposed():
    srv = make_server()
    ctx = FakeCtx(local=0)
    t = BroadcastTuple(11, "c000", "6d")
    srv._spot(ctx, t)
    token = next(tok for _, tok in ctx.timers if tok.startswith("expiry@"))
    ctx.local = 11  # local clock reached the bet
    srv.on_timer(ctx, token)
    assert srv.instances[t].self_proposed
    suggests = [m for _, m in ctx.sent if not isinstance(m, Observe)]
    assert all(m.value is False for m in suggests)


def test_expiry_is_noop_when_already_proposed():
    srv = make_server()
    ctx = FakeCtx(local=0)
    t = BroadcastTuple(11, "c000", "6d")
    srv._spot(ctx, t)
    token = next(tok for _, tok in ctx.timers if tok.startswith("expiry@"))
    srv.instance(t).self_proposed = True
    sent_before = len(ctx.sent)
    ctx.local = 11
    srv.on_timer(ctx, token)
    assert len(ctx.sent) == sent_before


def test_message_in_time_proposes_true_late_proposes_false():
    srv = make_server()
    ctx = FakeCtx(local=0)
    srv._on_message(ctx, "c000", "6d", 11)  # bet 11 > local 0
    suggests = [m for _, m in ctx.sent if not isinstance(m, Observe)]
    assert all(m.value is True for m in suggests)

    srv2 = make_server()
    ctx2 = FakeCtx(local=11)
    srv2._on_message(ctx2, "c000", "6d", 11)  # bet 11 == local 11, not strictly ahead
    suggests2 = [m for _, m in ctx2.sent if not isinstance(m, Observe)]
    assert all(m.value is False for m in suggests2)


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
    srv.on_decided(ctx, b, True)
    srv.on_decided(ctx, a, True)
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
    srv.on_decided(ctx, b, True)  # a undecided blocks everything
    set_lock(srv, ctx, 9)
    assert ctx.emitted == []
    assert sorted(srv._queue) == [a, b]


def test_process_next_stalls_until_lock_passes_bet():
    srv = make_server()
    ctx = FakeCtx()
    a = BroadcastTuple(5, "c000", "01")
    srv._spot(ctx, a)
    srv.on_decided(ctx, a, True)
    set_lock(srv, ctx, 5)
    assert delivered_bets(ctx) == [5]  # bet 5 <= lock 5 releases

    srv2 = make_server()
    ctx2 = FakeCtx()
    b = BroadcastTuple(6, "c000", "02")
    srv2._spot(ctx2, b)
    srv2.on_decided(ctx2, b, True)
    set_lock(srv2, ctx2, 5)  # lock 5 < bet 6 stalls
    assert ctx2.emitted == []


def test_false_decision_advances_cursor_without_delivery():
    srv = make_server()
    ctx = FakeCtx()
    a = BroadcastTuple(5, "c000", "01")
    b = BroadcastTuple(8, "c000", "02")
    srv._spot(ctx, a)
    srv._spot(ctx, b)
    srv.on_decided(ctx, a, False)
    srv.on_decided(ctx, b, True)
    set_lock(srv, ctx, 9)
    delivered = [p for k, p in ctx.emitted if k == APP_DELIVER]
    assert [d["message"] for d in delivered] == ["02"]
    assert srv._queue == []


def test_a_label_decision_moves_no_ordering():
    # A Blink instance decides under a plain label: the server records no decision and tells no client.
    srv = make_server()
    ctx = FakeCtx()
    srv.on_decided(ctx, "x", True)
    assert srv.decisions == {}
    assert ctx.sent == [] and ctx.emitted == []


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
        elif op[1] not in model.decisions:  # an instance decides once
            srv.on_decided(ctx, op[1], op[2])
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
            assert head is None or head not in self.decisions or head.bet > self._lock, (hook, self.name, head)

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
