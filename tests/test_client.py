"""Client backoff: bet arithmetic, retry threshold, stale reports, crashes."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fluttersim.client import FlutterClient
from fluttersim.errors import ProtocolBugError
from fluttersim.scenario import BroadcastScript
from fluttersim.types import Decision, Message

SERVERS = [f"s{i:03d}" for i in range(6)]


class FakeCtx:
    name = "c000"
    servers = SERVERS
    clients = ["c000"]

    def __init__(self, local=0, global_now=0):
        self.local = local
        self.global_now = global_now
        self.sent = []
        self.emitted = []
        self.globals = []

    def local_time(self):
        return self.local

    def now(self):
        return self.global_now

    def send(self, dst, msg):
        self.sent.append((dst, msg))

    def broadcast(self, msg):
        for server in self.servers:
            self.send(server, msg)

    def emit(self, kind, payload):
        self.emitted.append((kind, payload))

    def schedule_global(self, at, token):
        self.globals.append((at, token))


def make_client():
    cl = FlutterClient("c000", 1, 10, 1)
    cl._server_set = frozenset(SERVERS)
    return cl


def deliver_false(cl, ctx, src, message, bet):
    cl.on_deliver(ctx, src, Decision(message, bet, False))


def test_first_bet_is_local_plus_estimate_plus_epsilon():
    cl = make_client()
    ctx = FakeCtx(local=0)
    cl.broadcast(ctx, "6d")
    assert cl.submissions["6d"] == (0, 11)
    assert [m.bet for _, m in ctx.sent if isinstance(m, Message)] == [11] * 6


def test_retry_bet_doubles_estimate():
    cl = make_client()
    ctx = FakeCtx(local=50)
    cl._submit(ctx, "6d", 2)
    # 50 + 2^2 * 10 + 1
    assert cl.submissions["6d"] == (2, 91)


def test_retry_fires_at_exactly_f_plus_one_false_reports():
    cl = make_client()
    ctx = FakeCtx(local=0)
    cl.broadcast(ctx, "6d")
    ctx.sent.clear()
    deliver_false(cl, ctx, "s000", "6d", 11)
    assert ctx.sent == []  # one False is not proof
    deliver_false(cl, ctx, "s001", "6d", 11)
    resubmits = [m for _, m in ctx.sent if isinstance(m, Message)]
    assert len(resubmits) == 6
    assert cl.submissions["6d"][0] == 1


def test_duplicate_false_from_same_server_does_not_count_twice():
    cl = make_client()
    ctx = FakeCtx(local=0)
    cl.broadcast(ctx, "6d")
    ctx.sent.clear()
    deliver_false(cl, ctx, "s000", "6d", 11)
    deliver_false(cl, ctx, "s000", "6d", 11)
    assert ctx.sent == []


def test_true_then_false_from_same_server_counts_once():
    cl = make_client()
    ctx = FakeCtx(local=0)
    cl.broadcast(ctx, "6d")
    ctx.sent.clear()
    cl.on_deliver(ctx, "s000", Decision("6d", 11, True))
    deliver_false(cl, ctx, "s000", "6d", 11)  # replaces the True: one False report
    assert ctx.sent == []
    deliver_false(cl, ctx, "s001", "6d", 11)
    assert cl.submissions["6d"][0] == 1


def test_false_then_true_from_same_server_stops_counting():
    cl = make_client()
    ctx = FakeCtx(local=0)
    cl.broadcast(ctx, "6d")
    ctx.sent.clear()
    deliver_false(cl, ctx, "s000", "6d", 11)
    cl.on_deliver(ctx, "s000", Decision("6d", 11, True))  # replaces the False
    deliver_false(cl, ctx, "s001", "6d", 11)
    assert ctx.sent == []


@given(st.lists(st.tuples(st.sampled_from(SERVERS), st.sampled_from([11, 31]), st.booleans()), max_size=30))
def test_false_counter_matches_sum_over_decisions(reports):
    cl = make_client()
    ctx = FakeCtx(local=0)
    cl.broadcast(ctx, "6d")
    latest: dict[tuple[int, str], bool] = {}  # (bet, server) -> its latest reported value
    for src, bet, value in reports:
        cl.on_deliver(ctx, src, Decision("6d", bet, value))
        latest[(bet, src)] = value
        for b in (11, 31):
            falses = {s for (bb, s), v in latest.items() if bb == b and v is False}
            assert cl.falses.get(("6d", b), set()) == falses


def test_stale_bet_reports_are_ignored():
    cl = make_client()
    ctx = FakeCtx(local=0)
    cl.broadcast(ctx, "6d")
    deliver_false(cl, ctx, "s000", "6d", 11)
    deliver_false(cl, ctx, "s001", "6d", 11)  # retry: current bet moves on
    ctx.sent.clear()
    deliver_false(cl, ctx, "s002", "6d", 11)  # report about the old bet
    assert ctx.sent == []


def test_true_decisions_do_not_trigger_retry():
    cl = make_client()
    ctx = FakeCtx(local=0)
    cl.broadcast(ctx, "6d")
    ctx.sent.clear()
    for s in SERVERS:
        cl.on_deliver(ctx, s, Decision("6d", 11, True))
    assert ctx.sent == []


def test_decision_from_non_server_is_dropped():
    cl = make_client()
    ctx = FakeCtx(local=0)
    cl.broadcast(ctx, "6d")
    ctx.sent.clear()
    deliver_false(cl, ctx, "c999", "6d", 11)
    deliver_false(cl, ctx, "c998", "6d", 11)
    assert ctx.sent == []
    assert cl.falses == {}


def test_double_broadcast_same_message_is_protocol_bug():
    cl = make_client()
    ctx = FakeCtx(local=0)
    cl.broadcast(ctx, "6d")
    with pytest.raises(ProtocolBugError):
        cl.broadcast(ctx, "6d")


def test_crashed_client_ignores_decisions():
    cl = FlutterClient("c000", 1, 10, 1, crash_time=5)
    cl._server_set = frozenset(SERVERS)
    ctx = FakeCtx(local=0, global_now=0)
    cl.broadcast(ctx, "6d")
    ctx.sent.clear()
    ctx.global_now = 5
    deliver_false(cl, ctx, "s000", "6d", 11)
    deliver_false(cl, ctx, "s001", "6d", 11)
    assert ctx.sent == []


def test_script_entries_schedule_global_timers():
    script = [BroadcastScript(at=0, message="01"), BroadcastScript(at=7, message="02")]
    cl = FlutterClient("c000", 1, 5, 2, script=script)
    ctx = FakeCtx()
    cl.on_init(ctx)
    assert ctx.globals == [(0, "broadcast@0"), (7, "broadcast@1")]
    cl.on_timer(ctx, "broadcast@1")
    assert cl.submissions["02"] == (0, 0 + 5 + 2)
