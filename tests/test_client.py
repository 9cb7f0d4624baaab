"""Client backoff: bet arithmetic, retry threshold, the attempt floor and its probe, stale reports, crashes."""

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


def lose(cl, ctx, message, servers=SERVERS[:2]):
    """Report `message`'s current bet lost by `servers` (two is f+1 for f=1)."""
    bet = cl.submissions[message][1]
    for src in servers:
        deliver_false(cl, ctx, src, message, bet)


def win(cl, ctx, message, servers=SERVERS[:2]):
    """Report `message`'s current bet won by `servers` (two is f+1 for f=1)."""
    bet = cl.submissions[message][1]
    for src in servers:
        cl.on_deliver(ctx, src, Decision(message, bet, True))


def test_a_lost_bet_raises_the_next_message_s_first_attempt():
    cl = make_client()
    ctx = FakeCtx(local=0)
    cl.broadcast(ctx, "6d")
    lose(cl, ctx, "6d")
    assert cl.submissions["6d"] == (1, 21)
    ctx.local = 30
    cl.broadcast(ctx, "6e")
    # 30 + 2^1 * 10 + 1: the margin the lost bet taught, not 30 + 10 + 1
    assert cl.submissions["6e"] == (1, 51)


def test_f_false_reports_leave_the_next_message_at_attempt_0():
    cl = make_client()
    ctx = FakeCtx(local=0)
    cl.broadcast(ctx, "6d")
    lose(cl, ctx, "6d", SERVERS[:1])  # one False is not proof
    ctx.local = 30
    cl.broadcast(ctx, "6e")
    assert cl.submissions["6e"] == (0, 41)


def test_an_in_flight_bet_that_loses_resubmits_at_the_floor():
    cl = make_client()
    ctx = FakeCtx(local=0)
    cl.broadcast(ctx, "6d")
    cl.broadcast(ctx, "6e")
    lose(cl, ctx, "6d")
    lose(cl, ctx, "6d")
    assert cl.submissions["6d"] == (2, 41)
    ctx.local = 12
    lose(cl, ctx, "6e")  # its attempt-0 bet: the next attempt is the floor 2, not 1
    assert cl.submissions["6e"] == (2, 12 + 4 * 10 + 1)


def raised_to_1(cl, ctx):
    """Lose 6d's attempt-0 bet, so the client's floor is 1."""
    cl.broadcast(ctx, "6d")
    lose(cl, ctx, "6d")
    assert cl.floor == 1


def test_the_first_new_bet_at_the_floor_lowers_it_when_it_wins():
    cl = make_client()
    ctx = FakeCtx(local=0)
    raised_to_1(cl, ctx)
    ctx.local = 30
    cl.broadcast(ctx, "6e")
    assert cl.submissions["6e"] == (1, 51)
    win(cl, ctx, "6e", SERVERS[:1])  # one True is not proof
    assert cl.floor == 1
    win(cl, ctx, "6e")
    assert cl.floor == 0
    win(cl, ctx, "6e", SERVERS)  # later Trues on the same bet lower nothing more
    ctx.local = 60
    cl.broadcast(ctx, "6f")
    assert cl.submissions["6f"] == (0, 71)


def test_a_resubmitted_bet_s_win_leaves_the_floor():
    cl = make_client()
    ctx = FakeCtx(local=0)
    raised_to_1(cl, ctx)
    win(cl, ctx, "6d", SERVERS)  # 6d's attempt-1 bet followed a loss: it says nothing about attempt 0
    assert cl.floor == 1


def test_only_the_first_new_bet_at_a_floor_probes_it():
    cl = make_client()
    ctx = FakeCtx(local=0)
    raised_to_1(cl, ctx)
    cl.broadcast(ctx, "6e")
    cl.broadcast(ctx, "6f")
    win(cl, ctx, "6f")
    assert cl.floor == 1
    win(cl, ctx, "6e")
    assert cl.floor == 0


def test_a_true_then_false_from_one_server_leaves_one_true_short_of_the_probe():
    cl = make_client()
    ctx = FakeCtx(local=0)
    raised_to_1(cl, ctx)
    cl.broadcast(ctx, "6e")
    win(cl, ctx, "6e", SERVERS[:1])
    deliver_false(cl, ctx, SERVERS[0], "6e", cl.submissions["6e"][1])  # replaces its True
    win(cl, ctx, "6e", SERVERS[1:2])
    assert cl.floor == 1


def test_a_probe_that_loses_raises_the_floor_and_its_later_win_leaves_it():
    cl = make_client()
    ctx = FakeCtx(local=0)
    raised_to_1(cl, ctx)
    cl.broadcast(ctx, "6e")
    lose(cl, ctx, "6e")
    assert (cl.submissions["6e"][0], cl.floor) == (2, 2)
    win(cl, ctx, "6e")
    assert cl.floor == 2


def test_a_probe_whose_floor_another_loss_raised_lowers_nothing():
    cl = make_client()
    ctx = FakeCtx(local=0)
    raised_to_1(cl, ctx)
    cl.broadcast(ctx, "6e")
    cl.broadcast(ctx, "6f")
    lose(cl, ctx, "6f")  # attempt 1 lost for 6f: the floor is 2 and 6e no longer probes it
    win(cl, ctx, "6e")
    assert cl.floor == 2


@given(st.lists(st.tuples(st.integers(0, 30), st.sampled_from(["6d", "6e", "6f"]),
                          st.sampled_from(["broadcast", "lose", "win"])), max_size=40))
def test_one_message_s_bets_strictly_increase(steps):
    cl = make_client()
    ctx = FakeCtx(local=0)
    for advance, message, action in steps:
        ctx.local += advance
        if message not in cl.submissions:
            if action == "broadcast":
                cl.broadcast(ctx, message)
        elif action != "broadcast":
            (lose if action == "lose" else win)(cl, ctx, message)
        assert cl.floor >= 0
    bets: dict[str, list[int]] = {}
    for dst, msg in ctx.sent:
        if dst == SERVERS[0]:
            bets.setdefault(msg.message, []).append(msg.bet)
    assert all(b < c for seq in bets.values() for b, c in zip(seq, seq[1:]))
    assert {m: seq[-1] for m, seq in bets.items()} == {m: bet for m, (_, bet) in cl.submissions.items()}


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
