"""Binary consensus instance: fast path, fallback trigger, late decides."""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fluttersim.blink import BlinkInstance
from fluttersim.errors import ProtocolBugError
from fluttersim.simnet import ExactDelta, Simulator
from fluttersim.trace import DECIDE


class FakeHost:
    def __init__(self):
        self.dep_proposals = []
        self.decisions = []

    def dep_propose(self, key, value):
        self.dep_proposals.append((key, value))

    def on_decided(self, ctx, key, value):
        self.decisions.append((key, value))


class FakeCtx:
    name = "s000"
    servers = ["s000", "s001", "s002", "s003", "s004", "s005"]

    def __init__(self):
        self.sent = []
        self.emitted = []
        self.fact = Simulator(ExactDelta(1)).fact  # a run's payload tables, as a real context reaches them

    def send(self, dst, msg):
        self.sent.append((dst, msg))

    def broadcast(self, msg):
        for server in self.servers:
            self.send(server, msg)

    def emit(self, kind, payload):
        self.emitted.append((kind, payload))


def feed(inst, ctx, votes):
    for sender, value in votes:
        inst.on_suggest(ctx, sender, value)


def make():
    host = FakeHost()
    ctx = FakeCtx()
    return BlinkInstance("i0", 1, host), host, ctx


def test_mixed_quorum_forwards_majority_to_dep():
    inst, host, ctx = make()
    feed(inst, ctx, [("s000", True), ("s001", True), ("s002", True), ("s003", False), ("s004", False)])
    assert host.dep_proposals == [("i0", True)]
    assert inst.decision is None


def test_unanimous_quorum_decides_fast():
    inst, host, ctx = make()
    feed(inst, ctx, [(f"s{i:03d}", True) for i in range(5)])
    assert host.decisions == [("i0", True)]
    # the fallback fires too: the 5th suggestion is both the dep trigger
    # and the matching quorum
    assert host.dep_proposals == [("i0", True)]


def test_sixth_matching_suggestion_decides_after_fallback():
    # one faulty False lands first; a dep proposal fires at the 5th
    # suggestion (4 True, 1 False), then the 6th True completes a 5-True
    # quorum and the instance still decides fast.
    inst, host, ctx = make()
    feed(inst, ctx, [("s005", False)])
    feed(inst, ctx, [(f"s{i:03d}", True) for i in range(4)])
    assert host.dep_proposals == [("i0", True)]
    assert inst.decision is None
    feed(inst, ctx, [("s004", True)])
    assert inst.decision is True
    assert host.decisions == [("i0", True)]


def test_duplicate_sender_overwrites_not_accumulates():
    inst, host, ctx = make()
    feed(inst, ctx, [("s000", True), ("s000", True), ("s000", True), ("s000", True), ("s000", True)])
    assert len(inst.suggestions) == 1
    assert inst.decision is None
    assert host.dep_proposals == []


def test_dep_decide_ignored_after_fast_decision():
    inst, host, ctx = make()
    feed(inst, ctx, [(f"s{i:03d}", True) for i in range(5)])
    assert host.decisions == [("i0", True)]
    inst.on_dep_decide(ctx, False)
    assert host.decisions == [("i0", True)]  # unchanged


def test_dep_decide_settles_undecided_instance():
    inst, host, ctx = make()
    feed(inst, ctx, [("s000", True), ("s001", True), ("s002", True), ("s003", False), ("s004", False)])
    inst.on_dep_decide(ctx, False)
    assert host.decisions == [("i0", False)]
    decide_events = [p for k, p in ctx.emitted if k == DECIDE]
    assert decide_events == [{"instance": {"label": "i0"}, "value": False}]


def test_propose_sends_suggest_to_every_server_once():
    inst, host, ctx = make()
    inst.propose(ctx, True)
    assert [dst for dst, _ in ctx.sent] == ctx.servers
    assert all(m.value is True and m.instance == "i0" for _, m in ctx.sent)


def test_double_propose_is_protocol_bug():
    inst, host, ctx = make()
    inst.propose(ctx, True)
    with pytest.raises(ProtocolBugError):
        inst.propose(ctx, False)


def poke(inst, suggestions):
    """Set an instance's suggestions and, with them, its running True tally."""
    inst.suggestions = suggestions
    inst.trues = sum(suggestions.values())


def test_majority_guard_unreachable_split_asserts():
    # A 2/2 split cannot arise from 4f+1 = 5 binary suggestions, so the
    # guard is an assert; poke it directly.
    inst, host, ctx = make()
    poke(inst, {"s000": True, "s001": True, "s002": False, "s003": False})
    with pytest.raises(AssertionError):
        inst._majority()


def test_slow_path_majority_examples():
    inst, host, ctx = make()
    poke(inst, {"s000": True, "s001": True, "s002": True, "s003": False, "s004": False})
    assert inst._majority() is True
    poke(inst, {"s000": False, "s001": False, "s002": False, "s003": True, "s004": True})
    assert inst._majority() is False


def recount(votes, f):
    """Reference model: recount every suggestion after each delivery."""
    large, table, dep, decided = 4 * f + 1, {}, [], []
    for sender, value in votes:
        table[sender] = value
        trues = sum(1 for v in table.values() if v is True)
        falses = sum(1 for v in table.values() if v is False)
        if len(table) >= large and not dep:
            dep.append(trues >= 2 * f + 1)
        if not decided and (trues >= large or falses >= large):
            decided.append(trues >= large)
        yield trues, dep[:], decided[:]


SENDERS = [f"s{i:03d}" for i in range(12)]


@given(st.integers(0, 2), st.lists(st.tuples(st.sampled_from(SENDERS), st.booleans()), max_size=60))
@example(1, [("s000", True), ("s001", True), ("s002", True), ("s003", True), ("s000", False),
             ("s004", True), ("s000", True)])  # a flip costs s000's True vote, a flip back restores it
@example(1, [("s000", False), ("s001", False), ("s000", True), ("s002", False), ("s003", False),
             ("s004", False), ("s000", False)])
def test_suggestion_tally_matches_a_full_recount(f, votes):
    host, ctx = FakeHost(), FakeCtx()
    inst = BlinkInstance("i0", f, host)
    for vote, (trues, dep, decided) in zip(votes, recount(votes, f)):
        inst.on_suggest(ctx, *vote)
        assert inst.trues == trues
        assert host.dep_proposals == [("i0", v) for v in dep]
        assert host.decisions == [("i0", v) for v in decided]
