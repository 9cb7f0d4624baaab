"""Dep oracle: policy value selection, indication delays, misuse errors."""

from __future__ import annotations

import random
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fluttersim import weakcon
from fluttersim.errors import OracleViolationError, ProtocolBugError
from fluttersim.simnet import ExactDelta, Simulator
from fluttersim.trace import DEP_DECIDE, DEP_PROPOSE
from fluttersim.weakcon import (
    POLICIES,
    AdversarialTiming,
    AdversarialValue,
    DepOracle,
    FirstProposal,
    _minority_value,
)

SERVERS = ["s000", "s001", "s002", "s003", "s004"]


class Recorder:
    def __init__(self):
        self.decides = []

    def on_init(self, ctx):
        pass

    def on_deliver(self, ctx, src, msg):
        pass

    def on_timer(self, ctx, token):
        pass

    def on_dep_decide(self, ctx, instance, value):
        self.decides.append((ctx.sim.now, ctx.name, instance, value))


def make_sim(policy, budget=30, seed=7):
    sim = Simulator(ExactDelta(10))
    recorders = {}
    for s in SERVERS:
        recorders[s] = Recorder()
        sim.add_process(s, "server", recorders[s])
    oracle = DepOracle(sim, SERVERS, policy, budget, seed)
    return sim, oracle, recorders


def test_minority_value_picks_least_proposed():
    assert _minority_value({"a": True, "b": False, "c": False}) is True
    assert _minority_value({"a": False, "b": True, "c": True}) is False


def test_minority_value_unanimous_is_forced():
    assert _minority_value({"a": True, "b": True}) is True
    assert _minority_value({"a": False, "b": False}) is False


def test_minority_value_tie_goes_false():
    assert _minority_value({"a": True, "b": False}) is False


def test_minority_value_matches_its_definition_on_every_count_to_six():
    # "The allowed value with the fewest correct proposers; ties go False": a value is allowed when some server
    # proposed it, and with no proposal at all the answer is False.
    for trues, falses in product(range(7), repeat=2):
        counts = {False: falses, True: trues}
        allowed = [value for value in (False, True) if counts[value]]
        expected = min(allowed, key=counts.__getitem__, default=False)  # min keeps the first of a tie: False
        proposals = {f"s{i}": i < trues for i in range(trues + falses)}
        assert _minority_value(proposals) is expected, (trues, falses)


@given(st.lists(st.booleans(), min_size=1, max_size=9))
def test_minority_value_always_among_proposals(values):
    proposals = {f"s{i}": v for i, v in enumerate(values)}
    assert _minority_value(proposals) in proposals.values()


def test_first_proposal_policy_decides_first_value_with_zero_delay():
    sim, oracle, recorders = make_sim(FirstProposal())
    sim.start()
    for i, s in enumerate(SERVERS):
        oracle.propose("i0", s, i == 0)  # only s000 proposes True
    sim.run()
    decides = [d for r in recorders.values() for d in r.decides]
    assert len(decides) == 5
    assert all(v is True for (_, _, _, v) in decides)
    assert all(t == 0 for (t, _, _, _) in decides)


def test_adversarial_value_policy_decides_minority():
    sim, oracle, recorders = make_sim(AdversarialValue())
    sim.start()
    votes = {"s000": True, "s001": True, "s002": True, "s003": True, "s004": False}
    for s in SERVERS:
        oracle.propose("i0", s, votes[s])
    sim.run()
    decides = [d for r in recorders.values() for d in r.decides]
    assert all(v is False for (_, _, _, v) in decides)


def test_adversarial_timing_delays_bounded():
    sim, oracle, recorders = make_sim(AdversarialTiming(), budget=30)
    sim.start()
    for s in SERVERS:
        oracle.propose("i0", s, True)
    sim.run()
    by_server = {name: t for r in recorders.values() for (t, name, _, _) in r.decides}
    assert sorted(by_server) == SERVERS
    for s in SERVERS:
        assert 0 <= by_server[s] <= 30


def test_adversarial_timing_is_seed_deterministic():
    def run(seed):
        sim, oracle, recorders = make_sim(AdversarialTiming(), budget=30, seed=seed)
        sim.start()
        for s in SERVERS:
            oracle.propose("i0", s, True)
        sim.run()
        return sorted((t, name) for r in recorders.values() for (t, name, _, _) in r.decides)

    assert run(7) == run(7)


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_only_a_drawing_policy_seeds_an_rng(name, monkeypatch):
    seeds = []
    seeding = SimpleNamespace(Random=lambda seed: seeds.append(seed) or random.Random(seed))
    monkeypatch.setattr(weakcon, "random", seeding)
    sim, oracle, recorders = make_sim(POLICIES[name](), budget=30, seed=7)
    sim.start()
    for s in SERVERS:
        oracle.propose("i0", s, True)
    sim.run()
    times = [t for r in recorders.values() for (t, _, _, _) in r.decides]
    if name != "adversarial_timing":
        assert (seeds, times) == ([], [0] * len(SERVERS))
        return
    # one rng per decided instance, seeded from its payload, drawing each correct server's delay in turn
    assert seeds == ["7|dep|{'label': 'i0'}"]
    rng = random.Random(seeds[0])
    assert times == [rng.randint(0, 30) for _ in SERVERS]


def test_the_correct_servers_draw_their_delays_in_the_order_given():
    # Membership is tested on a set; the list keeps the order the servers draw their indication delays in.
    sim, _, recorders = make_sim(AdversarialTiming(), budget=30, seed=7)
    order = SERVERS[::-1]
    oracle = DepOracle(sim, order, AdversarialTiming(), 30, 7)
    sim.start()
    for s in SERVERS:
        oracle.propose("i0", s, True)
    with pytest.raises(ProtocolBugError, match="non-correct process s999"):
        oracle.propose("i0", "s999", True)
    sim.run()
    rng = random.Random("7|dep|{'label': 'i0'}")
    assert [recorders[s].decides[0][0] for s in order] == [rng.randint(0, 30) for _ in order]


def test_decide_waits_for_all_correct_proposals():
    sim, oracle, recorders = make_sim(FirstProposal())
    sim.start()
    for s in SERVERS[:-1]:
        oracle.propose("i0", s, True)
    sim.run()
    assert not any(r.decides for r in recorders.values())
    oracle.propose("i0", SERVERS[-1], True)
    sim.run()
    assert sum(len(r.decides) for r in recorders.values()) == 5


def test_double_propose_is_protocol_bug():
    sim, oracle, _ = make_sim(FirstProposal())
    sim.start()
    oracle.propose("i0", "s000", True)
    with pytest.raises(ProtocolBugError):
        oracle.propose("i0", "s000", False)


def test_propose_from_unknown_process_is_protocol_bug():
    sim, oracle, _ = make_sim(FirstProposal())
    sim.start()
    with pytest.raises(ProtocolBugError):
        oracle.propose("i0", "s999", True)


def test_policy_choosing_unproposed_value_is_oracle_violation():
    class Rogue(FirstProposal):
        name = "rogue"

        def choose(self, proposals):
            return not next(iter(proposals.values()))

    sim, oracle, _ = make_sim(Rogue())
    sim.start()
    with pytest.raises(OracleViolationError):
        for s in SERVERS:
            oracle.propose("i0", s, True)  # unanimous True, rogue picks False


def test_dep_events_traced():
    sim, oracle, _ = make_sim(FirstProposal())
    sim.start()
    for s in SERVERS:
        oracle.propose("i0", s, True)
    sim.run()
    kinds = [e.kind for e in sim.trace]
    assert kinds.count(DEP_PROPOSE) == 5
    assert kinds.count(DEP_DECIDE) == 5


def test_policy_registry_names():
    assert set(POLICIES) == {"first", "adversarial_value", "adversarial_timing"}
