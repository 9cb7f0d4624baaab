"""Seeded protocol bugs (mutants), each killed by a checker verdict.

A checker that never fails proves nothing. Each mutant below edits the
source of one or more protocol methods, recompiled and applied with
`monkeypatch` for one test only. A named run must then Fail the named properties under
every dep policy, while the same run without the mutant Fails nothing. A unit test
or a golden digest does not count as a kill: only the check pass does.

- `no-suggest-spot`: `FlutterServer.on_deliver` takes the instance of
  the tuple a peer's Suggest names without spotting the tuple. The
  `partial_disseminator` variant of `campaign_wide`, on `exact_delta`
  links, Fails `server-order-matches-appdeliver`, `tob-total-order` and
  `tob-validity`: s000 alone gets the Message, and its Suggest is the
  only relay.
- `fast-4f`: Blink's fast path decides on 4f matching suggestions
  instead of 4f+1. `scenarios/blink_split.json` Fails
  `consensus-agreement`: s000-s002 see four True suggestions (theirs and
  the equivocator's) and decide True, while s003-s004 go to the dep
  oracle, which decides False.
- `lock-4f`: a server's lock is the 4f-th highest clock report instead
  of the (4f+1)-th: `lock_time` reads one rank lower, and `_on_time`
  recomputes the lock once 4f reports lie above it. `lock_run` (n=6,
  f=1, delta=10; c000 bets `aa` at 3, c001 bets `bb` at 4; every link
  takes 1 but c000's to s002-s005 and s000's and s001's to s002-s004
  and to the clients, which take delta) Fails
  `server-order-matches-appdeliver`, `tob-total-order` and
  `tob-validity`. Its s005 is a test-local partial voter: it lies once
  that its clock is 1000 ahead, and votes True only to s000 and s001.
  So s002's lock reaches 3 at t=5, on the Times of s002-s004 and the
  lie, before s002 spots `aa`. s000 and s001 dep-propose True, `aa` is
  decided True, and s002-s004 never deliver it. At rank 4f+1, s002
  needs a fifth Time, which only s000 or s001 sends, and each one's
  True Suggest arrives first.

- `no-dedup`: `FlutterServer._order` app-delivers every tuple it
  orders, without its `(client, message)` check. `dedup_run`, the
  campaign variant of `campaign_base` with a test-local double
  submitter, a faulty client that broadcasts one message at bets
  local + 10 delta and local + 11 delta, Fails `tob-no-duplication`
  and `server-order-matches-appdeliver`: both bets clear, both tuples
  are decided True, and each correct server delivers the message twice.

Score: 4 killed. Open: `no-lock-check` (a tuple spotted at or below
the lock is queued too) can only delay a delivery: by the lock's proof
in `server.py`'s docstring, a tuple spotted at or below a correct
server's lock is never decided True, so the queue waits only until the
tuple is decided False, and no ordering verdict can catch it.

Retired as an equivalent mutant (Budd & Angluin, "Two notions of
correctness and their relation to testing", Acta Informatica 1982;
Offutt & Pan, "Automatically detecting equivalent mutants and
infeasible paths", STVR 1997): `beat-before-due`, where `on_timer`
broadcasts its Time before it proposes False on the due tuples. The
lock's proof needs only each True vote to precede its sender's first
Time(>= bet), and a True vote leaves from `_on_message` at a clock
below the bet, before any due timer. So the mutant only lets a Time
overtake a False vote, a receiver then skips a tuple that is decided
False anyway, and no property the paper states can fail. It survived
every campaign run and `partial_disseminator`; the relay-order test in
`tests/test_server.py` flags it on a trace, which is not a verdict.

Model kills, 3, kept apart because no verdict judges them:
`tests/test_blink_model.py` feeds one real `BlinkInstance` every
suggestion order in a small scope. It flags `fast-4f` and a fallback
majority of 2f, and a fallback at 4f suggestions raises `_majority`'s
AssertionError.
"""

from __future__ import annotations

import inspect
import sys
import textwrap

import pytest

from fluttersim.adversary import BEHAVIORS, Behavior, _sighted_key
from fluttersim.blink import BlinkInstance
from fluttersim.checkers import FAIL
from fluttersim.runner import campaign_variant, run_checked
from fluttersim.scenario import load_scenario, parse_scenario
from fluttersim.server import FlutterServer
from fluttersim.types import BroadcastTuple, Message, Suggest, Time
from fluttersim.weakcon import POLICIES

from conftest import SCENARIOS_DIR


def mutant(cls, name: str, edits: dict[str, str]):
    """`cls.name` recompiled from its source with each text in `edits`, found exactly once, replaced."""
    func = getattr(cls, name)
    source = textwrap.dedent(inspect.getsource(func))
    for old, new in edits.items():
        assert source.count(old) == 1, f"{cls.__name__}.{name} no longer holds {old!r} exactly once"
        source = source.replace(old, new)
    namespace: dict = {}
    exec(compile(source, inspect.getsourcefile(func), "exec"),
         sys.modules[func.__module__].__dict__, namespace)
    return namespace[name]


def relay_run(policy: str):
    base = load_scenario(SCENARIOS_DIR / "campaign_wide.json")
    variant = campaign_variant(base, "partial_disseminator", policy, 0)
    return variant.replace(network=variant.network.replace(strategy="exact_delta"))


def split_run(policy: str):
    return load_scenario(SCENARIOS_DIR / "blink_split.json").replace(dep_policy=policy)


class PartialVoter(Behavior):
    """Reports its clock 1000 ahead once, then votes True on each tuple it sees, to s000 and s001 only."""

    def __init__(self, name: str, delta: int, params: dict):
        super().__init__(name, delta, params)
        self.seen: set[BroadcastTuple] = set()

    def on_init(self, ctx) -> None:
        ctx.broadcast(Time(ctx.local_time() + 1000))

    def on_deliver(self, ctx, src: str, msg) -> None:
        key = _sighted_key(src, msg)
        if isinstance(key, BroadcastTuple) and key not in self.seen:
            self.seen.add(key)
            for server in ctx.servers[:2]:
                ctx.send(server, Suggest(key, True))


class DoubleSubmitter(Behavior):
    """Faulty client: at start, broadcasts one message at bets local + 10 delta and local + 11 delta."""

    role = "client"

    def __init__(self, name: str, delta: int, params: dict):
        super().__init__(name, delta, params)
        self.delta = delta

    def on_init(self, ctx) -> None:
        for margin in (10, 11):
            ctx.broadcast(Message("dd", ctx.local_time() + margin * self.delta))


def dedup_run(policy: str):
    return campaign_variant(load_scenario(SCENARIOS_DIR / "campaign_base.json"), "double_submitter", policy, 0)


def lock_run(policy: str):
    # The links that take 1; every other link takes delta. No process here sends itself anything.
    servers, clients = [f"s{i:03d}" for i in range(6)], ["c000", "c001"]
    fast = [("c000", dst) for dst in servers[:2]] + [("c001", dst) for dst in servers]
    fast += [(src, dst) for src in servers[2:] for dst in servers + clients if dst != src]
    fast += [(src, dst) for src in servers[:2] for dst in (servers[0], servers[1], servers[5]) if dst != src]
    return parse_scenario({
        "name": "lock_4f", "kind": "flutter", "n": 6, "f": 1, "delta": 10, "drift": 0, "epsilon": 1,
        "dep": {"policy": policy},
        # A link carries at most 4 sends in this run, so its 20 delays never run out.
        "network": {"strategy": "scripted", "delays": {f"{src}->{dst}": [1] * 20 for src, dst in fast}},
        "servers": {"s005": {"behavior": "partial_voter"}},
        "clients": [{"name": "c000", "delta_estimate": 2, "broadcasts": [{"at": 0, "message": "aa"}]},
                    {"name": "c001", "delta_estimate": 2, "broadcasts": [{"at": 1, "message": "bb"}]}],
    })


MUTANTS = {
    # name -> (class, its (method, source edits) pairs, the run that kills it, the properties that then Fail)
    "no-suggest-spot": (FlutterServer, [("on_deliver", {"self._spot(ctx, key)": "self.instance(key)"})], relay_run,
                        ["server-order-matches-appdeliver", "tob-total-order", "tob-validity"]),
    "fast-4f": (BlinkInstance, [("on_suggest", {
                    "if self.trues >= large:": "if self.trues >= large - 1:",
                    "elif count - self.trues >= large:": "elif count - self.trues >= large - 1:"})],
                split_run, ["consensus-agreement"]),
    "lock-4f": (FlutterServer, [("lock_time", {"- 1]": "- 2]"}),
                                ("_on_time", {">= self.large:": ">= self.large - 1:"})],
                lock_run, ["server-order-matches-appdeliver", "tob-total-order", "tob-validity"]),
    "no-dedup": (FlutterServer, [("_order", {"if (t.client, t.message) not in self.delivered:": "if True:"})],
                 dedup_run, ["server-order-matches-appdeliver", "tob-no-duplication"]),
}


def fails(scenario) -> list[str]:
    return sorted(r.prop for r in run_checked(scenario).reports if r.verdict == FAIL)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed_by_a_checker_verdict(name, policy, monkeypatch):
    cls, methods, run, killed_by = MUTANTS[name]
    # For this test only: campaigns never run either.
    monkeypatch.setitem(BEHAVIORS, "partial_voter", PartialVoter)
    monkeypatch.setitem(BEHAVIORS, "double_submitter", DoubleSubmitter)
    assert fails(run(policy)) == []
    for method, edits in methods:
        monkeypatch.setattr(cls, method, mutant(cls, method, edits))
    assert fails(run(policy)) == killed_by
