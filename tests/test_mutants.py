"""Seeded protocol bugs (mutants), each killed by a checker verdict.

A checker that never fails proves nothing. Each mutant below edits the
source of one protocol method, recompiled and applied with `monkeypatch`
for one test only. A named run must then Fail the named properties under
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

Score: 2 killed. Open: `lock-4f` changes when a server delivers, not in
what order, and waits on a checker that judges the step each
AppDeliver falls in; `no-dedup` waits on a client that sends one
message under two bets. `no-lock-check` (a tuple spotted at or below
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

from fluttersim.blink import BlinkInstance
from fluttersim.checkers import FAIL
from fluttersim.runner import campaign_variant, run_checked
from fluttersim.scenario import load_scenario
from fluttersim.server import FlutterServer
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


MUTANTS = {
    # name -> (class, method, source edits, the run that kills it, the properties that then Fail)
    "no-suggest-spot": (FlutterServer, "on_deliver", {"self._spot(ctx, key)": "self.instance(key)"}, relay_run,
                        ["server-order-matches-appdeliver", "tob-total-order", "tob-validity"]),
    "fast-4f": (BlinkInstance, "on_suggest",
                {"if self.trues >= large:": "if self.trues >= large - 1:",
                 "elif count - self.trues >= large:": "elif count - self.trues >= large - 1:"},
                split_run, ["consensus-agreement"]),
}


def fails(scenario) -> list[str]:
    return sorted(r.prop for r in run_checked(scenario).reports if r.verdict == FAIL)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed_by_a_checker_verdict(name, policy, monkeypatch):
    cls, method, edits, run, killed_by = MUTANTS[name]
    assert fails(run(policy)) == []
    monkeypatch.setattr(cls, method, mutant(cls, method, edits))
    assert fails(run(policy)) == killed_by
