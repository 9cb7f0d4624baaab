"""An exhaustive small-scope check of one Blink instance.

Blink's fast path (4f+1 matching suggestions) and its fallback majority
(2f+1 of the first 4f+1) must never let two correct servers decide
different values. Sampled runs test that; this module enumerates every
case within a small scope, on a real `BlinkInstance`.

The model. Correct servers are interchangeable, so an input vector is
its count of True proposers among the n - f correct servers. A server's
view is the correct inputs plus what the f Byzantine senders tell it,
which may differ per server: so it holds between that count and that
count + f Trues. Each distinct order of each such view is fed to a fresh
instance, which yields (dep proposal, fast value or None, whether the
fast decision came no later than the dep proposal). Dep may decide any
value some order dep-proposes (weak validity), one value for every
server (agreement), and may land at a server before a fast decision that
comes after its dep proposal, never before one made by then: dep decides
only after every correct proposal, later in the run. An input class is
flagged when a fast decision of one value and a decision of the other,
fast or by dep, are both possible.

Each server picks its order freely here, so the model over-approximates
what runs can do: "none flagged" is a result for the model, while a flag
needs a concrete schedule (test_boundary.py has one for n = 5f+2).

- At n = 5f+1, none is flagged for f = 1, 2.
- At n = 5f+2, the correct-True counts {2, 4} are flagged for f = 1 and
  {3, 7} for f = 2: 4f+1 suggestions no longer pin the fallback majority,
  the reason the parser admits only n = 5f+1.
- Seeded bugs at n = 5f+1: `fast-4f` (a fast path on 4f matching
  suggestions, as in test_mutants.py) and a fallback majority of 2f are
  flagged for f = 1, 2; a fallback at 4f suggestions raises `_majority`'s
  AssertionError, as 4f suggestions may split evenly.
- At f = 3 (n = 16) the model flags none too, in about 0.6 s, which is
  too slow for this suite: run `flagged(16, 3)` by hand.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from fluttersim.blink import BlinkInstance

from test_mutants import MUTANTS, mutant


class Host:
    """The context and host of one instance: records what it dep-proposed and decided, and when."""

    def __init__(self):
        self.fed = 0  # suggestions fed so far
        self.dep = self.dep_at = self.fast = self.fast_at = None

    def emit(self, kind, payload):
        pass

    def fact(self, key, value=None):
        pass

    def dep_propose(self, key, value):
        self.dep, self.dep_at = value, self.fed

    def on_decided(self, ctx, key, value):
        self.fast, self.fast_at = value, self.fed


def outcomes(n: int, f: int, trues: int) -> set[tuple]:
    """(dep proposal, fast value or None, fast no later than dep) of each order of `trues` Trues among n."""
    seen = set()
    for true_at in map(set, combinations(range(n), trues)):
        host = Host()
        instance = BlinkInstance("i0", f, host)
        for i in range(n):
            host.fed += 1
            instance.on_suggest(host, f"p{i}", i in true_at)
            if host.fast is not None and host.dep is not None:  # nothing later changes the outcome
                break
        seen.add((host.dep, host.fast, host.fast is not None and host.fast_at <= host.dep_at))
    return seen


def flagged(n: int, f: int) -> list[int]:
    """The counts of correct True proposers under which the model lets two servers decide differently."""
    by_trues = [outcomes(n, f, trues) for trues in range(n + 1)]
    flags = []
    for correct_trues in range(n - f + 1):
        seen = set().union(*by_trues[correct_trues:correct_trues + f + 1])
        dep = {value for value, _, _ in seen}
        fast = {value for _, value, _ in seen if value is not None}
        dep_lands = not all(fast_first for _, _, fast_first in seen)
        if len(fast) == 2 or (fast and dep_lands and dep - fast):
            flags.append(correct_trues)
    return flags


@pytest.mark.parametrize("f", [1, 2])
def test_no_input_decides_both_values_at_five_f_plus_one(f):
    assert flagged(5 * f + 1, f) == []


@pytest.mark.parametrize(("f", "flags"), [(1, [2, 4]), (2, [3, 7])])
def test_one_server_more_lets_both_values_be_decided(f, flags):
    assert flagged(5 * f + 2, f) == flags


BLINK_MUTANTS = {
    # name -> (method, source edits): each seeded bug in the fast path or the fallback
    "fast-4f": MUTANTS["fast-4f"][1][0],  # its one (method, edits) pair
    "majority-2f": ("_majority", {"majority = quorum_majority(self.f)": "majority = quorum_majority(self.f) - 1"}),
    "fallback-4f": ("on_suggest", {"if count >= large and": "if count >= large - 1 and"}),
}


@pytest.mark.parametrize(
    ("name", "f", "flags"),
    [("fast-4f", 1, [2, 3]), ("fast-4f", 2, [3, 6]), ("majority-2f", 1, [1]), ("majority-2f", 2, [2])],
)
def test_a_seeded_blink_bug_is_flagged(name, f, flags, monkeypatch):
    assert flagged(5 * f + 1, f) == []
    method, edits = BLINK_MUTANTS[name]
    monkeypatch.setattr(BlinkInstance, method, mutant(BlinkInstance, method, edits))
    assert flagged(5 * f + 1, f) == flags


def test_a_fallback_at_four_f_finds_no_majority(monkeypatch):
    method, edits = BLINK_MUTANTS["fallback-4f"]
    monkeypatch.setattr(BlinkInstance, method, mutant(BlinkInstance, method, edits))
    with pytest.raises(AssertionError, match=r"no 2f\+1 majority"):
        flagged(6, 1)
