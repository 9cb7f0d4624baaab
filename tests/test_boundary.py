"""Model-boundary controls: break one premise of the paper's model, expect a verdict.

A checker that passes everything inside the model should fail something
just outside it. Each row below breaks one premise and pins the verdict
its loss causes, next to a control run inside the model that passes. The
parser refuses every scenario past a premise, so each is built from a
bundled one with `Scenario.replace`.

- At most f faults. Blink, n=6, f=1, with two `split`/`react: false`
  equivocators (s004, s005) where the model allows one; s000-s003 propose
  True, False, False, False under seeded delays. Of seeds 0..21,
  `consensus-agreement` Fails on 5 under `adversarial_value` (0, 1, 6,
  9, 11) and on 8 under `first` (3, 4, 5, 7, 14, 15, 17, 20). Control: one
  equivocator (s005), with s004 correct and proposing False, Fails nothing
  on the same 44 runs.
- n = 5f+1, from below. Blink, n=5, f=1, with s004 `mute` and s000-s003
  proposing True: 4f+1 = 5 suggestions never reach a correct server, so
  `consensus-termination` Fails at quiescence. Control: n=6 with s005
  `mute` decides everywhere.
- n = 5f+1, from above. Blink, n=7, f=1, scripted links, with s006 a
  `split`/`react: false` equivocator; s000-s003 propose True and
  s004-s005 False. Every copy takes delta but those to s000 from
  s001-s003 and s006, and to s004 from s000, s001, s005 and s006, which
  take 1 (a server takes its own suggestion at once). s000 fast-decides
  True on five Trues; s004's first five suggestions hold three Falses,
  so it dep-proposes False, and a minority dep policy decides False: `consensus-agreement` Fails under
  `adversarial_value` and `adversarial_timing` (not under `first`).
  Control: the same script at n=6 (s005 the equivocator, s004 alone
  proposing False) Fails nothing under every policy.
- Clock offsets within `drift`. Campaign variants of `campaign_base` and
  `campaign_wide` (6 behaviors x 2 adversarial policies x seeds 0..4, 120
  runs) with every process's offset drawn in +-200 against `drift` 2 all
  reach quiescence and Fail nothing: safety does not use clocks. Only the
  clock-bound checks stand aside, as NotApplicable: `latency-tob`,
  `latency-blink` and `server-lock-vs-local` judge good-case runs only, so
  no checker sees what the skew does to latency. Pinned: all 60
  `campaign_base` runs, and seed 0 of `campaign_wide` under
  `adversarial_timing`.
- FIFO links. The lock's proof (`server.py`'s docstring) needs each True
  voter's Suggest to precede its Time(>= bet) on every link. `lock_run`
  from `tests/test_mutants.py` (n=6, f=1; s005 a partial voter that lies
  once that its clock is 1000 ahead and votes True only to s000 and
  s001), with its four copies from s000 to s002 scripted 10, 10, 1, 1,
  under a `Simulator.send` that skips FIFO repair on that one link: s000's
  Time(3), sent at t=3, reaches s002 at t=4, ahead of its True Suggest on
  `aa` (sent at t=1, at s002 at t=11). So s002's lock reaches 4 at t=5,
  on the Times of s000, s002-s004 and the lie, before it spots `aa`,
  which is decided True and which s002 never delivers. Under every dep
  policy it Fails `net-fifo`, `server-candidate-completeness`,
  `server-order-agreement`, `tob-total-order` and `tob-validity`.
  Control: the same script with FIFO repair holds both Times until t=12,
  behind the Suggests, and Fails nothing.
"""

from __future__ import annotations

import random

import pytest

from fluttersim.adversary import BEHAVIORS
from fluttersim.checkers import FAIL, NA, PASS
from fluttersim.runner import campaign_variant, run_checked, run_scenario
from fluttersim.weakcon import POLICIES
from fluttersim.scenario import BlinkScriptEntry, NetworkConfig, ServerFault, load_scenario
from fluttersim.simnet import Simulator
from fluttersim.trace import DELIVER

from conftest import SCENARIOS_DIR
from test_mutants import PartialVoter, lock_run, mutant

SPLIT = ServerFault("equivocator", {"mode": "split", "instances": ["i0"], "react": False})
SEEDS = range(22)
AGREEMENT_FAILS = {"adversarial_value": [0, 1, 6, 9, 11], "first": [3, 4, 5, 7, 14, 15, 17, 20]}


def blink_fast():
    return load_scenario(SCENARIOS_DIR / "blink_fast.json")


def script(values):
    return [BlinkScriptEntry(0, f"s{i:03d}", "i0", v) for i, v in enumerate(values)]


def equivocated(seed, policy, faulty, values):
    return blink_fast().replace(
        name=f"equivocated-s{seed}",
        network=NetworkConfig("seeded_random", seed),
        dep_policy=policy,
        server_faults=dict.fromkeys(faulty, SPLIT),
        blink_script=script(values),
    )


def verdict(run, prop):
    (report,) = [r for r in run.reports if r.prop == prop]
    return report


@pytest.mark.parametrize("policy", sorted(AGREEMENT_FAILS))
def test_f_plus_one_equivocators_break_agreement(policy):
    failing = []
    for seed in SEEDS:
        run = run_checked(equivocated(seed, policy, ["s004", "s005"], [True, False, False, False]))
        if verdict(run, "consensus-agreement").verdict == FAIL:
            failing.append(seed)
    assert failing == AGREEMENT_FAILS[policy]


@pytest.mark.parametrize("policy", sorted(AGREEMENT_FAILS))
def test_one_equivocator_fails_nothing(policy):
    for seed in SEEDS:
        run = run_checked(equivocated(seed, policy, ["s005"], [True, False, False, False, False]))
        assert run.quiescent and not run.failed, seed


def test_five_servers_with_one_mute_never_decide():
    base = blink_fast()
    scenario = base.replace(
        name="n5-mute", n=5, server_faults={"s004": ServerFault("mute")}, blink_script=script([True] * 4)
    )
    run = run_checked(scenario)
    assert run.quiescent
    assert [r.prop for r in run.failed] == ["consensus-termination"]
    assert run.failed[0].detail == "instance label:i0: ['s000', 's001', 's002', 's003'] never decided at quiescence"
    control = base.replace(server_faults={"s005": ServerFault("mute")}, blink_script=script([True] * 5))
    assert verdict(run_checked(control), "consensus-termination").verdict == PASS


def split_at(n, policy):
    """The n = 5f+1-from-above row's run at n servers, f=1: the equivocator is the last server."""
    split = f"s{n - 1:03d}"
    to_s000 = ["s001", "s002", "s003", split]  # a server takes its own suggestion in the step it sends it
    to_s004 = ["s000", "s001"] + [f"s{i:03d}" for i in range(5, n)]
    delays = {f"{src}->s000": [1] for src in to_s000} | {f"{src}->s004": [1] for src in to_s004}
    return blink_fast().replace(
        name=f"n{n}-split",
        n=n,
        network=NetworkConfig("scripted", None, delays),
        dep_policy=policy,
        server_faults={split: SPLIT},
        blink_script=script([True] * 4 + [False] * (n - 5)),
    )


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_seven_servers_at_f_one_break_agreement(policy):
    run = run_checked(split_at(7, policy))
    assert run.quiescent
    want = [] if policy == "first" else [("consensus-agreement", "instance label:i0: both values decided")]
    assert [(r.prop, r.detail) for r in run.failed] == want
    control = run_checked(split_at(6, policy))
    assert control.quiescent and not control.failed


@pytest.mark.parametrize(
    ("base", "policies", "seeds"),
    [("campaign_base", ["adversarial_value", "adversarial_timing"], range(5)),
     ("campaign_wide", ["adversarial_timing"], range(1))],
    ids=["campaign_base", "campaign_wide"],
)
def test_clock_offsets_past_drift_fail_nothing(base, policies, seeds):
    scenario = load_scenario(SCENARIOS_DIR / f"{base}.json")
    for behavior in sorted(BEHAVIORS):
        for policy in policies:
            for seed in seeds:
                variant = campaign_variant(scenario, behavior, policy, seed)
                rng = random.Random(seed)
                offsets = {p: rng.randint(-200, 200) for p in [*variant.servers, *variant.client_names]}
                assert max(map(abs, offsets.values())) > 100  # far past drift 2, which the parser would refuse
                run = run_checked(variant.replace(drift=2, clock_offsets=offsets))
                assert run.quiescent and not run.failed, variant.name
                assert {r.prop for r in run.reports if r.verdict == NA} == {
                    "latency-tob", "latency-blink", "server-lock-vs-local"
                }, variant.name


def overtaking_run(policy):
    """`lock_run`, with s000's Suggests to s002 taking delta and its Times 1."""
    scenario = lock_run(policy)
    return scenario.replace(network=scenario.network.replace(delays={**scenario.network.delays,
                                                                      "s000->s002": [10, 10, 1, 1]}))


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_a_time_that_overtakes_a_true_vote_breaks_the_lock(policy, monkeypatch):
    monkeypatch.setitem(BEHAVIORS, "partial_voter", PartialVoter)  # for this test only, as in test_mutants
    control = run_checked(overtaking_run(policy))
    assert control.quiescent and not control.failed
    repair = "if when < (last := links.get(dst, 0))"
    unrepaired = f"{repair} and (src, dst) != ('s000', 's002')"  # FIFO repair on every link but s000->s002
    monkeypatch.setattr(Simulator, "send", mutant(Simulator, "send", {repair: unrepaired}))
    run = run_scenario(overtaking_run(policy))
    assert run.quiescent
    overtaken = [(e.time, e.payload["msg"]["kind"]) for e in run.trace
                 if e.kind == DELIVER and e.process == "s002" and e.payload["src"] == "s000"]
    assert overtaken == [(4, "Time"), (5, "Time"), (11, "Suggest"), (12, "Suggest")]
    assert [(r.prop, r.detail) for r in run.failed] == [
        ("tob-total-order", "correct servers' delivery sequences diverge"),
        ("tob-validity", "broadcast (c000, 0xaa) not delivered by ['s002']"),
        ("server-candidate-completeness", "tuple decided True is no candidate at s002"),
        ("server-order-agreement", "servers processed accepted tuples in different orders"),
        ("net-fifo", "deliveries out of send order"),
    ]
