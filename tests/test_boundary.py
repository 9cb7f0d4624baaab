"""Model-boundary controls: break one premise of the paper's model, expect a verdict.

A checker that passes everything inside the model should fail something
just outside it. Each row below breaks one premise and pins the verdict
its loss causes, next to a control run inside the model that passes. The
parser refuses every scenario past a premise, so each is built from a
bundled one with `Scenario.replace`.

- At most f faults. Blink, n=6, f=1, with two `split`/`react: false`
  equivocators (s004, s005) where the model allows one; s000-s003 propose
  True, False, False, False under seeded delays. Of seeds 0..21,
  `consensus-agreement` Fails on 5 under `adversarial_value` (1, 3, 12,
  14, 21) and on 5 under `first` (4, 11, 13, 15, 20). Control: one
  equivocator (s005), with s004 correct and proposing False, Fails nothing
  on the same 44 runs.
- n >= 5f+1. Blink, n=5, f=1, with s004 `mute` and s000-s003 proposing
  True: 4f+1 = 5 suggestions never reach a correct server, so
  `consensus-termination` Fails at quiescence. Control: n=6 with s005
  `mute` decides everywhere.
- Clock offsets within `drift`. Campaign variants of `campaign_base` and
  `campaign_wide` (6 behaviors x 2 adversarial policies x seeds 0..4, 120
  runs) with every process's offset drawn in +-200 against `drift` 2 all
  reach quiescence and Fail nothing: safety does not use clocks. Only the
  clock-bound checks stand aside, as NotApplicable: `latency-tob`,
  `latency-blink` and `server-lock-vs-local` judge good-case runs only, so
  no checker sees what the skew does to latency. Pinned: all 60
  `campaign_base` runs, and seed 0 of `campaign_wide` under
  `adversarial_timing`.
"""

from __future__ import annotations

import random

import pytest

from fluttersim.adversary import BEHAVIORS
from fluttersim.checkers import FAIL, NA, PASS
from fluttersim.runner import campaign_variant, run_checked
from fluttersim.scenario import BlinkScriptEntry, NetworkConfig, ServerFault, load_scenario

from conftest import SCENARIOS_DIR

SPLIT = ServerFault("equivocator", {"mode": "split", "instances": ["i0"], "react": False})
SEEDS = range(22)
AGREEMENT_FAILS = {"adversarial_value": [1, 3, 12, 14, 21], "first": [4, 11, 13, 15, 20]}


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
