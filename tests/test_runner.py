"""End-to-end runs of the bundled scenarios against frozen outcomes."""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import weakref

import pytest

from fluttersim import runner
from fluttersim.adversary import BEHAVIORS, Behavior, Mute
from fluttersim.errors import BudgetExceededError, OracleViolationError, ProtocolBugError, ScenarioError
from fluttersim.runner import campaign_variant, run_campaign, run_checked, run_scenario
from fluttersim.scenario import load_scenario, parse_scenario
from fluttersim.trace import APP_DELIVER, BROADCAST, DECIDE, SEND
from fluttersim.types import BroadcastTuple, Suggest

from conftest import QUORUM_ORDER, SCENARIOS_DIR, scenario_dict
from test_golden import CAMPAIGN_DIGEST, sha256

SERVERS = [f"s{i:03d}" for i in range(6)]
CORRECT5 = [f"s{i:03d}" for i in range(5)]


def run_bundled(name):
    return run_scenario(load_scenario(SCENARIOS_DIR / f"{name}.json"))


def test_goodcase_frozen_outcome():
    result = run_bundled("goodcase")
    assert result.quiescent
    assert not result.failed
    m = result.metrics
    # broadcast at t=0, delta=10, epsilon=1: bet 11, ordered once the
    # first wave of clock reports (t=10) has echoed back (t=20) and the
    # decision landed; every server app-delivers at exactly 21, in QUORUM_ORDER.
    # Each server sends its Suggest and its Time to the five others.
    deliveries = [(e.time, e.process) for e in result.trace if e.kind == APP_DELIVER]
    assert deliveries == [(21, s) for s in QUORUM_ORDER]
    assert m["final_time"] == 30
    assert m["events"] == 182
    assert m["sends_by_kind"] == {
        "Decision": 6,
        "Message": 6,
        "Suggest": 30,
        "Time": 30,
    }
    assert m["total_bits"] == 4704
    assert m["consensus_instances"] == 1
    assert m["per_broadcast"] == [
        {
            "client": "c000",
            "message": "6d",
            "time": 0,
            "attempts": 1,
            "latency": 21,
            "delivered_everywhere": True,
        }
    ]


def test_retry_frozen_outcome():
    result = run_bundled("retry")
    assert result.quiescent
    assert not result.failed
    m = result.metrics
    # estimate 1 against delta 10: bets double 2, 33, 65, 99, 137; the
    # fifth clears the horizon (local 120 + 16 + 1)
    bets = sorted(
        {
            e.payload["msg"]["bet"]
            for e in result.trace
            if e.kind == SEND and e.process == "c000"
        }
    )
    assert bets == [2, 33, 65, 99, 137]
    outcomes = {}
    for e in result.trace:
        if e.kind == DECIDE and e.process == "s000":
            outcomes[e.payload["instance"]["bet"]] = e.payload["value"]
    assert outcomes == {2: False, 33: False, 65: False, 99: False, 137: True}
    assert m["consensus_instances"] == 5
    assert m["per_broadcast"][0]["attempts"] == 5
    assert m["per_broadcast"][0]["latency"] == 147
    deliveries = [(e.time, e.process) for e in result.trace if e.kind == APP_DELIVER]
    assert deliveries == [(147, s) for s in QUORUM_ORDER]


def test_partial_dissemination_frozen_outcome():
    result = run_bundled("partial_dissemination")
    assert result.quiescent
    assert not result.failed
    assert not [e for e in result.trace if e.kind == APP_DELIVER]
    decides = [e for e in result.trace if e.kind == DECIDE]
    assert {e.process for e in decides} == set(SERVERS)
    assert all(e.payload["value"] is False for e in decides)
    assert all(e.time == 110 for e in decides)  # bet 100 expires, one delta of suggests
    assert result.metrics["per_broadcast"][0]["delivered_everywhere"] is False
    assert result.metrics["per_broadcast"][0]["latency"] is None


def test_blink_fast_frozen_outcome():
    result = run_bundled("blink_fast")
    assert result.quiescent
    assert not result.failed
    decides = [(e.time, e.process, e.payload["value"]) for e in result.trace if e.kind == DECIDE]
    assert decides == [(10, s, True) for s in QUORUM_ORDER]


def test_equivocator_frozen_outcome():
    result = run_bundled("equivocator")
    assert result.quiescent
    assert not result.failed
    decides = [(e.time, e.process, e.payload["value"]) for e in result.trace if e.kind == DECIDE]
    assert decides == [(10, s, True) for s in QUORUM_ORDER if s in CORRECT5]


def test_crashed_client_is_held_to_nothing_and_its_peer_still_delivers():
    # c000 bets 0 + 1 + 1 = 2 and crashes at 5, before any Decision can reach it; c002 crashes before its broadcast.
    doc = scenario_dict(clients=[
        {"name": "c000", "delta_estimate": 1, "crash_time": 5, "broadcasts": [{"at": 0, "message": "6d"}]},
        {"name": "c001", "broadcasts": [{"at": 0, "message": "6e"}]},
        {"name": "c002", "crash_time": 3, "broadcasts": [{"at": 4, "message": "6f"}]},
    ])
    result = run_scenario(parse_scenario(doc))
    assert result.quiescent
    assert not result.failed
    assert [e.process for e in result.trace if e.kind == BROADCAST] == ["c000", "c001"]
    verdicts = {r.prop: (r.verdict, r.detail) for r in result.reports}
    assert verdicts["tob-validity"] == ("Pass", "1 broadcast(s) delivered everywhere")  # c001's only
    assert verdicts["latency-tob"][0] == verdicts["latency-blink"][0] == "NotApplicable"
    rows = {row["client"]: row for row in result.metrics["per_broadcast"]}
    assert (rows["c000"]["attempts"], rows["c000"]["delivered_everywhere"]) == (1, False)
    assert (rows["c001"]["attempts"], rows["c001"]["delivered_everywhere"]) == (1, True)


def test_campaign_variant_construction():
    base = load_scenario(SCENARIOS_DIR / "campaign_base.json")
    v = campaign_variant(base, "mute", "adversarial_value", 7)
    assert v.name == "campaign_base+mute+adversarial_value+s7"
    assert v.network.seed == 7
    assert v.server_faults["s005"].behavior == "mute"
    assert v.dep_policy == "adversarial_value"

    w = campaign_variant(base, "partial_disseminator", "first", 3)
    assert "s005" not in w.server_faults
    assert any(c.name == "c900" and c.behavior == "partial_disseminator" for c in w.clients)


def test_campaign_places_a_server_behavior_on_a_correct_server():
    # equivocator.json's s005 is its one fault and f=1: no server behavior fits, and s005 is never replaced.
    base = load_scenario(SCENARIOS_DIR / "equivocator.json")
    with pytest.raises(ScenarioError, match="no server left for mute: f=1 faults already"):
        campaign_variant(base, "mute", "first", 0)
    assert base.server_faults["s005"].behavior == "equivocator"
    # With room for two faults, the behavior takes the highest-numbered server the base leaves correct.
    wide = parse_scenario(scenario_dict(n=11, f=2, servers={"s010": {"behavior": "mute"}}))
    v = campaign_variant(wide, "time_liar", "first", 0)
    assert {s: fault.behavior for s, fault in v.server_faults.items()} == {"s009": "time_liar", "s010": "mute"}
    summary = run_campaign(wide, range(2), ["stale_relay", "time_liar", "mute"])
    assert (summary["runs"], summary["fail_count"], summary["all_pass"]) == (12, 0, True)


def test_campaign_over_a_blink_base_scripts_no_faulty_server():
    base = load_scenario(SCENARIOS_DIR / "blink_fast.json")
    v = campaign_variant(base, "mute", "first", 0)
    assert {s: fault.behavior for s, fault in v.server_faults.items()} == {"s005": "mute"}
    assert [entry.server for entry in v.blink_script] == [f"s{i:03d}" for i in range(5)]
    assert len(base.blink_script) == 6 and base.server_faults == {}  # the base is left as it was
    with pytest.raises(ScenarioError, match="no room for partial_disseminator: kind 'blink' takes no clients"):
        campaign_variant(base, "partial_disseminator", "first", 0)


def test_campaign_worker_pool_matches_the_serial_digest():
    base = load_scenario(SCENARIOS_DIR / "campaign_base.json")
    summary = run_campaign(base, range(5), sorted(BEHAVIORS), parallel=2)
    rendered = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    assert sha256(rendered.encode()) == CAMPAIGN_DIGEST


def test_campaign_starts_no_more_workers_than_jobs(monkeypatch):
    pools = []  # [size, chunks mapped] of each pool

    class SerialPool:
        """Records its size and how many chunks it hands out, and runs the jobs in this process."""

        def __init__(self, processes):
            pools.append([processes, None])

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            pools[-1][1] = -(-len(jobs) // chunksize)
            return [fn(job) for job in jobs]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    base = load_scenario(SCENARIOS_DIR / "campaign_base.json")
    summary = run_campaign(base, range(6), ["mute"], parallel=64)  # 1 behavior x 2 default policies x 6 seeds
    assert summary["runs"] == 12
    assert summary["policies"] == ["adversarial_value", "adversarial_timing"]
    assert [size for size, _chunks in pools] == [12]
    run_campaign(base, range(1), ["mute"], ["adversarial_value"], parallel=64)  # one job: run serially
    assert len(pools) == 1
    run_campaign(base, range(6), ["mute"], parallel=2)
    assert [size for size, _chunks in pools] == [12, 2]
    # No more workers than CPUs, however many are asked for; an unknown count runs serially.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    run_campaign(base, range(6), ["mute"], parallel=1000)
    assert [size for size, _chunks in pools] == [12, 2, 4]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_campaign(base, range(6), ["mute"], parallel=1000)
    assert len(pools) == 3
    assert all(chunks >= size for size, chunks in pools)  # every worker gets a chunk


def test_campaign_small_sweep_all_pass():
    base = load_scenario(SCENARIOS_DIR / "campaign_base.json")
    summary = run_campaign(base, range(3), ["mute", "equivocator"], ["adversarial_value"])
    assert summary["runs"] == 6
    assert summary["fail_count"] == 0
    assert summary["all_pass"] is True
    assert set(summary["per_behavior"]) == {"mute", "equivocator"}
    for row in summary["per_behavior"].values():
        assert row["runs"] == 3
        assert row["complexity_ok"] is True


@pytest.mark.parametrize("error", [ProtocolBugError, OracleViolationError, AssertionError])
def test_campaign_records_a_crashing_run_as_a_failing_row(error, monkeypatch):
    def crash(self, ctx):
        raise error("mutant crashed")

    monkeypatch.setattr(Mute, "on_init", crash)  # only the mute runs crash
    base = load_scenario(SCENARIOS_DIR / "campaign_base.json")
    summary = run_campaign(base, range(2), ["mute", "equivocator"], ["adversarial_value"])
    assert summary["runs"] == 4
    assert summary["all_pass"] is False
    assert summary["fails"] == [
        {"run": f"campaign_base+mute+adversarial_value+s{seed}", "property": error.__name__, "detail": "mutant crashed"}
        for seed in range(2)
    ]
    assert summary["per_behavior"]["equivocator"]["fails"] == 0
    assert summary["verdicts"]["Pass"] > 0  # the equivocator runs were still checked


class GhostVoter(Behavior):
    """Votes True on a well-formed tuple that names a client no scenario has."""

    def on_init(self, ctx):
        ctx.broadcast(Suggest(BroadcastTuple(ctx.local_time() + 50, "ghost", "f00d"), True))


def test_a_forged_tuple_of_no_client_is_decided_and_the_campaign_goes_on(monkeypatch):
    monkeypatch.setitem(BEHAVIORS, "ghost_voter", GhostVoter)
    base = load_scenario(SCENARIOS_DIR / "campaign_base.json")
    result = run_scenario(campaign_variant(base, "ghost_voter", "adversarial_value", 0))
    assert result.quiescent and result.failed == []
    ghost = {e.process for e in result.trace if e.kind == DECIDE and e.payload["instance"]["client"] == "ghost"}
    assert ghost == set(CORRECT5)  # every correct server decided the forged tuple, and sent its Decision nowhere
    assert run_checked(campaign_variant(base, "ghost_voter", "adversarial_timing", 1)).failed == []
    summary = run_campaign(base, range(2), ["ghost_voter"])
    assert (summary["runs"], summary["fail_count"], summary["all_pass"]) == (4, 0, True)


@pytest.mark.parametrize("seeds, named", [(range(0, 6, 2), [0, 4]), (range(3, 0, -1), [3, 1]), (range(2, 4), [2, 3]),
                                          (range(0), [])])
def test_a_campaign_summary_names_its_first_and_last_seed(seeds, named):
    base = load_scenario(SCENARIOS_DIR / "campaign_base.json")
    summary = run_campaign(base, seeds, ["mute"], ["adversarial_value"])
    assert (summary["seeds"], summary["runs"]) == (named, len(seeds))


def test_rerun_is_event_identical():
    a = run_bundled("campaign_base")
    b = run_bundled("campaign_base")
    assert [e.to_line() for e in a.trace] == [e.to_line() for e in b.trace]


def test_a_run_frees_its_check_pass_at_once_even_when_it_raises(monkeypatch):
    # A checked run closes its simulator, so reference counting frees the pass: the collector is off here.
    passes = []
    real = runner.check_pass

    def spy(cfg, sink=None):
        checks = real(cfg, sink)
        passes.append(weakref.ref(checks))
        return checks

    monkeypatch.setattr(runner, "check_pass", spy)
    gc.disable()
    try:
        run_checked(parse_scenario(scenario_dict()))
        try:
            run_checked(parse_scenario(scenario_dict(step_budget=10)))
        except BudgetExceededError:  # not bound to a name: its traceback, and the run's frame, go at once
            pass
        else:
            pytest.fail("a run over its step budget must raise")
        assert [ref() for ref in passes] == [None, None]
    finally:
        gc.enable()


def test_no_checked_run_leaves_cyclic_garbage():
    # Every bundled scenario, checked and kept; every campaign run on both campaign bases; a run cut by its budget.
    bundled = [load_scenario(path) for path in sorted(SCENARIOS_DIR.glob("*.json"))]
    bases = [scenario for scenario in bundled if scenario.name in ("campaign_base", "campaign_wide")]
    variants = [campaign_variant(base, behavior, policy, 1) for base in bases for behavior in sorted(BEHAVIORS)
                for policy in ("adversarial_value", "adversarial_timing")]
    assert len(bundled) == 8 and len(variants) == 24
    gc.collect()
    gc.disable()
    try:
        left = {}
        for scenario in bundled:
            run_checked(scenario)
            left[scenario.name, "run_checked"] = gc.collect()
            run_scenario(scenario)
            left[scenario.name, "run_scenario"] = gc.collect()
        for variant in variants:
            run_checked(variant)
            left[variant.name, "run_checked"] = gc.collect()
        try:
            run_checked(parse_scenario(scenario_dict(step_budget=10)))
        except BudgetExceededError:
            pass
        else:
            pytest.fail("a run over its step budget must raise")
        left["budget", "run_checked"] = gc.collect()
    finally:
        gc.enable()
    assert {run: count for run, count in left.items() if count} == {}


def test_a_kept_run_equals_a_rerun_of_its_scenario():
    # run_scenario's trace is a list of events: it compares by value, indexes and slices.
    first, again = run_bundled("goodcase"), run_bundled("goodcase")
    assert type(first.trace) is list and first == again and repr(first) == repr(again)
    assert first.trace[-1] == again.trace[-1] and first.trace[:3] == again.trace[:3]


@pytest.mark.parametrize(("until", "quiescent"), [(None, True), (5, False)])
def test_a_checked_run_records_how_it_ended_on_its_config(monkeypatch, until, quiescent):
    # The config is built before the run; finishing the pass records whether the run quiesced.
    configs = []
    real = runner.check_pass

    def spy(cfg, sink=None):
        configs.append(cfg)
        return real(cfg, sink)

    monkeypatch.setattr(runner, "check_pass", spy)
    result = run_checked(parse_scenario(scenario_dict(until=until)))
    assert result.quiescent is quiescent
    assert [cfg.quiescent for cfg in configs] == [quiescent]
