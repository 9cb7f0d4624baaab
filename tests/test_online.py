"""A run checked as it goes gets the reports and metrics its kept trace gets."""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from fluttersim import trace as tr
from fluttersim.adversary import BEHAVIORS
from fluttersim.checkers import FAIL, CheckerConfig, check_pass, run_all_checks
from fluttersim.runner import _run_one, build_simulation, campaign_variant, compute_metrics, run_campaign
from fluttersim.scenario import load_scenario, parse_scenario
from fluttersim.server import FlutterServer

from conftest import SCENARIOS_DIR, scenario_dict, simulate
from test_golden import CAMPAIGN_DIGEST

BUNDLED = sorted(p.stem for p in SCENARIOS_DIR.glob("*.json"))
POLICIES = ["adversarial_value", "adversarial_timing"]


def campaign_base():
    return load_scenario(SCENARIOS_DIR / "campaign_base.json")


@pytest.mark.parametrize("name", BUNDLED + [f"campaign+{b}" for b in sorted(BEHAVIORS)])
def test_streamed_trace_checks_like_the_kept_trace(tmp_path, name):
    if name.startswith("campaign+"):
        scenario = campaign_variant(campaign_base(), name.split("+")[1], "adversarial_value", 3)
    else:
        scenario = load_scenario(SCENARIOS_DIR / f"{name}.json")
    trace, quiescent = simulate(scenario)
    cfg = CheckerConfig.from_scenario(scenario, quiescent)
    path = tmp_path / "trace.jsonl"
    tr.write_trace(path, trace)
    kept = [r.to_dict() for r in run_all_checks(trace, cfg)]
    assert [r.to_dict() for r in run_all_checks(tr.read_trace(path), cfg)] == kept
    assert compute_metrics(tr.read_trace(path), scenario, quiescent) == compute_metrics(trace, scenario, quiescent)


# "goodcase@10" is cut by `until` right after s005's Suggest broadcast: the run ends on a send call.
@pytest.mark.parametrize("name", ["goodcase", "goodcase@10", "campaign+equivocator"])
def test_run_in_two_parts_matches_feeding_every_event(name):
    name, _, until = name.partition("@")
    if name.startswith("campaign+"):
        scenario = campaign_variant(campaign_base(), name.split("+")[1], "adversarial_value", 3)
    else:
        scenario = load_scenario(SCENARIOS_DIR / f"{name}.json")
    if until:
        scenario = scenario.replace(until=int(until))
    trace, quiescent = simulate(scenario)
    assert (trace[-1].kind == tr.SEND) == bool(until)
    cfg = CheckerConfig.from_scenario(scenario, quiescent)
    half = len(trace) // 2
    ran = check_pass(cfg).run(trace[:half]).run(iter(trace[half:]))
    fed = check_pass(cfg)
    for event in trace:
        fed.run((event,))
    live = check_pass(cfg)  # the simulator's sink, handed each send call once
    sim = build_simulation(scenario)
    sim.sink = live
    assert sim.run(until=scenario.until) == quiescent
    assert (ran.events, ran.last) == (fed.events, fed.last) == (live.events, live.last) == (len(trace), trace[-1])
    for other in (fed, live):
        assert [r.to_dict() for r in ran.finish(quiescent)] == [r.to_dict() for r in other.finish(quiescent)]
        assert ran.metrics.summary(ran) == other.metrics.summary(other)
    assert live.metrics.summary(live)["final_time"] == trace[-1].time


def test_a_run_cut_right_after_a_delivery_ends_on_its_deliver_event():
    # c000's second message is scripted at t=500, after the first is delivered everywhere; a trace cut before it and
    # judged as quiescent misses that broadcast, and the witness is the run's last event: a delivery the pass kept
    # as its tuple.
    scenario = parse_scenario(scenario_dict(clients=[{"name": "c000", "delta_estimate": 10, "broadcasts": [
        {"at": 0, "message": "01"}, {"at": 500, "message": "02"}]}]))
    trace, _ = simulate(scenario)
    cut = max(i for i, e in enumerate(trace) if e.time < 500 and trace[i + 1].time > e.time)  # a tick's last event
    assert trace[cut].kind == tr.DELIVER
    cfg = CheckerConfig.from_scenario(scenario, True)
    live = check_pass(cfg)
    sim = build_simulation(scenario)
    sim.sink = live
    assert not sim.run(until=trace[cut].time)
    for run in (check_pass(cfg).run(trace[: cut + 1]), live):
        assert (run.events, run.final_time) == (cut + 1, trace[cut].time)
        assert run.metrics.summary(run)["final_time"] == trace[cut].time
        validity = next(r for r in run.finish(True) if r.prop == "tob-validity")
        assert (validity.verdict, validity.detail) == (FAIL, "broadcast (c000, 0x02) not delivered by "
                                                             "['s000', 's001', 's002', 's003', 's004', 's005'] "
                                                             "(broadcast event missing)")
        e = trace[cut]
        assert validity.witness == [{"time": e.time, "process": e.process, "kind": tr.DELIVER, "payload": e.payload}]
        assert run.last == e


def test_a_checked_campaign_builds_no_send_event(monkeypatch):
    # The live path hands the check pass each send call once and each delivery as a tuple, and no report of these
    # runs names a Send or a Deliver.
    built = Counter()
    real = tr.TraceEvent.__init__

    def counting(self, time, process, kind, payload):
        built[kind] += 1
        real(self, time, process, kind, payload)

    monkeypatch.setattr(tr.TraceEvent, "__init__", counting)
    summary = run_campaign(campaign_base(), range(5), sorted(BEHAVIORS))
    assert built[tr.SEND] == built[tr.DELIVER] == 0 and built[tr.TIMER_FIRE] > 500
    rendered = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(rendered.encode()).hexdigest() == CAMPAIGN_DIGEST


@pytest.mark.parametrize("name", BUNDLED + ["campaign+equivocator"])
def test_a_kept_trace_is_checked_and_written_with_no_send_event(tmp_path, monkeypatch, name):
    # A kept `Trace` hands its consumers each send call once and each delivery as a tuple; a list or a file goes on
    # one call per Send or Deliver line.
    if name.startswith("campaign+"):
        scenario = campaign_variant(campaign_base(), name.split("+")[1], "adversarial_value", 3)
    else:
        scenario = load_scenario(SCENARIOS_DIR / f"{name}.json")
    built = Counter()
    real = tr.TraceEvent.__init__

    def counting(self, time, process, kind, payload):
        built[kind] += 1
        real(self, time, process, kind, payload)

    monkeypatch.setattr(tr.TraceEvent, "__init__", counting)
    sim = build_simulation(scenario)
    quiescent = sim.run(until=scenario.until)
    cfg = CheckerConfig.from_scenario(scenario, quiescent)
    reports = [r.to_dict() for r in run_all_checks(sim.trace, cfg)]
    metrics = compute_metrics(sim.trace, scenario, quiescent)
    tr.write_trace(tmp_path / "kept.jsonl", sim.trace)
    assert built[tr.SEND] == built[tr.DELIVER] == 0 < built[tr.TIMER_FIRE]
    monkeypatch.undo()
    listed = list(sim.trace)
    assert len(listed) == len(sim.trace) == metrics["events"]
    assert [r.to_dict() for r in run_all_checks(listed, cfg)] == reports
    assert compute_metrics(listed, scenario, quiescent) == metrics
    tr.write_trace(tmp_path / "listed.jsonl", listed)
    tr.write_trace(tmp_path / "read.jsonl", tr.read_trace(tmp_path / "kept.jsonl"))
    data = (tmp_path / "kept.jsonl").read_bytes()
    assert (tmp_path / "listed.jsonl").read_bytes() == (tmp_path / "read.jsonl").read_bytes() == data


def test_metrics_book_a_shared_message_per_sender():
    # s005 is the faulty server: its copies of a shared Suggest dict are no correct sends.
    scenario = campaign_variant(campaign_base(), "mute", "adversarial_value", 0)
    shared = {"kind": "Suggest", "instance": {"label": "x"}, "value": True}
    trace = [
        tr.TraceEvent(1, "s000", tr.SEND, {"dst": "s001", "msg": shared}),
        tr.TraceEvent(1, "s005", tr.SEND, {"dst": "s001", "msg": shared}),
        tr.TraceEvent(1, "s005", tr.SEND, {"dst": "s002", "msg": shared}),
        tr.TraceEvent(2, "s000", tr.SEND, {"dst": "s002", "msg": shared}),
    ]
    metrics = compute_metrics(trace, scenario, quiescent=False)
    assert metrics["sends_by_kind"] == {"Suggest": 4}
    assert metrics["max_suggest_sends_per_instance"] == 2


def offline_row(base, behavior, policy, seed) -> dict:
    """The campaign row of one variant, from its kept trace."""
    variant = campaign_variant(base, behavior, policy, seed)
    trace, quiescent = simulate(variant)
    reports = run_all_checks(trace, CheckerConfig.from_scenario(variant, quiescent))
    return {
        "run": variant.name,
        "behavior": behavior,
        "policy": policy,
        "seed": seed,
        "fails": [{"property": r.prop, "detail": r.detail} for r in reports if r.verdict == FAIL],
        "verdicts": dict(Counter(r.verdict for r in reports)),
        "max_suggest": compute_metrics(trace, variant, quiescent)["max_suggest_sends_per_instance"],
    }


@pytest.mark.parametrize("behavior", sorted(BEHAVIORS))
def test_online_campaign_rows_equal_offline_rows(behavior, online_sims):
    base = campaign_base()
    for policy in POLICIES:
        for seed in range(10):
            assert _run_one((base, behavior, policy, seed)) == offline_row(base, behavior, policy, seed)
    assert len(online_sims) == 2 * 10
    assert all(len(sim.trace) == 0 for sim in online_sims)


def test_online_and_offline_fails_agree_on_a_double_delivering_server(monkeypatch, online_sims):
    # Server mutant: every ordered tuple is app-delivered once more.
    real = FlutterServer._order

    def order_twice(self, ctx, t):
        real(self, ctx, t)
        ctx.emit(tr.APP_DELIVER, {"client": t.client, "message": t.message, "bet": t.bet})

    monkeypatch.setattr(FlutterServer, "_order", order_twice)
    base = campaign_base()
    for behavior in ("mute", "time_liar"):
        online = _run_one((base, behavior, "adversarial_value", 1))
        assert {f["property"] for f in online["fails"]} >= {"tob-no-duplication", "server-order-matches-appdeliver"}
        assert online == offline_row(base, behavior, "adversarial_value", 1)
    assert all(len(sim.trace) == 0 for sim in online_sims)
