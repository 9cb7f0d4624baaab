"""Checkers must catch planted violations, not just bless clean runs."""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fluttersim.adversary import BEHAVIORS
from fluttersim.checkers import (
    FAIL,
    NA,
    PASS,
    CheckerConfig,
    CheckPass,
    _ev,
    _lock_rank,
    _ServerInvariants,
    _ServerReplay,
    check_complexity,
    check_consensus,
    check_latency,
    check_network,
    check_pass,
    check_server_invariants,
    check_tob,
    run_all_checks,
)
from fluttersim.runner import build_simulation, campaign_variant
from fluttersim.scenario import load_scenario, parse_scenario
from fluttersim.trace import APP_DELIVER, BROADCAST, DECIDE, DELIVER, DEP_DECIDE, PROPOSE, SEND, TraceEvent
from fluttersim.types import NEG_INF, BroadcastTuple, quorum_large

from conftest import SCENARIOS_DIR, scenario_dict, simulate

FIRST = {"client": "c000", "message": "01", "bet": 11}  # the two-message run's first tuple


def event(time, process, kind, payload):
    return {"time": time, "process": process, "kind": kind, "payload": payload}


def two_message_doc():
    return scenario_dict(
        clients=[
            {
                "name": "c000",
                "delta_estimate": 10,
                "broadcasts": [
                    {"at": 0, "message": "01"},
                    {"at": 2, "message": "02"},
                ],
            }
        ],
    )


def clean_run(doc=None):
    scenario = parse_scenario(doc or two_message_doc())
    trace, quiescent = simulate(scenario)
    return trace, CheckerConfig.from_scenario(scenario, quiescent=quiescent)


def by_prop(reports):
    out = {}
    for r in reports:
        out.setdefault(r.prop, []).append(r)
    return out


def verdicts_of(trace, cfg, prop):
    return by_prop(run_all_checks(trace, cfg))[prop]


def failing(trace, cfg, prop):
    bad = [r for r in verdicts_of(trace, cfg, prop) if r.verdict == FAIL]
    assert bad, f"expected a Fail for {prop}"
    return bad[0]


def test_clean_two_message_run_passes_everything():
    clean, cfg = clean_run()
    reports = run_all_checks(clean, cfg)
    assert all(r.verdict in (PASS, NA) for r in reports)
    assert by_prop(reports)["tob-total-order"][0].verdict == PASS


def test_replay_spots_tuples_from_relays_alone():
    # Without the c000 -> s001 link, s001's replay learns both tuples only
    # from Observe relays, and must still count each as a candidate.
    clean, cfg = clean_run()
    trace = [
        e
        for e in clean
        if not (e.kind == SEND and e.process == "c000" and e.payload["dst"] == "s001")
        and not (e.kind == DELIVER and e.process == "s001" and e.payload["src"] == "c000")
    ]
    assert len(trace) < len(clean)
    reports = run_all_checks(trace, cfg)
    assert all(r.verdict in (PASS, NA) for r in reports)
    assert by_prop(reports)["server-candidate-completeness"][0].detail == "2 accepted tuple(s)"


def test_swapped_deliveries_fail_total_order():
    clean, cfg = clean_run()
    trace = copy.deepcopy(clean)
    mine = [i for i, e in enumerate(trace) if e.kind == APP_DELIVER and e.process == "s000"]
    assert len(mine) == 2
    i, j = mine
    trace[i].payload, trace[j].payload = trace[j].payload, trace[i].payload
    report = failing(trace, cfg, "server-order-ascending")
    assert report.detail == "s000 app-delivered tuples out of ascending order"
    assert report.witness == [event(23, "s000", APP_DELIVER, FIRST)]
    report = failing(trace, cfg, "tob-total-order")
    assert report.detail == "correct servers' delivery sequences diverge"
    assert report.witness == [
        event(21, "s000", APP_DELIVER, {"client": "c000", "message": "02", "bet": 13}),
        event(21, "s001", APP_DELIVER, FIRST),
    ]


def test_missing_last_delivery_fails_total_order_at_quiescence():
    clean, cfg = clean_run()
    trace = copy.deepcopy(clean)
    last = max(i for i, e in enumerate(trace) if e.kind == APP_DELIVER and e.process == "s002")
    del trace[last]
    # s002's sequence is a strict prefix of the others: divergence only at quiescence
    report = failing(trace, cfg, "tob-total-order")
    assert report.witness == [event(23, "s000", APP_DELIVER, {"client": "c000", "message": "02", "bet": 13})]


def test_duplicate_delivery_fails_no_duplication():
    clean, cfg = clean_run()
    trace = copy.deepcopy(clean)
    ev = next(e for e in trace if e.kind == APP_DELIVER)
    trace.append(TraceEvent(ev.time + 1, ev.process, APP_DELIVER, dict(ev.payload)))
    report = failing(trace, cfg, "tob-no-duplication")
    assert report.witness


def test_unbroadcast_delivery_fails_integrity():
    clean, cfg = clean_run()
    trace = copy.deepcopy(clean)
    trace.append(
        TraceEvent(99, "s000", APP_DELIVER, {"client": "c000", "message": "ff", "bet": 50})
    )
    failing(trace, cfg, "tob-integrity")


def goodcase_run():
    scenario = load_scenario(SCENARIOS_DIR / "goodcase.json")
    trace, quiescent = simulate(scenario)
    return trace, CheckerConfig.from_scenario(scenario, quiescent=quiescent)


def test_missing_broadcast_event_fails_validity_with_the_deliveries_as_witness():
    clean, cfg = goodcase_run()
    trace = [e for e in clean if e.kind != BROADCAST]
    report = failing(trace, cfg, "tob-validity")
    assert report.detail == "broadcast (c000, 0x6d) not delivered by [] (broadcast event missing)"
    delivers = [e for e in trace if e.kind == APP_DELIVER]
    assert [e.process for e in delivers] == cfg.correct_servers
    assert report.witness == [event(e.time, e.process, e.kind, e.payload) for e in delivers]


def test_missing_broadcast_and_deliveries_fail_validity_at_the_last_event():
    clean, cfg = goodcase_run()
    trace = [e for e in clean if e.kind not in (BROADCAST, APP_DELIVER)]
    report = failing(trace, cfg, "tob-validity")
    assert report.detail == f"broadcast (c000, 0x6d) not delivered by {cfg.correct_servers} (broadcast event missing)"
    last = trace[-1]
    assert report.witness == [event(last.time, last.process, last.kind, last.payload)]


@pytest.mark.parametrize(
    "kind, prop, detail",
    [
        (DECIDE, "consensus-agreement", "both values decided"),
        (DEP_DECIDE, "dep-agreement", "dep decided both values"),
    ],
    ids=[DECIDE, DEP_DECIDE],
)
def test_split_decision_fails_consensus_agreement(kind, prop, detail):
    clean, cfg = clean_run()
    trace = copy.deepcopy(clean)
    ev = next(e for e in trace if e.kind == kind and e.process == "s000")
    flipped = copy.deepcopy(ev)
    flipped.process = "s001"
    flipped.payload["value"] = not flipped.payload["value"]
    # replace s001's own decide for that instance with the flipped one
    trace = [
        e
        for e in trace
        if not (
            e.kind == kind
            and e.process == "s001"
            and e.payload["instance"] == ev.payload["instance"]
        )
    ]
    trace.append(flipped)
    report = failing(trace, cfg, prop)
    assert report.detail == f"instance (c000, 0x01, bet=11): {detail}"
    assert report.witness == [
        event(20, "s000", kind, {"instance": FIRST, "value": True}),
        event(20, "s001", kind, {"instance": FIRST, "value": False}),
    ]


@pytest.mark.parametrize(
    "kind, prop, what",
    [
        (DECIDE, "consensus-integrity", "decides"),
        (DEP_DECIDE, "dep-integrity", "dep decide indications"),
    ],
    ids=[DECIDE, DEP_DECIDE],
)
def test_double_decide_fails_consensus_integrity(kind, prop, what):
    clean, cfg = clean_run()
    trace = copy.deepcopy(clean)
    assert sum(1 for e in trace if e.kind == kind) == 12  # two instances x six servers
    ev = next(e for e in trace if e.kind == kind)
    trace.append(copy.deepcopy(ev))
    report = failing(trace, cfg, prop)
    assert report.detail == f"instance (c000, 0x01, bet=11): two {what} at one server"
    assert report.witness == [event(20, "s000", kind, {"instance": FIRST, "value": True})] * 2


def test_unproposed_value_fails_representative_validity():
    clean, cfg = clean_run()
    trace = copy.deepcopy(clean)
    # all correct proposals said True for the first instance; flip every
    # decide for it to False
    target = next(e.payload["instance"] for e in trace if e.kind == PROPOSE and e.payload["value"] is True)
    for e in trace:
        if e.kind == DECIDE and e.payload["instance"] == target:
            e.payload["value"] = False
    failing(trace, cfg, "consensus-representative-validity")


def test_missing_decide_fails_termination_when_quiescent():
    clean, cfg = clean_run()
    trace = [
        e
        for e in copy.deepcopy(clean)
        if not (e.kind == DECIDE and e.process == "s000")
    ]
    failing(trace, cfg, "consensus-termination")


def test_truncated_run_reports_liveness_not_applicable():
    doc = two_message_doc()
    doc["until"] = 15  # proposals happen at t=10, decisions never do
    scenario = parse_scenario(doc)
    trace, quiescent = simulate(scenario)
    assert not quiescent
    cfg = CheckerConfig.from_scenario(scenario, quiescent=quiescent)
    reports = by_prop(run_all_checks(trace, cfg))
    assert all(r.verdict == NA for r in reports["tob-validity"])
    assert all(r.verdict == NA for r in reports["consensus-termination"])
    # safety still judged on the prefix
    assert all(r.verdict == PASS for r in reports["tob-total-order"])
    assert all(r.verdict == PASS for r in reports["net-fifo"])


def test_starved_server_fails_candidate_completeness():
    clean, cfg = clean_run()
    # drop every Message/Observe delivery at s001: it can never spot the
    # tuples the others decided True
    trace = [
        e
        for e in copy.deepcopy(clean)
        if not (
            e.kind == DELIVER
            and e.process == "s001"
            and e.payload["msg"]["kind"] in ("Message", "Observe")
        )
    ]
    failing(trace, cfg, "server-candidate-completeness")


def test_held_back_delivery_fails_appdeliver_match():
    clean, cfg = clean_run()
    trace = copy.deepcopy(clean)
    dropped = False
    out = []
    for e in trace:
        if not dropped and e.kind == APP_DELIVER and e.process == "s002":
            dropped = True  # s002 skips its first delivery
            continue
        out.append(e)
    # the replay still orders that tuple at s002, so the emitted deliveries
    # no longer match what the state machine mandates
    failing(out, cfg, "server-order-matches-appdeliver")
    failing(out, cfg, "tob-total-order")


def test_flipped_local_decide_fails_order_agreement():
    clean, cfg = clean_run()
    trace = copy.deepcopy(clean)
    # s002's replay sees a False decide for its first tuple and skips it;
    # everyone else orders that tuple first
    first = next(
        e for e in trace if e.kind == DECIDE and e.process == "s002" and e.payload["value"] is True
    )
    first.payload["value"] = False
    report = failing(trace, cfg, "server-order-agreement")
    assert report.detail == "servers processed accepted tuples in different orders"
    assert report.witness == [
        event(21, "s000", DELIVER, {"src": "s004", "msg": {"kind": "Time", "time": 11}}),
        event(23, "s002", DELIVER, {"src": "s004", "msg": {"kind": "Time", "time": 13}}),
    ]


def shifted_last_deliver(trace, ticks):
    """`trace` with its last Deliver, the last on its link, moved by `ticks`, in time order."""
    trace = list(trace)
    i = max(i for i, e in enumerate(trace) if e.kind == DELIVER)
    trace[i] = trace[i].replace(time=trace[i].time + ticks)
    return sorted(trace, key=lambda e: e.time)


DECISION_02 = {"kind": "Decision", "message": "02", "bet": 13, "value": True}  # s005 -> c000, the last Deliver


def test_late_delivery_fails_delay_bounds():
    clean, cfg = clean_run()
    # 1000 ticks late breaks the bound; 1 tick early breaks exact_delta's exact delay
    for ticks, detail in [(1000, "delay 1010 outside [1, 10] (after FIFO repair)"),
                          (-1, "exact_delta delivered after 9 ticks, not 10")]:
        reports = by_prop(run_all_checks(shifted_last_deliver(clean, ticks), cfg))
        assert [r.verdict for r in reports["net-fifo"]] == [PASS]
        (report,) = reports["net-delay-bounds"]
        assert (report.verdict, report.detail) == (FAIL, detail)
        assert report.witness == [
            event(22, "s005", SEND, {"dst": "c000", "msg": DECISION_02}),
            event(32 + ticks, "c000", DELIVER, {"src": "s005", "msg": DECISION_02}),
        ]


def c000_s000_delivers(trace):
    """The Deliver events on link c000 -> s000, the first link delivered: Messages 01 and 02."""
    link_events = [e for e in trace if e.kind == DELIVER and e.process == "s000" and e.payload["src"] == "c000"]
    assert [e.time for e in link_events] == [10, 12]
    return link_events


def test_reordered_link_fails_fifo():
    clean, cfg = clean_run()
    trace = copy.deepcopy(clean)
    # swap the payloads of two deliveries on the same link
    a, b = c000_s000_delivers(trace)
    a.payload, b.payload = b.payload, a.payload
    report = failing(trace, cfg, "net-fifo")
    assert report.detail == "deliveries out of send order"
    # or deliver the second message before the first one's time, in trace order
    trace = copy.deepcopy(clean)
    c000_s000_delivers(trace)[1].time = 9
    report = failing(trace, cfg, "net-fifo")
    assert report.detail == "delivery times decreased along a link"
    second = {"kind": "Message", "message": "02", "bet": 13}
    assert report.witness == [event(9, "s000", DELIVER, {"src": "c000", "msg": second})]
    # or move a Send after its Deliver: that Deliver finds no Send pending on its link
    i = max(i for i, e in enumerate(clean) if e.kind == SEND and e.process == "s005" and e.payload["dst"] == "c000")
    report = failing(clean[:i] + clean[i + 1 :] + [clean[i]], cfg, "net-fifo")
    assert report.detail == "delivery without a matching send"
    assert report.witness == [event(32, "c000", DELIVER, {"src": "s005", "msg": DECISION_02})]


def test_each_network_property_reports_its_own_first_failure():
    # A FIFO swap on the first link delivered, and a last Deliver 1000 ticks late on a later link.
    clean, cfg = clean_run()
    trace = copy.deepcopy(clean)
    a, b = c000_s000_delivers(trace)
    a.payload, b.payload = b.payload, a.payload
    reports = by_prop(run_all_checks(shifted_last_deliver(trace, 1000), cfg))
    assert [(r.verdict, r.detail) for r in reports["net-fifo"] + reports["net-delay-bounds"]] == [
        (FAIL, "deliveries out of send order"),
        (FAIL, "delay 1010 outside [1, 10] (after FIFO repair)"),
    ]


def test_a_send_stuck_at_quiescence_is_witnessed_in_first_send_order():
    # Links s000->s001, s002->s003 and s000->s004 are first sent on in that order, and only the first delivers:
    # the witness is the earliest stuck link's Send, not the first stuck link of the first sender.
    _trace, cfg = clean_run()
    msgs = [{"kind": "Time", "time": t} for t in (1, 2, 3)]
    trace = [
        TraceEvent(0, "s000", SEND, {"dst": "s001", "msg": msgs[0]}),
        TraceEvent(0, "s002", SEND, {"dst": "s003", "msg": msgs[1]}),
        TraceEvent(0, "s000", SEND, {"dst": "s004", "msg": msgs[2]}),
        TraceEvent(10, "s001", DELIVER, {"src": "s000", "msg": msgs[0]}),
    ]
    fifo, delay = check_network(trace, cfg)
    assert (fifo.verdict, fifo.detail, delay.verdict) == (FAIL, "send never delivered by quiescence", PASS)
    assert fifo.witness == [event(0, "s002", SEND, {"dst": "s003", "msg": msgs[1]})]


def replay_state(invariants):
    return {name: (dict(r.remote_times), r.lock, set(r.candidates), list(r.pending))
            for name, r in invariants.replays.items()}


def test_suggest_and_decision_copies_move_no_replay():
    _trace, cfg = clean_run()
    invariants = _ServerInvariants(cfg)
    before = replay_state(invariants)
    suggest = {"kind": "Suggest", "instance": FIRST, "value": True}
    decision = {"kind": "Decision", **FIRST, "value": True}
    copies = [(src, msg) for src in ("s001", "s005", "c000") for msg in (suggest, decision)]
    invariants.deliver([(t, dst, {"src": src, "msg": msg})
                        for t, (src, msg) in enumerate(copies) for dst in cfg.servers])
    assert replay_state(invariants) == before
    # a Time from a server and a Message from the client do move every replay
    invariants.deliver([(20, dst, {"src": "s001", "msg": {"kind": "Time", "time": 5}}) for dst in cfg.servers]
                       + [(21, dst, {"src": "c000", "msg": {"kind": "Message", **FIRST}}) for dst in cfg.servers])
    after = replay_state(invariants)
    assert all(after[s][0]["s001"] == 5 and after[s][2] == {(11, "c000", "01")} for s in after)


def test_a_label_decide_moves_no_replay():
    # A Blink instance decides under a label, not a tuple: no replay takes it as a decision, and no tuple is accepted.
    _trace, cfg = clean_run()
    invariants = _ServerInvariants(cfg)
    before = replay_state(invariants)
    invariants.event(TraceEvent(5, "s000", DECIDE, {"instance": {"label": "x"}, "value": True}))
    assert replay_state(invariants) == before
    assert all(r.decisions == {} and r.orders == [] for r in invariants.replays.values())
    assert invariants.decided_true == {}


def test_one_extra_suggest_fails_complexity():
    clean, cfg = goodcase_run()
    assert check_complexity(clean, cfg).detail == "max 36 Suggest sends per instance (limit 36)"
    # a 37th Suggest send, one more copy in the last correct server's run of Suggest sends
    i = max(i for i, e in enumerate(clean) if e.kind == SEND and e.payload["msg"]["kind"] == "Suggest")
    report = check_complexity(clean[: i + 1] + [clean[i].replace()] + clean[i + 1 :], cfg)
    assert report.verdict == FAIL
    assert report.detail == "instance (c000, 0x6d, bet=11): 37 Suggest sends from correct servers exceeds n^2=36"
    suggest = {"kind": "Suggest", "instance": {"client": "c000", "message": "6d", "bet": 11}, "value": True}
    assert report.witness == [event(10, "s005", SEND, {"dst": "s005", "msg": suggest})]


def test_late_decide_fails_blink_latency():
    doc = json.loads((SCENARIOS_DIR / "blink_fast.json").read_text())
    # Then with an instance i1 whose proposals split 3-3: it decides too, but only unanimous i0 is held to the bound.
    split = [{"at": 0, "server": f"s00{i}", "instance": "i1", "value": i < 3} for i in range(6)]
    for extra, decided in (([], {"i0"}), (split, {"i0", "i1"})):
        scenario = parse_scenario({**doc, "blink_script": doc["blink_script"] + extra})
        trace, quiescent = simulate(scenario)
        cfg = CheckerConfig.from_scenario(scenario, quiescent)
        assert {e.payload["instance"]["label"] for e in trace if e.kind == DECIDE} == decided
        blink, tob = check_latency(trace, cfg)
        assert (blink.verdict, tob.verdict) == (PASS, NA)
        assert blink.detail == "1 unanimous instance(s) decided within one delta"
        i = next(i for i, e in enumerate(trace) if e.kind == DECIDE and e.process == "s002")
        late = trace[:i] + [trace[i].replace(time=trace[i].time + 1)] + trace[i + 1 :]
        (report, _tob) = check_latency(late, cfg)
        assert (report.prop, report.verdict) == ("latency-blink", FAIL)
        assert report.detail == "instance label:i0: decide at t=11, expected exactly t=10"
        assert report.witness == [
            event(0, "s005", PROPOSE, {"instance": {"label": "i0"}, "value": True}),
            event(11, "s002", DECIDE, {"instance": {"label": "i0"}, "value": True}),
        ]


def test_raised_time_reports_fail_lock_vs_local():
    # s000-s004, 4f+1 servers, report a clock 100 ticks ahead: the replayed lock passes local time.
    clean, cfg = goodcase_run()
    trace = []
    for e in clean:
        src, msg = e.payload.get("src"), e.payload.get("msg", {})
        if e.kind == DELIVER and msg["kind"] == "Time" and src != "s005":
            e = TraceEvent(e.time, e.process, DELIVER, {"src": src, "msg": {"kind": "Time", "time": msg["time"] + 100}})
        trace.append(e)
    report = failing(trace, cfg, "server-lock-vs-local")
    assert report.detail == "lock time passed local time at s000"
    assert report.witness == [event(21, "s000", DELIVER, {"src": "s004", "msg": {"kind": "Time", "time": 111}})]


def test_each_lock_property_reports_its_own_first_failure(monkeypatch):
    # A replay whose lock passes local time at its first Time and then falls by one tick at each later Time.
    def time(self, src, t, delivery):
        self.lock = delivery[0] + 100 if self.lock == NEG_INF else self.lock - 1

    monkeypatch.setattr(_ServerReplay, "time", time)
    clean, cfg = goodcase_run()
    times = [e for e in clean if e.kind == DELIVER and e.payload["msg"]["kind"] == "Time"]
    # vs-local fails at the first Time delivered; monotonic at the first that is its server's second
    first = times[0]
    second = next(e for i, e in enumerate(times) if any(d.process == e.process for d in times[:i]))
    reports = by_prop(check_server_invariants(clean, cfg))
    vs_local, monotonic = reports["server-lock-vs-local"] + reports["server-lock-monotonic"]
    assert (vs_local.verdict, vs_local.detail) == (FAIL, f"lock time passed local time at {first.process}")
    assert (monotonic.verdict, monotonic.detail) == (FAIL, f"lock time decreased at {second.process}")
    assert [vs_local.witness, monotonic.witness] == [[event(e.time, e.process, DELIVER, e.payload)]
                                                     for e in (first, second)]


def test_fail_reports_carry_witnesses():
    clean, cfg = clean_run()
    trace = copy.deepcopy(clean)
    ev = next(e for e in trace if e.kind == APP_DELIVER)
    trace.append(TraceEvent(ev.time + 1, ev.process, APP_DELIVER, dict(ev.payload)))
    for r in run_all_checks(trace, cfg):
        if r.verdict == FAIL:
            assert r.witness, f"{r.prop} failed without a witness"


def test_report_dict_shape():
    clean, cfg = clean_run()
    reports = run_all_checks(clean, cfg)
    d = reports[0].to_dict()
    assert set(d) >= {"property", "verdict"}


def _lock_bruteforce(values, f: int):
    """Largest t supported by at least 4f+1 entries, by direct scan: the replay's reference oracle."""
    best = NEG_INF
    for t in values:
        if t > best and sum(1 for x in values if x >= t) >= quorum_large(f):
            best = t
    return best


@given(
    st.integers(min_value=0, max_value=4),
    st.lists(st.one_of(st.just(NEG_INF), st.integers(min_value=-20, max_value=20)), max_size=24),
)
@example(0, [5])
@example(1, [3, NEG_INF, 4, 1, 5])
@example(1, [3, 9, 4, 1])
def test_lock_rank_matches_bruteforce(f, values):
    assert _lock_rank(values, f) == _lock_bruteforce(values, f)


def reference_orders(events, cfg: CheckerConfig) -> dict[str, tuple[list, set]]:
    """Each correct server's accepted tuples, in processing order, each with the input that processed it, and its
    candidates.

    From the definition, over a list of events, with no lock count and no heap: after every input to a server (a
    Time or Observe a server sends it, a Message its client sends it, or its Decide of a tuple), its lock is the
    (4f+1)-th largest of the servers' latest Times, by a full sort. A tuple spotted with a bet above the lock is a
    candidate. Then, while the least candidate above the last one processed (a full scan) is decided and its bet
    is at most the lock, it is processed.
    """
    out = {}
    for name in cfg.correct_servers:
        times = dict.fromkeys(cfg.servers, NEG_INF)
        orders, candidates, decided, last = [], set(), {}, None
        out[name] = (orders, candidates)
        for e in events:
            spotted = None
            if e.process != name:
                continue
            if e.kind == DELIVER:
                src, msg = e.payload["src"], e.payload["msg"]
                if src in times and msg["kind"] == "Time":
                    times[src] = max(times[src], msg["time"])
                elif src in times and msg["kind"] == "Observe":
                    spotted = (msg["bet"], msg["client"], msg["message"])
                elif src in cfg.clients and msg["kind"] == "Message":
                    spotted = (msg["bet"], src, msg["message"])
            elif e.kind == DECIDE and "label" not in (instance := e.payload["instance"]):
                decided[(instance["bet"], instance["client"], instance["message"])] = e.payload["value"]
            lock = sorted(times.values(), reverse=True)[4 * cfg.f]
            if spotted is not None and spotted[0] > lock:
                candidates.add(spotted)
            while (best := min((t for t in candidates if last is None or t > last), default=None)) is not None:
                if best not in decided or best[0] > lock:
                    break
                last = best
                if decided[best]:
                    orders.append((best, _ev(e)))
    return out


def test_server_replay_orders_match_the_definition():
    # The replay counts entries above its lock, keeps its candidates in a heap and drains only on a lock rise or a
    # Decide; the reference does none of that. Both see every bundled flutter run and 48 campaign runs.
    scenarios = [s for s in map(load_scenario, sorted(SCENARIOS_DIR.glob("*.json"))) if s.kind == "flutter"]
    for base in ("campaign_base", "campaign_wide"):
        base = load_scenario(SCENARIOS_DIR / f"{base}.json")
        scenarios += [campaign_variant(base, behavior, policy, seed) for behavior in sorted(BEHAVIORS)
                      for policy in ("adversarial_value", "adversarial_timing") for seed in (0, 1)]
    accepted = 0
    for scenario in scenarios:
        sim = build_simulation(scenario)
        quiescent = sim.run(until=scenario.until)
        cfg = CheckerConfig.from_scenario(scenario, quiescent)
        (invariants,) = CheckPass(cfg, [_ServerInvariants]).run(sim.trace).checks
        got = {name: ([(t, _ev(e)) for t, e in r.orders], r.candidates) for name, r in invariants.replays.items()}
        assert got == reference_orders(list(sim.trace), cfg), scenario.name
        accepted += sum(len(orders) for orders, _ in got.values())
    assert accepted > 1000


def test_a_tuple_spotted_at_or_below_the_lock_is_no_candidate():
    # c001's bb (bet 2) reaches every server at t=10; c000's aa (bet 3) at t=2, and each server's Observe, Suggest
    # and Time(3) of it reach s000 one tick after they are sent, so s000's lock is 3 from t=4 on.
    servers = [f"s{i:03d}" for i in range(6)]
    delays = {**{f"c001->{s}": [10] for s in servers}, **{f"c000->{s}": [1] for s in servers},
              **{f"{s}->s000": [1, 1, 1] for s in servers}}
    scenario = parse_scenario(scenario_dict(network={"strategy": "scripted", "delays": delays}, clients=[
        {"name": "c000", "delta_estimate": 1, "broadcasts": [{"at": 1, "message": "aa"}]},
        {"name": "c001", "delta_estimate": 1, "broadcasts": [{"at": 0, "message": "bb"}]},
    ]))
    late = BroadcastTuple(2, "c001", "bb")
    sim = build_simulation(scenario)
    server = sim.handlers["s000"]
    assert not sim.run(until=9)
    assert server._lock == 3 and late not in server.observed
    assert not sim.run(until=10)
    assert late in server.observed and late not in server._queue  # spotted at t=10, below the lock
    quiescent = sim.run()
    cfg = CheckerConfig.from_scenario(scenario, quiescent)
    (invariants,) = CheckPass(cfg, [_ServerInvariants]).run(sim.trace).checks
    replay = invariants.replays["s000"]
    assert late not in replay.candidates and replay.decisions[late] is False
    assert quiescent and [r.prop for r in run_all_checks(sim.trace, cfg) if r.verdict == FAIL] == []


# run_all_checks order; True marks the drivers it runs for flutter scenarios only.
DRIVERS = [
    (check_tob, True),
    (check_consensus, False),
    (check_latency, False),
    (check_server_invariants, True),
    (check_network, False),
    (check_complexity, False),
]
CUTS = {
    "clean": lambda trace: trace,
    "no-broadcasts": lambda trace: [e for e in trace if e.kind != BROADCAST],
    "first-half": lambda trace: trace[: len(trace) // 2],
}


def bundled_or_variant(name):
    if name.startswith("campaign+"):
        base = load_scenario(SCENARIOS_DIR / "campaign_base.json")
        return campaign_variant(base, name.split("+")[1], "adversarial_value", 3)
    return load_scenario(SCENARIOS_DIR / f"{name}.json")


@pytest.mark.parametrize("cut", sorted(CUTS))
@pytest.mark.parametrize(
    "name", sorted(p.stem for p in SCENARIOS_DIR.glob("*.json")) + [f"campaign+{b}" for b in sorted(BEHAVIORS)]
)
def test_the_check_drivers_add_up_to_run_all_checks(name, cut):
    scenario = bundled_or_variant(name)
    trace, quiescent = simulate(scenario)
    trace = CUTS[cut](trace)
    cfg = CheckerConfig.from_scenario(scenario, quiescent)
    reports = []
    for driver, flutter_only in DRIVERS:
        if flutter_only and cfg.kind != "flutter":
            continue
        out = driver(trace, cfg)
        reports.extend(out if isinstance(out, list) else [out])
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in run_all_checks(trace, cfg)]


def test_a_pass_with_no_send_consumer_leaves_sends_unread():
    # Only the network and the metrics take send calls; the other drivers never read a Send's payload.
    trace, cfg = clean_run()
    odd = [*trace, TraceEvent(trace[-1].time, "s000", SEND, None)]
    for driver in (check_tob, check_consensus, check_latency, check_server_invariants):
        assert [r.to_dict() for r in driver(odd, cfg)] == [r.to_dict() for r in driver(trace, cfg)]


def test_an_empty_trace_leaves_tob_validity_not_applicable():
    cfg = CheckerConfig.from_scenario(load_scenario(SCENARIOS_DIR / "goodcase.json"), quiescent=True)
    assert [r.verdict for r in check_tob([], cfg) if r.prop == "tob-validity"] == [NA]
    (validity,) = verdicts_of([], cfg, "tob-validity")
    assert (validity.verdict, validity.detail) == (NA, "the trace has no events")
    empty = check_pass(cfg).run([])  # tob-validity reads `last` to tell an empty trace
    assert (empty.events, empty.last) == (0, None)


def test_an_unscripted_broadcast_fails_latency_with_it_as_witness():
    scenario = load_scenario(SCENARIOS_DIR / "goodcase.json")
    trace, quiescent = simulate(scenario)
    cfg = CheckerConfig.from_scenario(scenario, quiescent)
    assert [r.verdict for r in check_latency(trace, cfg)] == [PASS, PASS]
    stray = TraceEvent(trace[-1].time, "c000", BROADCAST, {"message": "beef"})
    (report,) = [r for r in check_latency(trace + [stray], cfg) if r.prop == "latency-tob"]
    assert report.verdict == FAIL
    assert "c000" in report.detail and "beef" in report.detail
    assert report.witness == [event(stray.time, "c000", BROADCAST, {"message": "beef"})]
