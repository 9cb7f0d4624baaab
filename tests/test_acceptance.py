"""Acceptance gate: ten frozen end-to-end guarantees, one test each.

Each test is one pass/fail line under `pytest -v`, or one per swept value:
criterion 01 runs over the delay bound and criterion 05 over the client's
delay estimate. Criterion 05 has a companion: a client's next broadcast
starts at the margin its lost bets taught it, and a win there lowers the
margin by one step for the broadcast after. Tolerances are zero
ticks unless a runtime ceiling is stated; no expected value here was
invented, each was derived by hand or computed by an independent brute
force before being frozen.
"""

from __future__ import annotations

import time
from itertools import combinations

import pytest

from fluttersim.runner import run_campaign, run_scenario
from fluttersim.scenario import load_scenario, parse_scenario
from fluttersim.trace import APP_DELIVER, DECIDE, DELIVER, SEND, write_trace
from fluttersim.weakcon import POLICIES, DepOracle

from conftest import QUORUM_ORDER, SCENARIOS_DIR, scenario_dict

SERVERS = [f"s{i:03d}" for i in range(6)]
CORRECT5 = [f"s{i:03d}" for i in range(5)]


def run_bundled(name):
    return run_scenario(load_scenario(SCENARIOS_DIR / f"{name}.json"))


def run_one_broadcast(delta, estimate):
    # the bundled goodcase and retry files, at another delta or estimate
    client = {"name": "c000", "delta_estimate": estimate, "broadcasts": [{"at": 0, "message": "6d"}]}
    return run_scenario(parse_scenario(scenario_dict(delta=delta, clients=[client])))


@pytest.mark.parametrize("delta", [2, 5, 10, 20, 50], ids="delta={}".format)
def test_criterion_01_good_case_delivery_at_t_plus_2delta_plus_epsilon(delta):
    # n=6, f=1, exact delta, zero drift, margin 1, truthful estimate,
    # broadcast at t=0: every server app-delivers at exactly 0 + 2*delta + 1
    # (21 for the bundled goodcase at delta 10), in QUORUM_ORDER.
    t0 = time.perf_counter()
    result = run_bundled("goodcase") if delta == 10 else run_one_broadcast(delta, delta)
    elapsed = time.perf_counter() - t0
    deliveries = [(e.time, e.process) for e in result.trace if e.kind == APP_DELIVER]
    assert deliveries == [(2 * delta + 1, s) for s in QUORUM_ORDER]
    assert not result.failed
    assert [r.verdict for r in result.reports if r.prop == "latency-tob"] == ["Pass"]
    assert result.quiescent
    assert elapsed < 1.0


def test_criterion_02_fast_path_decides_within_one_message_delay():
    # all six servers propose True at t=0 under exact delta 10: every
    # server decides True at exactly t=10, in QUORUM_ORDER.
    result = run_bundled("blink_fast")
    decides = [(e.time, e.process, e.payload["value"]) for e in result.trace if e.kind == DECIDE]
    assert decides == [(10, s, True) for s in QUORUM_ORDER]
    assert not result.failed


def test_criterion_03_fast_path_survives_equivocator_arriving_first():
    # five correct servers propose True; the sixth is faulty and sends
    # False to everyone, and its False is the first suggestion each
    # correct server hears. They all still decide True at t=10, s004 first,
    # since only it holds four True copies once s003's have arrived.
    result = run_bundled("equivocator")
    for s in CORRECT5:
        first = next(e for e in result.trace if e.kind == DELIVER and e.process == s)
        assert first.payload["src"] == "s005"
        assert first.payload["msg"]["kind"] == "Suggest"
        assert first.payload["msg"]["value"] is False
    decides = [(e.time, e.process, e.payload["value"]) for e in result.trace if e.kind == DECIDE]
    assert decides == [(10, s, True) for s in QUORUM_ORDER if s in CORRECT5]
    assert not result.failed


def test_criterion_04_partial_dissemination_dies_with_false_decisions():
    # a faulty client reaches one server of six with a far-future bet:
    # every server decides False, nothing is app-delivered, every server
    # reports the False decision back to the client, and every safety
    # checker passes.
    result = run_bundled("partial_dissemination")
    assert not [e for e in result.trace if e.kind == APP_DELIVER]
    decides = [(e.process, e.payload["value"]) for e in result.trace if e.kind == DECIDE]
    assert sorted(decides) == [(s, False) for s in SERVERS]
    reported = sorted(
        e.process
        for e in result.trace
        if e.kind == SEND
        and e.payload["msg"]["kind"] == "Decision"
        and e.payload["dst"] == "c000"
        and e.payload["msg"]["value"] is False
    )
    assert reported == SERVERS
    for r in result.reports:
        assert r.verdict != "Fail", (r.prop, r.detail)
        if not r.prop.startswith("latency"):
            assert r.verdict == "Pass", (r.prop, r.verdict)


# delay estimate -> (attempt count, r*), each recomputed by brute force below
BACKOFF = {1: (5, 4), 2: (4, 3), 3: (3, 2), 5: (2, 2), 10: (1, 1), 20: (1, 0)}


@pytest.mark.parametrize("estimate", sorted(BACKOFF), ids="estimate={}".format)
def test_criterion_05_backoff_clears_underestimate_at_bruteforced_r(estimate):
    # true delta 10, margin 1, zero drift, exact delays, synchronized
    # clocks: attempt r arrives in time iff 2^r * estimate + epsilon >
    # delta, so the last attempt is the smallest such r, and it lies at
    # or below the general guarantee r* (2^r * estimate > delta + 2*drift).
    # Both are found here by brute force, never assumed: estimate 1 needs
    # r=4 (2^4 + 1 = 17 > 10, 2^3 + 1 = 9 <= 10), so attempts 0..3 are
    # voted down, attempt 4 is delivered, and the trace holds exactly 5
    # consensus instances (the bundled retry file).
    attempts, r_star = BACKOFF[estimate]
    delta, epsilon, drift = 10, 1, 0
    last = next(r for r in range(64) if (2**r) * estimate + epsilon > delta)
    assert last + 1 == attempts
    assert next(r for r in range(64) if (2**r) * estimate > delta + 2 * drift) == r_star
    assert last <= r_star

    result = run_bundled("retry") if estimate == 1 else run_one_broadcast(delta, estimate)
    bets = sorted(
        {
            e.payload["msg"]["bet"]
            for e in result.trace
            if e.kind == SEND and e.process == "c000" and e.payload["msg"]["kind"] == "Message"
        }
    )
    assert len(bets) == attempts
    outcome_by_attempt = {s: {} for s in SERVERS}
    for e in result.trace:
        if e.kind == DECIDE:
            outcome_by_attempt[e.process][bets.index(e.payload["instance"]["bet"])] = e.payload["value"]
    assert outcome_by_attempt == {s: {r: r == last for r in range(attempts)} for s in SERVERS}
    assert result.metrics["consensus_instances"] == attempts
    deliverers = {e.process for e in result.trace if e.kind == APP_DELIVER}
    assert deliverers == set(SERVERS)
    assert not result.failed


@pytest.mark.parametrize("estimate", sorted(BACKOFF), ids="estimate={}".format)
def test_criterion_05_a_client_s_next_broadcast_starts_at_the_margin_it_learned(estimate):
    # criterion 05's run with a second broadcast at t=300 and a third at
    # t=600, each after the one before is delivered. The first broadcast's
    # lost bets raise the client's floor to the brute-forced last attempt,
    # so the second message sends one bet, at that attempt, and every
    # server decides it True. Its bet lands at 300 + 2^last * estimate +
    # epsilon and the bet is ahead of every arrival, so each server
    # delivers one delta after the bet, as in the good case (27 ticks for
    # estimate 1, whose first broadcast needed 5 attempts; 21 for estimate
    # 10). The second message was the first new bet at that floor, so its
    # win lowers the floor by one: the third message bets at last - 1,
    # which loses by the brute force, and then at last. With last = 0 the
    # floor never rises and the third message wins at attempt 0.
    attempts, _ = BACKOFF[estimate]
    delta, epsilon, second, third = 10, 1, 300, 600
    last = next(r for r in range(64) if (2**r) * estimate + epsilon > delta)
    broadcasts = [{"at": 0, "message": "6d"}, {"at": second, "message": "6e"}, {"at": third, "message": "6f"}]
    client = {"name": "c000", "delta_estimate": estimate, "broadcasts": broadcasts}
    result = run_scenario(parse_scenario(scenario_dict(delta=delta, clients=[client])))
    bets = {"6d": {}, "6e": {}, "6f": {}}  # message -> its bets in send order (a dict keeps one per bet)
    for e in result.trace:
        if e.kind == SEND and e.process == "c000" and e.payload["msg"]["kind"] == "Message":
            bets[e.payload["msg"]["message"]][e.payload["msg"]["bet"]] = None
    assert len(bets["6d"]) == attempts
    assert list(bets["6e"]) == [second + (2**last) * estimate + epsilon]
    (bet,) = bets["6e"]
    decided = {(e.process, e.payload["value"]) for e in result.trace
               if e.kind == DECIDE and e.payload["instance"]["bet"] == bet}
    assert decided == {(s, True) for s in SERVERS}
    delivered = [e.time for e in result.trace if e.kind == APP_DELIVER and e.payload["message"] == "6e"]
    assert len(delivered) == len(SERVERS)
    latency = max(delivered) - second
    assert latency == bet + delta - second
    rows = {b["message"]: b for b in result.metrics["per_broadcast"]}
    assert (rows["6e"]["attempts"], rows["6e"]["latency"]) == (1, latency)
    probe = max(last - 1, 0)
    assert next(iter(bets["6f"])) == third + (2**probe) * estimate + epsilon
    assert rows["6f"]["attempts"] == (2 if last else 1)
    assert not result.failed


def test_criterion_06_campaign_of_1000_runs_per_behavior_never_fails():
    # every built-in behavior, both adversarial dep policies, 500 seeds:
    # 6 x 2 x 500 = 6000 runs, 1000 per behavior, randomized delays and
    # skewed clocks. Zero Fail verdicts allowed anywhere.
    base = load_scenario(SCENARIOS_DIR / "campaign_base.json")
    behaviors = [
        "equivocator",
        "time_liar",
        "observe_forger",
        "mute",
        "stale_relay",
        "partial_disseminator",
    ]
    policies = ["adversarial_value", "adversarial_timing"]
    assert set(policies) < set(POLICIES)
    t0 = time.perf_counter()
    summary = run_campaign(base, range(500), behaviors, policies)
    elapsed = time.perf_counter() - t0
    assert summary["runs"] == 6000
    for behavior in behaviors:
        row = summary["per_behavior"][behavior]
        assert row["runs"] >= 1000
        assert row["fails"] == 0
        assert row["complexity_ok"] is True
    assert summary["fail_count"] == 0
    assert summary["verdicts"].get("Fail", 0) == 0
    assert summary["verdicts"].get("Pass", 0) > 0
    assert summary["all_pass"] is True
    assert elapsed < 300.0


def test_criterion_07_quorum_intersections_exhaustive_to_n16():
    # At n = 5f+1: any (4f+1)-set keeps at least 3f+1 correct members
    # under any f-subset of faults, and any (4f+1)-set meets any
    # (2f+1)-set in at least f+1 servers, so the intersection always
    # holds a correct server. Verified exhaustively for f = 0..3
    # (n = 1, 6, 11, 16): all set pairs and all (set, fault-set) pairs
    # are enumerated; the fault quantifier over full triples is
    # enumerated for f <= 2, while for f = 3 the verified pair bound
    # |A cap B| >= f+1 > |F| already rules out any all-faulty overlap.
    def masks(n, k):
        out = []
        for combo in combinations(range(n), k):
            m = 0
            for i in combo:
                m |= 1 << i
            out.append(m)
        return out

    for f in (0, 1, 2, 3):
        n = 5 * f + 1
        assert n <= 16
        large = masks(n, 4 * f + 1)
        small = masks(n, 2 * f + 1)
        faults = masks(n, f)
        for a in large:
            for fm in faults:
                assert (a & ~fm).bit_count() >= 3 * f + 1, f"f={f}: too few correct in a large set"
        worst = min((a & b).bit_count() for a in large for b in small)
        assert worst >= f + 1, f"f={f}: intersection can shrink to {worst}"
        if f <= 2:
            not_faulty = [~fm for fm in faults]
            for a in large:
                for b in small:
                    ab = a & b
                    assert all(ab & nf for nf in not_faulty), f"f={f}: all-faulty intersection"


def test_criterion_08_good_case_send_counts_are_exactly_quadratic():
    # one broadcast attempt, n=6: n Message, n(n-1) Time, n(n-1) Suggest and
    # n Decision sends, 2n^2 in all, counted from the trace. A server's
    # Suggest is its relay, and it sends its Suggest and its one Time to
    # every other server, taking its own copy in the step it sends them.
    result = run_bundled("goodcase")
    n = 6
    sends = result.metrics["sends_by_kind"]
    assert sends == {
        "Message": n,
        "Time": n * (n - 1),
        "Suggest": n * (n - 1),
        "Decision": n,
    }
    assert sum(sends.values()) == 2 * n * n
    assert result.metrics["max_suggest_sends_per_instance"] == n * (n - 1)


def test_criterion_09_reruns_are_byte_identical(tmp_path):
    for name in ("goodcase", "retry", "campaign_base"):
        first = tmp_path / f"{name}.a.jsonl"
        second = tmp_path / f"{name}.b.jsonl"
        write_trace(first, run_bundled(name).trace)
        write_trace(second, run_bundled(name).trace)
        assert first.read_bytes() == second.read_bytes(), name


def test_criterion_10_wide_campaign_contests_the_dep_value(monkeypatch):
    # campaign_wide: 3 clients x 3 broadcasts, estimate 2 against delta 10,
    # so bets are rejected and retried and some dep instances get split
    # correct proposals, the only instances where the value adversary of
    # both policies chooses. 6 behaviors x 2 policies x 10 seeds, serial,
    # so the wrapped oracle counts every run. Zero Fail verdicts allowed.
    split = []
    real = DepOracle._decide

    def decide(self, instance, proposals):
        split.append(len(set(proposals.values())) > 1)
        real(self, instance, proposals)

    monkeypatch.setattr(DepOracle, "_decide", decide)
    base = load_scenario(SCENARIOS_DIR / "campaign_wide.json")
    behaviors = ["equivocator", "mute", "observe_forger", "partial_disseminator", "stale_relay", "time_liar"]
    summary = run_campaign(base, range(10), behaviors, ["adversarial_value", "adversarial_timing"])
    assert summary["runs"] == 120
    assert summary["fail_count"] == 0
    assert summary["verdicts"].get("Fail", 0) == 0
    assert all(row["complexity_ok"] for row in summary["per_behavior"].values())
    assert summary["all_pass"] is True
    assert any(split), f"no split dep instance among {len(split)}"
