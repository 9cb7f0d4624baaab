"""Fault behaviors: each attacks one mechanism and must not break safety."""

from __future__ import annotations

import pytest

from fluttersim.adversary import BEHAVIORS
from fluttersim.errors import ScenarioError
from fluttersim.runner import run_scenario
from fluttersim.scenario import parse_scenario
from fluttersim.trace import APP_DELIVER, DECIDE, DELIVER, SEND

from conftest import scenario_dict


def run(doc):
    return run_scenario(parse_scenario(doc))


def fails(result):
    return [r for r in result.reports if r.verdict == "Fail"]


def sends_from(trace, src, kind):
    return [e for e in trace if e.kind == SEND and e.process == src and e.payload["msg"]["kind"] == kind]


def test_registry_contents():
    assert set(BEHAVIORS) == {
        "equivocator",
        "time_liar",
        "observe_forger",
        "mute",
        "stale_relay",
        "partial_disseminator",
    }
    assert all(hasattr(cls, "role") for cls in BEHAVIORS.values())


def blink_doc(**kw):
    doc = scenario_dict(
        kind="blink",
        clients=[],
        blink_script=[
            {"at": 0, "server": f"s{i:03d}", "instance": "i0", "value": True}
            for i in range(5)
        ],
        servers={"s005": {"behavior": "equivocator", "params": {"mode": "all_false", "instances": ["i0"], "react": False}}},
    )
    doc.update(kw)
    return doc


def test_equivocator_split_sends_conflicting_suggestions():
    doc = blink_doc(
        servers={"s005": {"behavior": "equivocator", "params": {"mode": "split", "instances": ["i0"], "react": False}}},
        blink_script=[],
    )
    result = run(doc)
    suggests = sends_from(result.trace, "s005", "Suggest")
    values = [e.payload["msg"]["value"] for e in suggests]
    assert len(values) == 6
    assert values.count(True) == 3 and values.count(False) == 3


def test_equivocator_poison_lands_first_yet_truth_decides():
    result = run(blink_doc())
    correct = [f"s{i:03d}" for i in range(5)]
    decides = {e.process: e.payload["value"] for e in result.trace if e.kind == DECIDE and e.process in correct}
    assert decides == {s: True for s in correct}
    # The faulty suggestion is the first thing each correct server hears.
    for s in correct:
        first = next(e for e in result.trace if e.kind == DELIVER and e.process == s)
        assert first.payload["src"] == "s005"
        assert first.payload["msg"]["value"] is False
    assert fails(result) == []


def test_equivocator_reacts_to_sighted_instances():
    doc = scenario_dict(
        servers={"s005": {"behavior": "equivocator", "params": {"mode": "split"}}},
    )
    result = run(doc)
    assert sends_from(result.trace, "s005", "Suggest")
    assert fails(result) == []


def test_time_liar_cannot_move_the_lock_alone():
    doc = scenario_dict(
        servers={"s005": {"behavior": "time_liar"}},
    )
    result = run(doc)
    assert result.quiescent
    assert fails(result) == []
    # the real broadcast still lands everywhere despite the lies
    deliverers = {e.process for e in result.trace if e.kind == APP_DELIVER}
    assert deliverers == {f"s{i:03d}" for i in range(5)}


def test_two_time_liars_rejected_by_f_bound():
    doc = scenario_dict(
        servers={
            "s004": {"behavior": "time_liar"},
            "s005": {"behavior": "time_liar"},
        },
    )
    with pytest.raises(ScenarioError):
        parse_scenario(doc)


def test_observe_forger_victim_never_delivers_forged_message():
    doc = scenario_dict(
        servers={"s005": {"behavior": "observe_forger"}},
    )
    result = run(doc)
    assert fails(result) == []
    delivered = {e.payload["message"] for e in result.trace if e.kind == APP_DELIVER}
    assert "f00d" not in delivered
    assert "6d" in delivered
    # every correct server votes the forged tuple down
    forged_decides = [
        e
        for e in result.trace
        if e.kind == DECIDE and e.payload["instance"].get("message") == "f00d"
    ]
    assert forged_decides
    assert all(e.payload["value"] is False for e in forged_decides)


def test_observe_forger_needs_a_client_somewhere():
    # Rejected when the scenario is parsed, not in the middle of its run.
    doc = blink_doc(servers={"s005": {"behavior": "observe_forger", "params": {}}})
    with pytest.raises(ScenarioError, match=r"servers\['s005'\]: observe_forger needs a client"):
        parse_scenario(doc)


def test_mute_server_does_not_block_delivery():
    doc = scenario_dict(servers={"s005": {"behavior": "mute"}})
    result = run(doc)
    assert result.quiescent
    assert fails(result) == []
    assert not [e for e in result.trace if e.kind == SEND and e.process == "s005"]
    deliverers = {e.process for e in result.trace if e.kind == APP_DELIVER}
    assert deliverers == {f"s{i:03d}" for i in range(5)}


def test_stale_relay_times_precede_observes_per_link():
    doc = scenario_dict(servers={"s005": {"behavior": "stale_relay"}})
    result = run(doc)
    assert fails(result) == []
    for dst in [f"s{i:03d}" for i in range(6)]:
        kinds = [
            e.payload["msg"]["kind"]
            for e in result.trace
            if e.kind == SEND and e.process == "s005" and e.payload["dst"] == dst
        ]
        if kinds:
            assert kinds.index("Time") < kinds.index("Observe")


def test_partial_disseminator_sends_to_subset_then_silence():
    doc = scenario_dict(
        clients=[
            {
                "name": "c000",
                "behavior": "partial_disseminator",
                "params": {"message": "6d"},
            }
        ],
    )
    result = run(doc)
    assert fails(result) == []
    msgs = sends_from(result.trace, "c000", "Message")
    assert [e.payload["dst"] for e in msgs] == ["s000"]
    assert not [e for e in result.trace if e.kind == APP_DELIVER]
    decides = [e for e in result.trace if e.kind == DECIDE]
    assert decides and all(e.payload["value"] is False for e in decides)

