"""Metamorphic relations: two runs whose outcomes must relate in a known way.

Time shift: adding k to every broadcast's `at` and to any `crash_time` moves every event k ticks later, with its
process and kind unchanged, and keeps every report's verdict. It holds under the `first` and `adversarial_value` dep
policies. It breaks under `adversarial_timing`: `DepOracle._decide` seeds its rng from the instance payload, and that
payload holds the absolute bet, so a shifted run draws other decide delays.
"""

from __future__ import annotations

import json

import pytest

from fluttersim.runner import run_scenario
from fluttersim.scenario import parse_scenario

from conftest import SCENARIOS_DIR

SHIFT = 7


def shifted(doc: dict, k: int) -> dict:
    clients = [{**client, "broadcasts": [{**b, "at": b["at"] + k} for b in client.get("broadcasts", [])]}
               for client in doc.get("clients", [])]
    for client in clients:
        if client.get("crash_time") is not None:
            client["crash_time"] += k
    return {**doc, "clients": clients}


@pytest.mark.parametrize("policy", ["first", "adversarial_value"])
@pytest.mark.parametrize("name", ["goodcase", "retry", "campaign_base", "campaign_wide"])
def test_a_time_shift_moves_every_event_and_keeps_every_verdict(name, policy):
    doc = {**json.loads((SCENARIOS_DIR / f"{name}.json").read_text()), "dep": {"policy": policy}}
    base, moved = run_scenario(parse_scenario(doc)), run_scenario(parse_scenario(shifted(doc, SHIFT)))
    assert [(e.time + SHIFT, e.process, e.kind) for e in base.trace] == [(e.time, e.process, e.kind)
                                                                         for e in moved.trace]
    assert [(r.prop, r.verdict) for r in base.reports] == [(r.prop, r.verdict) for r in moved.reports]
    assert len(base.trace) > 100 and base.quiescent and moved.quiescent
