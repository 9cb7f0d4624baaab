"""Shared fixtures: bundled scenario paths and minimal scenario builders."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import pytest

from fluttersim import runner
from fluttersim.runner import build_simulation

SCENARIOS_DIR = Path(__file__).resolve().parents[1] / "scenarios"
# The order in which the six servers of a good-case run reach a quorum within one tick. A server counts its own Suggest
# or Time in the step it sends it, so it waits on 4f = 4 copies from the others. Those arrive at one tick in send
# order, and each sender's copies reach the other servers in server order: s004 and s005 hold four once s003's copies
# have arrived, and s000-s003 only once s004's have.
QUORUM_ORDER = [f"s{i:03d}" for i in (4, 5, 0, 1, 2, 3)]


def scenario_dict(**overrides: Any) -> dict[str, Any]:
    """A minimal valid flutter scenario; override fields per test."""
    base: dict[str, Any] = {
        "name": "unit",
        "kind": "flutter",
        "n": 6,
        "f": 1,
        "delta": 10,
        "drift": 0,
        "epsilon": 1,
        "network": {"strategy": "exact_delta"},
        "clients": [
            {
                "name": "c000",
                "delta_estimate": 10,
                "broadcasts": [{"at": 0, "message": "6d"}],
            }
        ],
    }
    base.update(overrides)
    return base


def simulate(scenario) -> tuple[list, bool]:
    """Run a scenario without checking it: its trace as a list of events (so a test may edit it), and whether it
    quiesced."""
    sim = build_simulation(scenario)
    quiescent = sim.run(until=scenario.until)
    return list(sim.trace), quiescent


@pytest.fixture
def write_scenario(tmp_path):
    """Write a scenario dict to a temp file and return its path."""

    def _write(doc: dict[str, Any], name: str = "scenario.json") -> Path:
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return path

    return _write


@pytest.fixture
def online_sims(monkeypatch):
    """Every simulator a run builds from here on."""
    sims = []
    real = runner.build_simulation

    def build(scenario):
        sims.append(real(scenario))
        return sims[-1]

    monkeypatch.setattr(runner, "build_simulation", build)
    return sims
