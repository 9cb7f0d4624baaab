"""Event-driven simulation and checking of leaderless total-order broadcast."""

from .checkers import CheckerConfig, CheckReport, run_all_checks
from .runner import RunResult, build_simulation, run_campaign, run_scenario
from .scenario import Scenario, load_scenario, parse_scenario
from .simnet import ExactDelta, Scripted, SeededRandom, Simulator
from .types import BroadcastTuple

__all__ = [
    "BroadcastTuple",
    "CheckReport",
    "CheckerConfig",
    "ExactDelta",
    "RunResult",
    "Scenario",
    "Scripted",
    "SeededRandom",
    "Simulator",
    "build_simulation",
    "load_scenario",
    "parse_scenario",
    "run_all_checks",
    "run_campaign",
    "run_scenario",
]
