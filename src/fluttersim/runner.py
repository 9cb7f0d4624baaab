"""Build simulations from scenarios, run them, check them, measure them.

Campaign runs sweep seeds x behaviors x dep policies over one base
scenario; every run gets the full checker suite, so each behavior is a
falsification attempt rather than a fixture with blessed output. Every
run is checked online, by `run_checked`; `run_scenario` keeps its trace.
"""

from __future__ import annotations

import os

from . import trace as tr
from .adversary import BEHAVIORS
from .blink import BlinkNode, propose_token
from .checkers import FAIL, CheckerConfig, CheckPass, CheckReport, Metrics, check_pass
from .client import FlutterClient
from .errors import BudgetExceededError, OracleViolationError, ProtocolBugError, ScenarioError
from .scenario import ClientSpec, Scenario, ServerFault, require_a_client
from .server import FlutterServer
from .simnet import ExactDelta, Scripted, SeededRandom, Simulator
from .types import Record
from .weakcon import POLICIES, DepOracle

# What a run can raise that ends the run, not the program: a campaign books it as a failing row.
RUN_BREAKERS = (BudgetExceededError, ProtocolBugError, OracleViolationError, AssertionError)


def _strategy(scenario: Scenario):
    net = scenario.network
    if net.strategy == "exact_delta":
        return ExactDelta(scenario.delta)
    if net.strategy == "seeded_random":
        return SeededRandom(scenario.delta, net.seed)
    return Scripted(scenario.delta, net.delays)


def build_simulation(scenario: Scenario) -> Simulator:
    sim = Simulator(_strategy(scenario), step_budget=scenario.step_budget)
    # Decide indications land within 3 delta of the last correct proposal.
    policy = POLICIES[scenario.dep_policy]()
    oracle = DepOracle(sim, scenario.correct_servers, policy, 3 * scenario.delta, seed=scenario.network.seed)
    for name in scenario.servers:
        fault = scenario.server_faults.get(name)
        if fault is not None:
            handler = BEHAVIORS[fault.behavior](name, scenario.delta, fault.params)
        elif scenario.kind == "flutter":
            handler = FlutterServer(name, scenario.f, oracle)
        else:
            handler = BlinkNode(name, scenario.f, oracle)
        sim.add_process(name, "server", handler, scenario.clock_offsets.get(name, 0))
    for spec in scenario.clients:
        if spec.behavior is not None:
            handler = BEHAVIORS[spec.behavior](spec.name, scenario.delta, spec.params)
        else:
            handler = FlutterClient(spec.name, scenario.f, spec.delta_estimate, scenario.epsilon, spec.broadcasts,
                                    spec.crash_time)
        sim.add_process(spec.name, "client", handler, scenario.clock_offsets.get(spec.name, 0))
    for entry in scenario.blink_script:
        sim.schedule_global(entry.server, entry.at, propose_token(entry.instance, entry.value))
    return sim


class RunResult(Record):
    __slots__ = ("scenario", "trace", "quiescent", "reports", "metrics")

    def __init__(self, scenario: Scenario, trace: list[tr.TraceEvent], quiescent: bool, reports: list[CheckReport],
                 metrics: dict):
        self.scenario = scenario
        self.trace = trace  # empty unless kept (`run_scenario`)
        self.quiescent = quiescent
        self.reports = reports
        self.metrics = metrics

    @property
    def failed(self) -> list[CheckReport]:
        return [r for r in self.reports if r.verdict == FAIL]

    def report_dict(self) -> dict:
        return {
            "scenario": self.scenario.name,
            "quiescent": self.quiescent,
            "reports": [r.to_dict() for r in self.reports],
            "metrics": self.metrics,
        }


def run_checked(scenario: Scenario, sink=None) -> RunResult:
    """Simulate `scenario` with no trace kept, checking each event as emitted (after `sink`, a simulator sink)."""
    sim = build_simulation(scenario)
    sim.sink = checks = check_pass(CheckerConfig.from_scenario(scenario, quiescent=False), sink)
    try:
        quiescent = sim.run(until=scenario.until)
    finally:  # the simulator is cyclic garbage: unhooked, the pass is freed at once, even when the run raises
        sim.sink = sim.trace
    return RunResult(scenario, [], quiescent, checks.finish(quiescent), checks.metrics.summary(checks))


def run_scenario(scenario: Scenario) -> RunResult:
    """Simulate and check `scenario`, keeping its trace."""
    trace = tr.Trace()
    return run_checked(scenario, trace).replace(trace=list(trace))


def compute_metrics(trace, scenario: Scenario, quiescent: bool) -> dict:
    checks = CheckPass(CheckerConfig.from_scenario(scenario, quiescent), [Metrics]).run(trace)
    return checks.metrics.summary(checks)


# ---------------------------------------------------------------- campaigns

_CAMPAIGN_CLIENT = "c900"


def _inject(base: Scenario, behavior: str) -> dict:
    """The fields of `base` that one more `behavior` process changes.

    A server behavior takes the highest-numbered correct server, whose blink script entries go:
    a Byzantine server runs no script.
    """
    if BEHAVIORS[behavior].role == "client":
        if base.kind == "blink":
            raise ScenarioError(f"campaign base {base.name} has no room for {behavior}: kind 'blink' takes no clients")
        if _CAMPAIGN_CLIENT in base.client_names:
            raise ScenarioError(f"campaign base {base.name} already has a client named {_CAMPAIGN_CLIENT}")
        return {"clients": [*base.clients, ClientSpec(_CAMPAIGN_CLIENT, base.delta, behavior=behavior)]}
    if len(base.server_faults) >= base.f:
        raise ScenarioError(f"campaign base {base.name} has no server left for {behavior}: f={base.f} faults already")
    require_a_client(behavior, base.clients, f"campaign base {base.name}")
    server = base.correct_servers[-1]
    return {
        "server_faults": {**base.server_faults, server: ServerFault(behavior, {})},
        "blink_script": [entry for entry in base.blink_script if entry.server != server],
    }


def campaign_variant(base: Scenario, behavior: str, policy: str, seed: int) -> Scenario:
    """One campaign run: seeded delays, chosen dep policy, one injected fault."""
    return base.replace(
        name=f"{base.name}+{behavior}+{policy}+s{seed}",
        network=base.network.replace(strategy="seeded_random", seed=seed, delays={}),
        dep_policy=policy,
        **_inject(base, behavior),
    )


def _run_one(args: tuple[Scenario, str, str, int]) -> dict:
    base, behavior, policy, seed = args
    variant = campaign_variant(base, behavior, policy, seed)
    row = {"run": variant.name, "behavior": behavior, "policy": policy, "seed": seed}
    try:
        run = run_checked(variant)
    except RUN_BREAKERS as e:
        # One bad run is a failing row; the rest of the campaign still runs.
        prop = "budget" if isinstance(e, BudgetExceededError) else type(e).__name__
        return {**row, "fails": [{"property": prop, "detail": str(e)}], "verdicts": {}, "max_suggest": 0}
    verdicts: dict[str, int] = {}
    for report in run.reports:
        verdicts[report.verdict] = verdicts.get(report.verdict, 0) + 1
    fails = [{"property": r.prop, "detail": r.detail} for r in run.failed]
    return {**row, "fails": fails, "verdicts": verdicts, "max_suggest": run.metrics["max_suggest_sends_per_instance"]}


def run_campaign(
    base: Scenario,
    seeds: range,
    behaviors: list[str],
    policies: list[str] | None = None,
    parallel: int = 1,
) -> dict:
    policies = policies or ["adversarial_value", "adversarial_timing"]
    for names in (behaviors, policies):  # each run is booked under its names, so a repeat would count it twice
        if len(set(names)) < len(names):
            raise ScenarioError(f"campaign names repeat: {names}")
    for behavior in behaviors:  # a base with no room for a behavior fails before the first run
        _inject(base, behavior)
    jobs = [
        (base, behavior, policy, seed)
        for behavior in behaviors
        for policy in policies
        for seed in seeds
    ]
    workers = min(parallel, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            rows = pool.map(_run_one, jobs, chunksize=max(1, len(jobs) // (4 * workers)))
    else:
        rows = [_run_one(job) for job in jobs]

    verdicts: dict[str, int] = {}
    fails: list[dict] = []
    per_behavior: dict[str, dict] = {}
    limit = base.n * base.n
    for row in rows:
        for verdict, count in row["verdicts"].items():
            verdicts[verdict] = verdicts.get(verdict, 0) + count
        slot = per_behavior.setdefault(
            row["behavior"], {"runs": 0, "fails": 0, "max_suggest_sends_per_instance": 0}
        )
        slot["runs"] += 1
        slot["fails"] += len(row["fails"])
        slot["max_suggest_sends_per_instance"] = max(slot["max_suggest_sends_per_instance"], row["max_suggest"])
        for failure in row["fails"]:
            fails.append({"run": row["run"], **failure})
    for slot in per_behavior.values():
        slot["complexity_ok"] = slot["max_suggest_sends_per_instance"] <= limit
    summary = {
        "base": base.name,
        "seeds": [seeds[0], seeds[-1]] if len(seeds) else [],
        "behaviors": behaviors,
        "policies": policies,
        "runs": len(rows),
        "verdicts": dict(sorted(verdicts.items())),
        "fail_count": len(fails),
        "fails": fails[:50],
        "per_behavior": per_behavior,
        "suggest_limit_per_instance": limit,
        "all_pass": not fails and all(s["complexity_ok"] for s in per_behavior.values()),
    }
    return summary
