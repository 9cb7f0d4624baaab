"""One pass of a workload through the program's public entry points.

A scenario pass is what `fluttersim run` does: load the scenario, build,
simulate, run the six checkers, compute metrics, write the JSONL trace and
the report. A campaign pass is what `fluttersim campaign` does: load the
base scenario and call `run_campaign` serially. A campaign sweep makes the
same runs through `campaign_variant` and the per-run calls, so that the
traced run can time them one by one.

Untraced passes time only the whole pass. Traced passes (`lay` given) also
time each call and each handler hook; see layers.py.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from fluttersim import (
    CheckerConfig,
    RunResult,
    build_simulation,
    load_scenario,
    run_all_checks,
    run_campaign,
)
from fluttersim.adversary import BEHAVIORS
from fluttersim.checkers import (
    FAIL,
    check_complexity,
    check_consensus,
    check_latency,
    check_network,
    check_server_invariants,
    check_tob,
)
from fluttersim.runner import campaign_variant, compute_metrics
from fluttersim.trace import write_trace

from layers import WIRE_KINDS, handler_metrics, trace_counts, wrap_handlers
from workloads import CAMPAIGN_POLICIES

# run_all_checks order; True marks the checkers it runs for flutter scenarios only.
CHECKS = [
    (check_tob, True),
    (check_consensus, False),
    (check_latency, False),
    (check_server_invariants, True),
    (check_network, False),
    (check_complexity, False),
]
CAMPAIGN_BEHAVIORS = sorted(BEHAVIORS)


@dataclass
class Pass:
    wall_s: float
    runs: int = 0
    failed_runs: int = 0
    events: int = 0
    digest: str = ""
    reports: list = field(default_factory=list)  # report dicts of every run, in run order
    metrics: list = field(default_factory=list)  # compute_metrics output of every run
    honest: list = field(default_factory=list)  # honest client names of every run
    verdicts: dict = field(default_factory=dict)
    lay: dict = field(default_factory=dict)  # per-layer values, traced passes only
    run_ms: list = field(default_factory=list)  # per-run wall times


def _timed(lay, name, fn, *args):
    if lay is None:
        return fn(*args)
    t = perf_counter()
    out = fn(*args)
    lay[name] += perf_counter() - t
    return out


def _checks(trace, cfg, lay):
    if lay is None:
        return run_all_checks(trace, cfg)
    reports = []
    for fn, flutter_only in CHECKS:
        if flutter_only and cfg.kind != "flutter":
            continue
        out = _timed(lay, f"checkers.{fn.__name__}_s", fn, trace, cfg)
        reports.extend(out if isinstance(out, list) else [out])
    return reports


def _run(scenario, lay):
    """Build, simulate, check and measure one scenario."""
    sim = _timed(lay, "runner.build_s", build_simulation, scenario)
    acc = None
    if lay is not None:
        acc = defaultdict(float)
        wrap_handlers(sim, acc)
    quiescent = _timed(lay, "simnet.run_s", sim.run, scenario.until)
    cfg = CheckerConfig.from_scenario(scenario, quiescent)
    reports = _checks(sim.trace, cfg, lay)
    metrics = _timed(lay, "runner.metrics_s", compute_metrics, sim.trace, scenario, quiescent)
    if acc is not None:
        for name, value in handler_metrics(acc).items():
            lay[name] += value
    return sim, quiescent, reports, metrics


def _record(p: Pass, scenario, sim, quiescent, reports, metrics, lay) -> None:
    """Book one finished run into its pass; runs outside every timed region."""
    p.runs += 1
    p.events += len(sim.trace)
    failed = not quiescent or any(r.verdict == FAIL for r in reports)
    p.failed_runs += failed
    for r in reports:
        p.verdicts[r.verdict] = p.verdicts.get(r.verdict, 0) + 1
    p.reports.extend(r.to_dict() for r in reports)
    p.metrics.append(metrics)
    p.honest.append(scenario.honest_clients())
    if lay is not None:
        for name, value in trace_counts(sim.trace, scenario.correct_servers, scenario.honest_clients()).items():
            lay[f"count.{name}"] += value


def scenario_pass(path: Path, out_dir: Path, traced: bool) -> Pass:
    """`fluttersim run <path>`: the trace and report land in out_dir."""
    lay = defaultdict(float) if traced else None
    trace_path = out_dir / "trace.jsonl"
    t0 = perf_counter()
    scenario = _timed(lay, "scenario.parse_s", load_scenario, path)
    sim, quiescent, reports, metrics = _run(scenario, lay)
    _timed(lay, "trace.write_s", write_trace, trace_path, sim.trace)
    report = RunResult(scenario, sim.trace, quiescent, reports, metrics).report_dict()
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    p = Pass(perf_counter() - t0)
    p.run_ms.append(1000 * p.wall_s)
    _record(p, scenario, sim, quiescent, reports, metrics, lay)
    data = trace_path.read_bytes()
    p.digest = hashlib.sha256(data).hexdigest()
    if lay is not None:
        lay["trace.bytes"] = len(data)
        p.lay = lay
    return p


def campaign_pass(base_path: Path, seeds: range, out_dir: Path) -> Pass:
    """`fluttersim campaign <base> --behaviors all --parallel 1`."""
    t0 = perf_counter()
    base = load_scenario(base_path)
    summary = run_campaign(base, seeds, CAMPAIGN_BEHAVIORS, CAMPAIGN_POLICIES, parallel=1)
    (out_dir / "campaign.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    p = Pass(perf_counter() - t0, runs=summary["runs"])
    p.failed_runs = len({f["run"] for f in summary["fails"]})
    if not summary["all_pass"]:
        p.failed_runs = max(p.failed_runs, 1)
    p.verdicts = summary["verdicts"]
    p.digest = hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()
    return p


def campaign_sweep(base_path: Path, seeds: range, traced: bool, digest: bool) -> Pass:
    """The runs of campaign_pass, one public call at a time.

    Wall time sums the runs and the base load; counting and hashing the
    traces happen between runs, outside it.
    """
    lay = defaultdict(float) if traced else None
    hasher = hashlib.sha256()
    t0 = perf_counter()
    base = _timed(lay, "scenario.parse_s", load_scenario, base_path)
    p = Pass(perf_counter() - t0)
    for behavior in CAMPAIGN_BEHAVIORS:
        for policy in CAMPAIGN_POLICIES:
            for seed in seeds:
                t0 = perf_counter()
                variant = _timed(lay, "runner.variant_s", campaign_variant, base, behavior, policy, seed)
                sim, quiescent, reports, metrics = _run(variant, lay)
                run_s = perf_counter() - t0
                p.wall_s += run_s
                p.run_ms.append(1000 * run_s)
                _record(p, variant, sim, quiescent, reports, metrics, lay)
                if digest:
                    for event in sim.trace:
                        hasher.update(event.to_line().encode())
                        hasher.update(b"\n")
    if digest:
        p.digest = hasher.hexdigest()
    if lay is not None:
        p.lay = lay
    return p


def peak_bytes_per_event(path: Path, campaign_seed: int | None) -> float:
    """tracemalloc's peak during build and simulate, per trace event.

    For a campaign, the median over the runs of its first seed.
    """
    scenarios = [load_scenario(path)]
    if campaign_seed is not None:
        scenarios = [campaign_variant(scenarios[0], b, pol, campaign_seed)
                     for b in CAMPAIGN_BEHAVIORS for pol in CAMPAIGN_POLICIES]
    ratios = []
    for scenario in scenarios:
        tracemalloc.start()
        try:
            sim = build_simulation(scenario)
            sim.run(scenario.until)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratios.append(peak / len(sim.trace))
    return statistics.median(ratios)


def sends(p: Pass) -> dict[str, int]:
    """Send events by wire kind, summed over the runs of a pass."""
    total: dict[str, int] = {}
    for m in p.metrics:
        for kind, count in m["sends_by_kind"].items():
            total[kind] = total.get(kind, 0) + count
    return total


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_row(p: Pass) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    lay = p.lay
    events = p.events
    row = {name: lay[name] for name in (
        "server.deliver_s.Message", "server.deliver_s.Observe", "server.deliver_s.Time",
        "server.deliver_s.Suggest", "server.timer_s", "server.dep_decide_s",
        "client.deliver_s", "client.timer_s", "adversary.handler_s",
        "simnet.run_s", "trace.write_s", "scenario.parse_s", "runner.build_s",
        "runner.variant_s", "runner.metrics_s",
    )}
    checks = {f"checkers.{fn.__name__}_s": lay[f"checkers.{fn.__name__}_s"] for fn, _ in CHECKS}
    row.update(checks)
    row["checkers.total_s"] = sum(checks.values())
    row["checkers.us_per_event"] = 1e6 * row["checkers.total_s"] / events
    row["simnet.self_s"] = lay["simnet.run_s"] - lay["handlers_s"]
    row["simnet.us_per_event"] = 1e6 * lay["simnet.run_s"] / events
    row["simnet.events"] = events
    by_kind = sends(p)
    row.update({f"simnet.sends.{k}": by_kind.get(k, 0) for k in WIRE_KINDS})
    row["trace.bytes_per_event"] = lay["trace.bytes"] / events
    row["server.accept_share"] = _share(lay["count.decides_true"], lay["count.decides"])
    row["client.accept_share"] = _share(lay["count.client_decisions_true"], lay["count.client_decisions"])
    row["weakcon.dep_decides"] = lay["count.dep_decides"]
    row["weakcon.fallback_share"] = _share(lay["count.fallback_instances"], lay["count.instances"])
    return row
