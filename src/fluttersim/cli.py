"""Command-line front end: run one scenario, or sweep a campaign.

Exit codes: 0 all checks Pass/NotApplicable; 1 at least one Fail;
2 malformed scenario or configuration, or an output path that cannot be
written; 3 step budget exceeded; 4 a protocol, dep-oracle or internal
invariant broke during the run.
`run` streams its trace: a run that exits 3 or 4 leaves it up to the error, and an empty report.
The FLUTTERSIM_OUT environment variable sets the default output
directory for traces and reports (default: current directory). Each
output's directory is made and its file opened before the first run, so
one that cannot be written ends the command before any run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .adversary import BEHAVIORS
from .errors import BudgetExceededError, ConfigError, ScenarioError
from .runner import RUN_BREAKERS, run_campaign, run_checked
from .scenario import load_scenario
from .trace import TraceWriter
from .weakcon import POLICIES

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SCENARIO = 2
EXIT_BUDGET = 3
EXIT_PROTOCOL = 4


def _out_path(given: str | None, name: str) -> Path:
    """`given`, else `name` in the output directory; its directory is made now, so a bad one fails before any run."""
    path = Path(given) if given else Path(os.environ.get("FLUTTERSIM_OUT", ".")) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(fh, obj: dict) -> None:
    fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _cmd_run(args) -> tuple[int, list[str]]:
    scenario = load_scenario(args.scenario)
    trace_path = _out_path(args.trace, f"{scenario.name}.trace.jsonl")
    report_path = _out_path(args.report, f"{scenario.name}.report.json")
    with open(trace_path, "w") as fh, open(report_path, "w") as report:
        with TraceWriter(fh) as writer:  # writes its last block even when the run raises
            result = run_checked(scenario, writer)
        _write_json(report, result.report_dict())

    lines = [f"scenario {scenario.name}: {'quiescent' if result.quiescent else 'cut'} "
             f"at t={result.metrics['final_time']}, {result.metrics['events']} events"]
    for report in result.reports:
        line = f"  [{report.verdict}] {report.prop}"
        if report.detail:
            line += f": {report.detail}"
        lines.append(line)
    for row in result.metrics["per_broadcast"]:
        latency = row["latency"] if row["latency"] is not None else "n/a"
        lines.append(f"  broadcast ({row['client']}, 0x{row['message']}) at t={row['time']}: "
                     f"attempts={row['attempts']}, latency={latency}")
    lines.append(f"  sends: {result.metrics['sends_by_kind']}, total_bits={result.metrics['total_bits']}")
    lines.append(f"  trace: {trace_path}")
    lines.append(f"  report: {report_path}")
    return (EXIT_FAIL if result.failed else EXIT_OK), lines


def _parse_seeds(raw: str) -> range:
    lo, sep, hi = raw.partition("..")
    if not sep:
        raise ScenarioError(f"--seeds must look like A..B, got {raw!r}")
    try:
        start, stop = int(lo), int(hi)
    except ValueError:
        raise ScenarioError(f"--seeds must be integers, got {raw!r}") from None
    if stop < start:
        raise ScenarioError(f"--seeds range {raw!r} is empty")
    return range(start, stop + 1)


def _parse_names(raw: str, known, what: str, option: str) -> list[str]:
    """The names in a comma-separated list, each one of `known`; `what` and `option` word the errors."""
    names = [n.strip() for n in raw.split(",") if n.strip()]
    for i, name in enumerate(names):
        if name not in known:
            raise ScenarioError(f"unknown {what} {name!r} (available: {sorted(known)})")
        if name in names[:i]:
            raise ScenarioError(f"{what} {name!r} repeats in {option}")
    if not names:
        raise ScenarioError(f"{option} list is empty")
    return names


def _cmd_campaign(args) -> tuple[int, list[str]]:
    base = load_scenario(args.scenario)
    seeds = _parse_seeds(args.seeds)
    behaviors = (sorted(BEHAVIORS) if args.behaviors == "all"
                 else _parse_names(args.behaviors, BEHAVIORS, "behavior", "--behaviors"))
    policies = None if args.policies is None else _parse_names(args.policies, POLICIES, "dep policy", "--policies")
    if args.parallel < 1:
        raise ScenarioError(f"--parallel must be at least 1, got {args.parallel}")
    # With no seeds a campaign makes no run: this refuses a base without room before any directory is made.
    run_campaign(base, range(0), behaviors, policies)
    report_path = _out_path(args.report, f"{base.name}.campaign.json")
    with open(report_path, "w") as report:
        summary = run_campaign(base, seeds, behaviors, policies, parallel=args.parallel)
        _write_json(report, summary)

    lines = [f"campaign {base.name}: {summary['runs']} runs "
             f"({len(behaviors)} behaviors x {len(summary['policies'])} policies x {len(seeds)} seeds)"]
    for behavior, row in summary["per_behavior"].items():
        lines.append(f"  {behavior}: runs={row['runs']} fails={row['fails']} "
                     f"max_suggest_per_instance={row['max_suggest_sends_per_instance']} "
                     f"(limit {summary['suggest_limit_per_instance']})")
    lines.append(f"  verdicts: {summary['verdicts']}")
    for failure in summary["fails"]:
        lines.append(f"  FAIL {failure['run']}: {failure['property']} {failure['detail']}")
    lines.append(f"  report: {report_path}")
    return (EXIT_OK if summary["all_pass"] else EXIT_FAIL), lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fluttersim",
        description="Simulate and check leaderless total-order broadcast scenarios.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    runp = sub.add_parser("run", help="run one scenario, write trace and check report")
    runp.add_argument("scenario", help="path to a scenario JSON file")
    runp.add_argument("--trace", help="trace output path (JSONL)")
    runp.add_argument("--report", help="check report output path (JSON)")
    camp = sub.add_parser("campaign", help="sweep seeds x behaviors over a base scenario")
    camp.add_argument("scenario", help="path to the base scenario JSON file")
    camp.add_argument("--seeds", required=True, help="inclusive seed range, e.g. 0..499")
    camp.add_argument("--behaviors", required=True, help="comma-separated behavior names, or 'all'")
    camp.add_argument("--policies", help="comma-separated dep policies (default: the two adversarial ones)")
    camp.add_argument("--parallel", type=int, default=1, help="worker processes, at most one per CPU")
    camp.add_argument("--report", help="summary output path (JSON)")
    args = parser.parse_args(argv)
    try:
        code, lines = _cmd_run(args) if args.cmd == "run" else _cmd_campaign(args)
    except (ScenarioError, ConfigError, OSError) as e:  # OSError: an output path that cannot be written
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCENARIO
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except RUN_BREAKERS as e:  # after BudgetExceededError, which has its own code
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_PROTOCOL
    try:
        print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (say, `| head`); the trace and report are written.
        # Point stdout at devnull, so the interpreter's last flush does not fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
