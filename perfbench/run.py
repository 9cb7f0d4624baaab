#!/usr/bin/env python3
"""fluttersim benchmark: one workload per invocation, untraced or traced.

Run from the repository root:

    python3 perfbench/run.py --workload tob-scale --seed 1 --seconds 10 --trace 0

--trace 0 repeats whole passes of the user-facing pipeline for --seconds
and prints the end-to-end metrics, with pass times scaled to reference
speed (hostspeed.py). --trace 1 alternates untraced
and traced passes for --seconds and prints the per-layer split. Every line
but the last is for people; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0
only when every correctness check held. README.md has the workloads, the
metric definitions and the layer -> end-to-end map.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "fluttersim" / "__init__.py").is_file():
    sys.exit(f"perfbench: no fluttersim sources under {SRC}")
sys.path.insert(0, str(SRC))

import hostspeed  # noqa: E402
import pipeline  # noqa: E402  (needs the sources on the path)
import workloads  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 15

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("runs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_latency_p50_ticks", "ticks"),
    ("sim_latency_tail_ticks", "ticks"),
    ("sends_per_broadcast", "count"),
    ("bits_per_broadcast", "bit"),
    ("attempts_per_broadcast", "count"),
]

PER_LAYER = [
    ("server.deliver_s.Message", "s"),
    ("server.deliver_s.Observe", "s"),
    ("server.deliver_s.Time", "s"),
    ("server.deliver_s.Suggest", "s"),
    ("server.timer_s", "s"),
    ("server.dep_decide_s", "s"),
    ("server.accept_share", "ratio"),
    ("checkers.check_tob_s", "s"),
    ("checkers.check_consensus_s", "s"),
    ("checkers.check_latency_s", "s"),
    ("checkers.check_server_invariants_s", "s"),
    ("checkers.check_network_s", "s"),
    ("checkers.check_complexity_s", "s"),
    ("checkers.total_s", "s"),
    ("checkers.us_per_event", "us"),
    ("client.deliver_s", "s"),
    ("client.timer_s", "s"),
    ("client.accept_share", "ratio"),
    ("adversary.handler_s", "s"),
    ("simnet.run_s", "s"),
    ("simnet.self_s", "s"),
    ("simnet.us_per_event", "us"),
    ("simnet.events", "count"),
    ("simnet.sends.Message", "count"),
    ("simnet.sends.Observe", "count"),
    ("simnet.sends.Time", "count"),
    ("simnet.sends.Suggest", "count"),
    ("simnet.sends.Decision", "count"),
    ("simnet.peak_bytes_per_event", "B"),
    ("trace.write_s", "s"),
    ("trace.bytes_per_event", "B"),
    ("scenario.parse_s", "s"),
    ("runner.build_s", "s"),
    ("runner.variant_s", "s"),
    ("runner.metrics_s", "s"),
    ("runner.run_ms_p50", "ms"),
    ("runner.run_ms_p99", "ms"),
    ("weakcon.dep_decides", "count"),
    ("weakcon.fallback_share", "ratio"),
    ("bench.tracing_overhead", "ratio"),
]

# Time from the first statement of a fresh interpreter to a built simulation.
SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
import fluttersim
from fluttersim.runner import campaign_variant
spec = json.loads(sys.argv[1])
scenario = fluttersim.load_scenario(spec["path"])
if "behavior" in spec:
    scenario = campaign_variant(scenario, spec["behavior"], spec["policy"], spec["seed"])
fluttersim.build_simulation(scenario)
print(time.perf_counter() - t0)
"""


class Incorrect(Exception):
    """A correctness check of the benchmark failed."""


def tail(values) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples above it, by nearest rank.

    Returns (value, percentile); with ten samples or fewer no percentile
    qualifies and the maximum is returned as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100
    p = 100 * (n - 10) // n
    return xs[max(1, math.ceil(p * n / 100)) - 1], p


def setup_seconds(spec: dict) -> float:
    """Median over fresh interpreters of import + scenario load + build; one warm-up first.

    Not scaled to reference speed: interpreter start-up follows the host's
    speed far less than the passes do, and the raw median holds steadier.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class Bench:
    """One workload's inputs and its pass loop, with the run and failure counts.

    Pass kinds: "user" is the CLI's own path (`fluttersim run` or
    `fluttersim campaign`); "plain" and "traced" are the same runs without
    and with probes; "sweep" is a campaign made one public call at a time.
    """

    def __init__(self, workload: str, seed: int, out_dir: Path):
        self.out_dir = out_dir
        self.campaign = workload == "fault-campaign"
        if self.campaign:
            self.path = ROOT / workloads.CAMPAIGN_BASE
            self.seeds = workloads.campaign_seeds(seed)
            self.setup_spec = {
                "path": str(self.path),
                "behavior": pipeline.CAMPAIGN_BEHAVIORS[0],
                "policy": workloads.CAMPAIGN_POLICIES[0],
                "seed": self.seeds[0],
            }
        else:
            self.path = out_dir / "scenario.json"
            obj = getattr(workloads, workload.replace("-", "_"))(seed)
            self.path.write_text(json.dumps(obj, indent=2) + "\n")
            self.setup_spec = {"path": str(self.path)}
        self.attempted = 0
        self.failed = 0

    def one_pass(self, kind: str):
        # A simulator is cyclic garbage once its pass ends; freeing it here keeps the
        # previous pass's trace out of this pass's time and out of peak_rss_mb.
        gc.collect()
        if kind == "user":  # the CLI's own path
            p = (pipeline.campaign_pass(self.path, self.seeds, self.out_dir) if self.campaign
                 else pipeline.scenario_pass(self.path, self.out_dir, traced=False))
        elif self.campaign:
            p = pipeline.campaign_sweep(self.path, self.seeds, traced=kind == "traced", digest=kind != "sweep")
        else:
            p = pipeline.scenario_pass(self.path, self.out_dir, traced=kind == "traced")
        self.attempted += p.runs
        self.failed += p.failed_runs
        if p.failed_runs:
            raise Incorrect(f"{p.failed_runs} run(s) with a Fail verdict, no quiescence or a failed campaign")
        return p

    def repeat(self, kinds: list[str], seconds: float) -> dict[str, list]:
        """Cycle through pass kinds until `seconds` have passed and each kind ran MIN_PASSES times."""
        out = {k: [] for k in kinds}
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or min(len(v) for v in out.values()) < MIN_PASSES:
            for k in kinds:
                out[k].append(self.one_pass(k))
        return out


def _same(what: str, values) -> None:
    values = list(values)
    if any(v != values[0] for v in values):
        raise Incorrect(f"{what} differs between passes of the same input")


def simulated(p) -> tuple[dict, dict]:
    """Simulated end-to-end metrics over the honest clients' broadcasts of one pass."""
    latencies, attempts = [], []
    for m, honest in zip(p.metrics, p.honest):
        for b in m["per_broadcast"]:
            if b["client"] not in honest:
                continue
            if b["latency"] is None:
                raise Incorrect(f"broadcast ({b['client']}, {b['message']}) not delivered everywhere")
            latencies.append(b["latency"])
            attempts.append(b["attempts"])
    value, pct = tail(latencies)
    n = len(latencies)
    return {
        "sim_latency_p50_ticks": statistics.median(latencies),
        "sim_latency_tail_ticks": value,
        "sends_per_broadcast": sum(pipeline.sends(p).values()) / n,
        "bits_per_broadcast": sum(m["total_bits"] for m in p.metrics) / n,
        "attempts_per_broadcast": sum(attempts) / n,
    }, {"broadcasts": n, "tail_pct": pct}


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    setup = setup_seconds(bench.setup_spec)
    refs = [hostspeed.reference_s()]
    passes = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(passes) < MIN_PASSES:
        passes.append(bench.one_pass("user"))
        refs.append(hostspeed.reference_s())
    _same("output digest", (p.digest for p in passes))
    if bench.campaign:
        # run_campaign returns only a summary; the same runs made one call at a time
        # give the simulated metrics, and must reach the same verdicts.
        detail = bench.one_pass("sweep")
        if detail.verdicts != passes[0].verdicts:
            raise Incorrect(f"per-run verdicts {detail.verdicts} != run_campaign's {passes[0].verdicts}")
    else:
        detail = passes[0]
        _same("compute_metrics output", (p.metrics for p in passes))
    raw = [p.wall_s for p in passes]
    walls = hostspeed.at_reference_speed(raw, refs)
    sim, info = simulated(detail)
    metrics = {
        "setup_s": setup,
        "wall_s": statistics.median(walls),
        "events_per_s": statistics.median(detail.events / w for w in walls),
        "runs_per_s": statistics.median(p.runs / w for p, w in zip(passes, walls)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **sim,
    }
    value, pct = tail(walls)
    notes = [
        f"passes: {len(passes)} of {passes[0].runs} run(s) and {detail.events} events each; "
        f"wall s at reference speed: {' '.join(f'{w:.3f}' for w in walls)}",
        f"raw host wall s: {' '.join(f'{w:.3f}' for w in raw)} (median {statistics.median(raw):.4f}); "
        f"host speed {hostspeed.host_speed(refs):.3f} of reference",
        (f"wall_s tail: p{pct} of {len(walls)} passes = {value:.4f} s" if pct < 100
         else f"wall_s tail: n/a, {len(walls)} passes leave no percentile with 10 samples above it"),
        f"sim_latency_tail_ticks: p{info['tail_pct']} of {info['broadcasts']} honest broadcasts",
        f"failed_share: {bench.failed}/{bench.attempted} runs",
    ]
    return metrics, notes


def per_layer(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    got = bench.repeat(["plain", "traced"], seconds)
    plain, traced = got["plain"], got["traced"]
    both = plain + traced
    _same("trace SHA-256", (p.digest for p in both))
    _same("simnet.events", (p.events for p in both))
    _same("simnet.sends", (pipeline.sends(p) for p in both))
    _same("check reports (six timed check_* vs run_all_checks)", (p.reports for p in both))

    peak = pipeline.peak_bytes_per_event(bench.path, bench.seeds[0] if bench.campaign else None)

    rows = [pipeline.layer_row(p) for p in traced]
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    run_ms = [ms for p in traced for ms in p.run_ms]
    metrics["runner.run_ms_p50"] = statistics.median(run_ms)
    metrics["runner.run_ms_p99"] = statistics.quantiles(run_ms, n=100)[98] if len(run_ms) > 1 else run_ms[0]
    metrics["simnet.peak_bytes_per_event"] = peak
    metrics["bench.tracing_overhead"] = (statistics.median(p.wall_s for p in traced)
                                         / statistics.median(p.wall_s for p in plain))
    notes = [
        f"passes: {len(plain)} untraced + {len(traced)} traced, trace SHA-256 {traced[0].digest[:16]}... in all",
        f"runner.run_ms_*: over {len(run_ms)} traced run(s)",
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    print(f"workload {args.workload}, seed {args.seed} (held-out seed for gain claims: {workloads.HELD_OUT_SEED}), "
          f"{'traced' if args.trace else 'untraced'}, {args.seconds:g} s")
    out_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    bench = None
    try:
        bench = Bench(args.workload, args.seed, out_dir)
        measure, table = (per_layer, PER_LAYER) if args.trace else (end_to_end, END_TO_END)
        values, notes = measure(bench, args.seconds)
        correct = True
    except Incorrect as e:
        print(f"INCORRECT: {e}", file=sys.stderr)
        correct = False
    except Exception:
        traceback.print_exc()
        correct = False
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if not correct:
        attempted = max(bench.attempted, 1) if bench else 1
        failed = max(bench.failed, 1) if bench else 1
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    for note in notes:
        print(f"# {note}")
    metrics = {}
    for name, unit in table:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({"correct": True, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
