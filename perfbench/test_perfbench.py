"""Tests of the benchmark itself: its contract, its inputs and its probes.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import pytest

import run  # puts the program's sources on sys.path
import hostspeed
import pipeline
import workloads
from fluttersim import build_simulation, parse_scenario
from layers import trace_counts, wrap_handlers

ROOT = Path(__file__).resolve().parent.parent


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_generators_are_functions_of_the_seed():
    for make in (workloads.tob_scale, workloads.retry_storm):
        assert make(3) == make(3)
        assert make(3) != make(4)
    assert workloads.campaign_seeds(3) == workloads.campaign_seeds(3)
    assert workloads.campaign_seeds(3) != workloads.campaign_seeds(4)


def test_tob_scale_reproduces_the_roadmap_baseline_event_count():
    # ROADMAP Baseline, row "n=16, 4 x 10": 68,560 events. The all-accept
    # path fixes the count for every seed, the held-out one included.
    for seed in (0, workloads.HELD_OUT_SEED):
        sim = build_simulation(parse_scenario(workloads.tob_scale(seed)))
        assert sim.run()
        assert len(sim.trace) == workloads.TOB_SCALE_EVENTS
        assert sum(e.kind == "Broadcast" for e in sim.trace) == 40


def test_trace_bytes_per_event_reconcile_with_the_roadmap(tmp_path):
    # The ROADMAP's "about 550 bytes per event" (38 MB at 68k events) is the
    # in-memory trace plus simulator state, which simnet.peak_bytes_per_event
    # measures; the JSONL file, trace.bytes_per_event, holds about a quarter.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(workloads.tob_scale(0)))
    peak = pipeline.peak_bytes_per_event(path, None)
    p = pipeline.scenario_pass(path, tmp_path, traced=True)
    file_bytes = p.lay["trace.bytes"] / p.events
    assert 450 < peak < 650
    assert 100 < file_bytes < 200


def test_proxies_leave_the_campaign_runs_unchanged():
    seeds = range(5, 6)
    plain = pipeline.campaign_sweep(ROOT / workloads.CAMPAIGN_BASE, seeds, traced=False, digest=True)
    traced = pipeline.campaign_sweep(ROOT / workloads.CAMPAIGN_BASE, seeds, traced=True, digest=True)
    assert plain.runs == traced.runs == 12
    assert plain.digest == traced.digest
    assert plain.reports == traced.reports  # six timed check_* calls == run_all_checks
    assert pipeline.sends(plain) == pipeline.sends(traced)
    assert traced.lay["adversary.handler_s"] > 0
    assert 0 < traced.lay["simnet.run_s"] - traced.lay["handlers_s"] < traced.lay["simnet.run_s"]


def test_every_handler_hook_is_booked_under_its_module():
    sim = build_simulation(parse_scenario(workloads.retry_storm(1)))
    acc = defaultdict(float)
    wrap_handlers(sim, acc)
    sim.run()
    layers = {(layer, hook) for layer, hook, _ in acc}
    assert {("server", "deliver"), ("server", "timer"), ("server", "dep_decide"),
            ("client", "deliver"), ("client", "timer"), ("adversary", "deliver")} <= layers
    assert {kind for layer, hook, kind in acc if (layer, hook) == ("server", "deliver")} == {
        "Message", "Observe", "Time", "Suggest"}
    counts = trace_counts(sim.trace, [f"s{i:03d}" for i in range(5)], [f"c{i:03d}" for i in range(4)])
    assert 0 < counts["fallback_instances"] < counts["instances"]
    assert 0 < counts["decides_true"] < counts["decides"]


def test_tail_is_the_highest_percentile_with_ten_samples_above_it():
    assert run.tail(range(1, 41)) == (30, 75)
    assert run.tail(range(1, 12)) == (1, 9)
    assert run.tail(range(1, 1201)) == (1188, 99)
    assert run.tail([5, 1, 3]) == (5, 100)


def test_reference_kernel_is_fixed_work_and_scales_samples_by_its_neighbours():
    assert hostspeed.kernel() == hostspeed.CHECKSUM
    ref = hostspeed.REF_SECONDS
    # A 3 s pass between kernel calls of 1.5x and 2.5x the reference time ran
    # at half the reference speed: 1.5 s at reference speed.
    assert hostspeed.at_reference_speed([3.0], [1.5 * ref, 2.5 * ref]) == pytest.approx([1.5])
    assert hostspeed.host_speed([ref, 2 * ref, 2 * ref]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        hostspeed.at_reference_speed([1.0, 2.0], [ref, ref])
