"""Golden digests: the bytes every bundled run and a fixed campaign produce.

Each bundled scenario is run through `fluttersim run`, and the SHA-256 of
the JSONL trace and of the report JSON it writes is pinned below, as is
the digest of the summary of a fixed campaign (seeds 0..4, all six
behaviors, default dep policies, serialized as `fluttersim campaign`
writes it). A refactor must leave every digest unchanged.

A digest may change only in a change that sets out to change traces or
reports; that change records the new digests, and why they moved, in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

import fluttersim.cli as cli
from fluttersim import load_scenario, run_campaign
from fluttersim.adversary import BEHAVIORS

from conftest import SCENARIOS_DIR

# scenario -> (trace digest, report digest)
RUN_DIGESTS = {
    "blink_fast": (
        "d0d8ce4960f17396bdbf6702971b3e5452dc27a199b269c5dd6d3c50f453dd05",
        "669a5be47103d310136c0b28ea43e3b898c8cbc20497e5bdd83386731fa79b79",
    ),
    "campaign_base": (
        "37cc4f6862b7e99d6a2bb02dcfa1d272058673bfc32ce3147aeb69f2840d0e13",
        "c10edc5fe6a57d89e075320ee8037bbe78e316389a060e51da411d37beea72ad",
    ),
    "campaign_wide": (
        "d0789642dd9c42dea5c8d6dda01bbd788ae7faf20c15653f17c805583661e731",
        "677577f52a63757e7b3a189968ac8487c7b76d1193ae6040fa50e0cd603d2318",
    ),
    "equivocator": (
        "74427eee7df2b7c805b3d8e36518bc9c0d75b277219805b1a19a4246d4342384",
        "81a6ad51b225f01e339e2ff97759026ae0da1ba2cc12bc51110a136322d3e9ae",
    ),
    "goodcase": (
        "1d57350ffaadc9c6332f7fe09f6f68c34064a7f87cb78ac80f71da47197f6a67",
        "1dce605c6e2352f6c262b4ae8e0a415536702515dcb8754b806327ddbc8a9f7b",
    ),
    "partial_dissemination": (
        "7c59198de71d076677c0b7fc9809912e4b0980938bf2d0d0e439d6a2f03761c0",
        "c52ae4c2b9dbb229bd12fd78b1b66510be78222be3d4d3c327ac3b276f14fabe",
    ),
    "retry": (
        "5824e51ae5204434b848339f1983ca0150e22f56633060cfc9a97db7643ab3a2",
        "d294d805493a43db7f90c188539f42739af23019380f507a4910364240d38492",
    ),
}

CAMPAIGN_DIGEST = "df201ff761c878a45d3b659710322b4af0e3043589a4543c4e1dbb0bd893fdaf"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_bundled_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIOS_DIR.glob("*.json")) == sorted(RUN_DIGESTS)


@pytest.mark.parametrize("name", sorted(RUN_DIGESTS))
def test_run_trace_and_report_digests(name, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    report_path = tmp_path / "report.json"
    code = cli.main(
        ["run", str(SCENARIOS_DIR / f"{name}.json"), "--trace", str(trace_path), "--report", str(report_path)]
    )
    assert code == cli.EXIT_OK
    assert (sha256(trace_path.read_bytes()), sha256(report_path.read_bytes())) == RUN_DIGESTS[name]


def test_campaign_summary_digest():
    base = load_scenario(SCENARIOS_DIR / "campaign_base.json")
    summary = run_campaign(base, range(5), sorted(BEHAVIORS))
    assert summary["runs"] == 60 and summary["all_pass"]
    rendered = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    assert sha256(rendered.encode()) == CAMPAIGN_DIGEST


# Large runs: n=16 and a retry storm have many same-tick collisions, which
# the n=6 bundled scenarios barely reach. Each shape is generated here, from
# seed 101, so that nothing outside this file can move its input.
# shape -> trace digest
LARGE_RUN_DIGESTS = {
    "n16-4x10": "a91c3f142dd09c74da1ec655d6608cce2977245add7a542209f586a1db4e391b",
    "retry-storm": "2b26f4f4f42a38a58adad3840b5cb4567b9ce13909f4928bbd46bbb645acad20",
}


def _large_run(shape: str, seed: int) -> dict:
    """n=16, f=3, 4 clients x 10 broadcasts, or n=6 with estimate 1 against delta 10 and a Time liar."""
    rng = random.Random(seed)
    n, f, drift, epsilon, estimate = (16, 3, 2, 5, 10) if shape == "n16-4x10" else (6, 1, 0, 1, 1)
    clients = [
        {
            "name": f"c{c:03d}",
            "delta_estimate": estimate,
            "broadcasts": [
                {"at": 10 * i + rng.randrange(10), "message": (bytes([c, i]) + rng.randbytes(6)).hex()}
                for i in range(10)
            ],
        }
        for c in range(4)
    ]
    processes = [f"s{i:03d}" for i in range(n)] + [c["name"] for c in clients]
    doc = {
        "name": shape,
        "kind": "flutter",
        "n": n,
        "f": f,
        "delta": 10,
        "drift": drift,
        "epsilon": epsilon,
        "network": {"strategy": "seeded_random", "seed": rng.randrange(2**31)},
        "clock_offsets": {p: rng.randint(-drift, drift) for p in processes},
        "clients": clients,
        "dep": {"policy": "adversarial_value"},
    }
    if shape == "retry-storm":
        doc["servers"] = {"s005": {"behavior": "time_liar"}}
    return doc


@pytest.mark.parametrize("shape", sorted(LARGE_RUN_DIGESTS))
def test_large_run_trace_digests(shape, tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(_large_run(shape, 101)))
    trace_path = tmp_path / "trace.jsonl"
    code = cli.main(["run", str(scenario_path), "--trace", str(trace_path), "--report", str(tmp_path / "report.json")])
    assert code == cli.EXIT_OK
    assert sha256(trace_path.read_bytes()) == LARGE_RUN_DIGESTS[shape]
