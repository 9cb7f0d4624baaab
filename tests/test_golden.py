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
        "b39d1dc878fc1e67ae2e5445d553aff2a661941502d83b88c23972ec42e766fd",
        "b3c12bb29152f87040499c6eb4085a668c054a7be885a40ee54803c09cdf262d",
    ),
    "blink_split": (
        "167658cdc3df594a516cb11f034ed81eca010e837dcacba04da1b23e67b327b8",
        "211351d6ae3855a46a8f81e49228d0d3246a167d876eb4d4f58404e79a1049fe",
    ),
    "campaign_base": (
        "06c28b8068f877121fd8dd6472d3cd7ef4ee062ad93b08110de99b52a56be826",
        "d99d7fc76cab45bf40ec8daf42b1bc0ddcbb4a42a749508ad018d67a7c0c056c",
    ),
    "campaign_wide": (
        "b29fc25cf9fcca2f3dc9c1c5a8eb1ebc13a3075481bf5fa7cc55f7f5ab7c6363",
        "dec3c2438b17079d54d30cafeb87f20c54855e1433942a74043518f9ba79a802",
    ),
    "equivocator": (
        "d6cf26e6be64ae1067372332ee0f034bafa3cef27049671bd0dc9fb91e28d391",
        "cd9b9f5bc51840b5d593fa29a3e6241067997c770bc2a1dc2f1bfbca222fe696",
    ),
    "goodcase": (
        "23b42f31d9b3ed0b612b981464042af0775e396123e3fe1f2825428aa66ba63a",
        "b11ac9150f26981aa939675a97bbbc1fc195956b14c335e6783a6df0cdae391b",
    ),
    "partial_dissemination": (
        "e8169620170e59621452dcd5100b227643fc4f4fad73a65b20f26bdc942398b1",
        "e4866a1ea1907b4521f08de48c4d3abf29a726fb940eb8c8a9303738e93f7933",
    ),
    "retry": (
        "1349bed3884545a34a108e8c00aa3d862d3d2c6c1d42f373a6e1a5c25b99f776",
        "41fbc7936092ecf57af77a9a88605121f80c4db2f53d81f156af266c90132df9",
    ),
}

CAMPAIGN_DIGEST = "c52105a387369ce363f876496f3186f11a1e9166438f9125b1f44ee67cfd9a91"


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
    assert summary["all_pass"] == (summary["fail_count"] == 0)
    rendered = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    assert sha256(rendered.encode()) == CAMPAIGN_DIGEST


# Large runs: n=16 and a retry storm have many same-tick collisions, which
# the n=6 bundled scenarios barely reach. Each shape is generated here, from
# seed 101, so that nothing outside this file can move its input.
# shape -> trace digest
LARGE_RUN_DIGESTS = {
    "n16-4x10": "24f784d893af577d7547b191bb10cfe88a17eb001452de35f7bbd2d30ae82b9b",
    "retry-storm": "7cb42cb45217808570c828e3818df4e7a31bc211d31a4a395df2522f94c5d4f0",
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
