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
    "blink_split": (
        "cd13a35162b0087bea67f38e273b4798815fc95bc6d60fbac8a373467eed15ee",
        "269090c8bdbfa1c6e21252053faeda0c4a0fe88dad03a992da16039bc3b25a13",
    ),
    "campaign_base": (
        "e80e124f4c10057f4060d6aaa5afd89b3d6ee516ab2551c5cb7acad79920be17",
        "3d306fc147be8a5914b4668a9d1fda512da2de28e8d5c444ab8cf2246f217f2c",
    ),
    "campaign_wide": (
        "ecc845017d2fb5981ef40a9bf8f0d913a6a1cb17d5bb4c6277933bcca37fd9ed",
        "49eb40935b8e9978c52d335972e0a448f7651b43b5fba67529f665405fa808c9",
    ),
    "equivocator": (
        "74427eee7df2b7c805b3d8e36518bc9c0d75b277219805b1a19a4246d4342384",
        "81a6ad51b225f01e339e2ff97759026ae0da1ba2cc12bc51110a136322d3e9ae",
    ),
    "goodcase": (
        "b170ed4af698427df093bb24a3d86eabe42cd07a18074f661746e01a8bc13bf0",
        "09b374364f765e382f7ec700a240dcb655b649008f719d8aee3d6bf8181c869b",
    ),
    "partial_dissemination": (
        "89e4f45580d539b48fe9ad233d91da5e8b2c63cf13bfadeab47ae9f850e60374",
        "35b3d4112754f8f9a51ce2d3a84cc6e472b7aca094287e61d19614d21812262b",
    ),
    "retry": (
        "71f5ff35fed0a0bcab6feb834e97c54d9c6a78d893a95e06ff843d0659753d37",
        "d64d71afddf86b429b1b85c1bd7bf5691eb6e0e5ba13f020238ad88523da83cc",
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
    "n16-4x10": "bacdd33cb0780a5fa04dc229251e6b37f05acad1aedc2afd5d63823ae67a331f",
    "retry-storm": "2dfbfcebff46ccdf90d81eb84cdffd1b29066c0e42bca4d262675c4daa77a9b3",
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
