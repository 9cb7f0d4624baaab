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
        "443111bb97fec41771a73327b55cd888eeb01852011e6316ee15a8aaf50d952d",
        "3ce79330b3ddc56841e8674e76c8ec66598af220f4d1744b1d6d7e703bd43b66",
    ),
    "campaign_wide": (
        "3f65c4f2cd4350fa90e8974e405907e13121a36ce34d8b59bf285f290dd2a59e",
        "7949891b4b3ce861f5dff6aeaf32b80142cffdb02886777abe9d98b5b31ff824",
    ),
    "equivocator": (
        "74427eee7df2b7c805b3d8e36518bc9c0d75b277219805b1a19a4246d4342384",
        "81a6ad51b225f01e339e2ff97759026ae0da1ba2cc12bc51110a136322d3e9ae",
    ),
    "goodcase": (
        "e8524b5fdbf184f0d880e7149c1a1424e375a47d23c49d20635e1930d2056961",
        "699bcf364948d29ae568805f1faeddab61a20f375100fdcd91fb8be0a4e0cf1e",
    ),
    "partial_dissemination": (
        "121a93f9dc1d1a004fb3e6032067ab09c606832ffa35558ccca80353dea2cbd3",
        "5ab1f5fc461656db15e2f3801288c24242e4f40c5bee6fb4856673cebcab1b35",
    ),
    "retry": (
        "f0222973b174d5b563d6cc6c56c1b61c6d050374ea2a6995e984db83d5056dba",
        "9086da0b9f7f884f5bdfb97b736704053fab265bbf91d4b8beb6c914e704d162",
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
    assert summary["all_pass"] == (summary["fail_count"] == 0)
    rendered = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    assert sha256(rendered.encode()) == CAMPAIGN_DIGEST


# Large runs: n=16 and a retry storm have many same-tick collisions, which
# the n=6 bundled scenarios barely reach. Each shape is generated here, from
# seed 101, so that nothing outside this file can move its input.
# shape -> trace digest
LARGE_RUN_DIGESTS = {
    "n16-4x10": "e9c684066ffab2f685b6c1410c240da9cc50ef1e985b910b33d1647345c180a3",
    "retry-storm": "cd00691ec836eaacfa2d92e9b3d90024d1a7e7ccbfbf0dbcc841925648e239f1",
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
