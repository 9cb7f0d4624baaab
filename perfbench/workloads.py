"""Seeded inputs for the benchmark workloads.

Each generator takes the workload seed and returns plain scenario data:
the program under test only ever sees the generated dicts (or, for the
campaign, the bundled base scenario and a seed range). The same seed
always gives the same inputs.
"""

from __future__ import annotations

import random

WORKLOADS = ("tob-scale", "retry-storm", "fault-campaign")

# Gain claims must also hold on this seed, which is kept out of tuning.
HELD_OUT_SEED = 104729

# Event count of every tob-scale scenario: the all-accept path makes the
# trace length a function of the shape (n=16, 4 clients x 10 broadcasts)
# alone. It equals the ROADMAP Baseline row "n=16, 4 x 10".
TOB_SCALE_EVENTS = 68_560

CAMPAIGN_BASE = "scenarios/campaign_base.json"
CAMPAIGN_SEEDS_PER_PASS = 10
CAMPAIGN_POLICIES = ["adversarial_value", "adversarial_timing"]

_DELTA = 10
_CLIENTS = 4
_BROADCASTS = 10
_GAP = 10  # ticks between a client's broadcast slots; each lands at a seeded point in its slot


def _flutter(rng: random.Random, name: str, n: int, f: int, drift: int, epsilon: int,
             delta_estimate: int) -> dict:
    servers = [f"s{i:03d}" for i in range(n)]
    clients = []
    for c in range(_CLIENTS):
        clients.append({
            "name": f"c{c:03d}",
            "delta_estimate": delta_estimate,
            "broadcasts": [
                {"at": i * _GAP + rng.randrange(_GAP), "message": (bytes([c, i]) + rng.randbytes(6)).hex()}
                for i in range(_BROADCASTS)
            ],
        })
    processes = servers + [c["name"] for c in clients]
    return {
        "name": name,
        "kind": "flutter",
        "n": n,
        "f": f,
        "delta": _DELTA,
        "drift": drift,
        "epsilon": epsilon,
        "network": {"strategy": "seeded_random", "seed": rng.randrange(2**31)},
        "clock_offsets": {p: rng.randint(-drift, drift) for p in processes},
        "clients": clients,
        "dep": {"policy": "adversarial_value"},
    }


def tob_scale(seed: int) -> dict:
    """n=16, f=3, no faults; every bet clears the worst clock skew, so all accept.

    epsilon = 2*drift + 1 covers a server clock up to 2*drift ahead of the
    client's, so every correct server proposes True on the first attempt.
    """
    drift = 2
    return _flutter(random.Random(seed), "tob-scale", 16, 3, drift, 2 * drift + 1, _DELTA)


def retry_storm(seed: int) -> dict:
    """n=6, f=1, delay estimate 1 against delta=10, and s005 floods lying Time reports."""
    obj = _flutter(random.Random(seed), "retry-storm", 6, 1, 0, 1, 1)
    obj["servers"] = {"s005": {"behavior": "time_liar"}}
    return obj


def campaign_seeds(seed: int) -> range:
    """The campaign's per-run network seeds: a seeded block of consecutive seeds."""
    start = random.Random(seed).randrange(2**31)
    return range(start, start + CAMPAIGN_SEEDS_PER_PASS)
