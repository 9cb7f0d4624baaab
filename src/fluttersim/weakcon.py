"""Adversarial oracle standing in for the underlying weak consensus.

Not a protocol: the oracle sees every proposal directly and fabricates
any outcome consistent with weak consensus (weak validity, agreement,
integrity, termination). Policies pick which allowed value is decided
and when each server's decide indication lands, so campaigns quantify
over dep behaviors instead of trusting one implementation.
"""

from __future__ import annotations

import random

from . import trace as tr
from .errors import OracleViolationError, ProtocolBugError
from .types import InstanceKey, instance_payload


def _minority_value(proposals: dict[str, bool]) -> bool:
    """The allowed value with the fewest correct proposers; ties go False."""
    trues = sum(1 for v in proposals.values() if v)
    falses = len(proposals) - trues
    if trues == 0:
        return False
    if falses == 0:
        return True
    return trues < falses


class FirstProposal:
    name = "first"
    draws = False  # whether `delay` reads its rng: seeding one from a string runs SHA-512, so only a drawer gets one

    def choose(self, proposals: dict[str, bool]) -> bool:
        """The first proposal's value: `proposals` is in proposal order."""
        return next(iter(proposals.values()))

    def delay(self, server: str, rng: random.Random, budget: int) -> int:
        return 0


class AdversarialValue(FirstProposal):
    name = "adversarial_value"

    def choose(self, proposals):
        return _minority_value(proposals)


class AdversarialTiming(AdversarialValue):
    """Minority value plus seeded per-server indication delays within the budget."""

    name = "adversarial_timing"
    draws = True

    def delay(self, server, rng, budget):
        return rng.randint(0, budget)


POLICIES = {p.name: p for p in (FirstProposal, AdversarialValue, AdversarialTiming)}


class DepOracle:
    def __init__(self, sim, correct_servers: list[str], policy, budget: int, seed=None):
        self.sim = sim
        self.correct = list(correct_servers)
        self.policy = policy
        self.budget = budget
        self.seed = seed
        self.instances: dict[InstanceKey, dict[str, bool]] = {}  # server -> value, in proposal order

    def propose(self, instance: InstanceKey, server: str, value: bool) -> None:
        if server not in self.correct:
            raise ProtocolBugError(f"dep proposal from non-correct process {server}")
        proposals = self.instances.setdefault(instance, {})
        if server in proposals:
            raise ProtocolBugError(f"{server} proposed twice to dep instance {instance!r}")
        proposals[server] = value
        self.sim.emit(server, tr.DEP_PROPOSE, {"instance": instance_payload(instance), "value": value})
        if len(proposals) == len(self.correct):
            self._decide(instance, proposals)

    def _decide(self, instance: InstanceKey, proposals: dict[str, bool]) -> None:
        value = self.policy.choose(proposals)
        if value not in proposals.values():
            raise OracleViolationError(
                f"policy chose {value} for {instance!r} but correct proposals were {proposals}"
            )
        rng = random.Random(f"{self.seed}|dep|{instance_payload(instance)}") if self.policy.draws else None
        now = self.sim.now
        for server in self.correct:
            d = self.policy.delay(server, rng, self.budget)
            assert 0 <= d <= self.budget
            self.sim.schedule_dep_decide(now + d, server, instance, value)
