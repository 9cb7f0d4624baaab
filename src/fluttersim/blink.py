"""One-round binary consensus over 4f+1 suggestion quorums.

Each server suggests its input to every other server and counts its own
suggestion in the same step. A server that has collected 4f+1
suggestions forwards the majority value to the dep oracle as a fallback;
a server that sees 4f+1 matching suggestions decides outright, and keeps
watching for that even after the fallback fired, so unanimous inputs
decide one message delay ahead of the dep path.
"""

from __future__ import annotations

from . import trace as tr
from .errors import ProtocolBugError
from .types import InstanceKey, Suggest, quorum_large, quorum_majority


class BlinkInstance:
    """Per-instance state machine; the host wires it to the network and dep."""

    __slots__ = ("key", "f", "large", "host", "suggestions", "trues", "self_proposed", "dep_proposed", "decision")

    def __init__(self, key: InstanceKey, f: int, host):
        self.key = key
        self.f = f
        self.large = quorum_large(f)  # the 4f+1 suggestions that decide, or that hand dep a majority
        self.host = host
        self.suggestions: dict[str, bool] = {}
        self.trues = 0  # True entries in `suggestions`
        self.self_proposed = False
        self.dep_proposed = False
        self.decision: bool | None = None  # the value decided, once decided

    def propose(self, ctx, value: bool) -> None:
        if self.self_proposed:
            raise ProtocolBugError(f"{ctx.name} proposed twice to instance {self.key!r}")
        self.self_proposed = True
        ctx.emit(tr.PROPOSE, ctx.fact(self.key, value))
        ctx.broadcast(Suggest(self.key, value))
        self.on_suggest(ctx, ctx.name, value)  # its own copy, taken in the step that sends the others

    def on_suggest(self, ctx, sender: str, value: bool) -> None:
        # A sender's later suggestion replaces its earlier one, in the tally too.
        self.trues += value - (self.suggestions.get(sender) is True)
        self.suggestions[sender] = value
        large, count = self.large, len(self.suggestions)
        if count >= large and not self.dep_proposed:
            self.dep_proposed = True
            self.host.dep_propose(self.key, self._majority())
        if self.decision is None:
            if self.trues >= large:
                self._decide(ctx, True)
            elif count - self.trues >= large:
                self._decide(ctx, False)

    def on_dep_decide(self, ctx, value: bool) -> None:
        if self.decision is None:
            self._decide(ctx, value)

    def _majority(self) -> bool:
        majority = quorum_majority(self.f)
        if self.trues >= majority:
            return True
        if len(self.suggestions) - self.trues >= majority:
            return False
        raise AssertionError("no 2f+1 majority among 4f+1 binary suggestions")

    def _decide(self, ctx, value: bool) -> None:
        self.decision = value
        ctx.emit(tr.DECIDE, ctx.fact(self.key, value))
        self.host.on_decided(ctx, self.key, value)


def propose_token(label: str, value: bool) -> str:
    """The timer token of a scripted proposal, which `BlinkNode.on_timer` reads back."""
    return f"propose@{label}:{1 if value else 0}"


class BlinkNode:
    """Consensus server hosting BlinkInstances; alone it runs scripted proposals.

    FlutterServer extends it with the broadcast layer, so both node kinds
    share this instance hosting and Suggest dispatch.
    """

    def __init__(self, name: str, f: int, oracle):
        self.name = name
        self.f = f
        self.oracle = oracle
        self.instances: dict[InstanceKey, BlinkInstance] = {}
        self._server_set: frozenset[str] = frozenset()

    def instance(self, key: InstanceKey) -> BlinkInstance:
        inst = self.instances.get(key)
        if inst is None:
            inst = self.instances[key] = BlinkInstance(key, self.f, self)
        return inst

    def dep_propose(self, key: InstanceKey, value: bool) -> None:
        self.oracle.propose(key, self.name, value)

    def on_decided(self, ctx, key: InstanceKey, value: bool) -> None:
        pass

    def on_init(self, ctx) -> None:
        self._server_set = frozenset(ctx.servers)

    def on_timer(self, ctx, token: str) -> None:
        label, _, raw = token.removeprefix("propose@").partition(":")
        self.instance(label).propose(ctx, raw == "1")

    def on_deliver(self, ctx, src: str, msg) -> None:
        if isinstance(msg, Suggest) and src in self._server_set:
            self.instance(msg.instance).on_suggest(ctx, src, msg.value)

    def on_dep_decide(self, ctx, key: InstanceKey, value: bool) -> None:
        self.instance(key).on_dep_decide(ctx, value)
