"""Per-layer attribution for the traced benchmark run.

Layer time comes from proxies that stand in for the entries of
`Simulator.handlers` after `build_simulation`; everything else is
counted from the finished trace, outside any timed region. Nothing here
changes what the simulator does: the benchmark compares the traced run's
trace digest with the untraced run's.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

from fluttersim import trace as tr

SERVER_WIRE_KINDS = ("Message", "Observe", "Time", "Suggest")
WIRE_KINDS = SERVER_WIRE_KINDS + ("Decision",)


class TimedHandler:
    """Stands in for one simulated process and times each hook it serves.

    Time is booked under (layer, hook, kind): the layer is the handler's
    module (server, client, adversary, blink), and kind is the wire-message
    class for deliveries. Handler calls never nest in the simulator, so
    the buckets are disjoint.
    """

    __slots__ = ("inner", "layer", "acc")

    def __init__(self, inner, acc: defaultdict):
        self.inner = inner
        self.layer = type(inner).__module__.rpartition(".")[2]
        self.acc = acc

    def on_init(self, ctx) -> None:
        init = getattr(self.inner, "on_init", None)
        if init is not None:
            t = perf_counter()
            init(ctx)
            self.acc[(self.layer, "init", "")] += perf_counter() - t

    def on_deliver(self, ctx, src, msg) -> None:
        t = perf_counter()
        self.inner.on_deliver(ctx, src, msg)
        self.acc[(self.layer, "deliver", type(msg).__name__)] += perf_counter() - t

    def on_timer(self, ctx, token) -> None:
        t = perf_counter()
        self.inner.on_timer(ctx, token)
        self.acc[(self.layer, "timer", "")] += perf_counter() - t

    def on_dep_decide(self, ctx, key, value) -> None:
        t = perf_counter()
        self.inner.on_dep_decide(ctx, key, value)
        self.acc[(self.layer, "dep_decide", "")] += perf_counter() - t


def wrap_handlers(sim, acc: defaultdict) -> None:
    for name, handler in list(sim.handlers.items()):
        sim.handlers[name] = TimedHandler(handler, acc)


def handler_metrics(acc: dict) -> dict[str, float]:
    """Named per-layer handler times, plus the total that simnet.self_s subtracts."""

    def total(layer, hook=None, kind=None):
        return sum(
            v for (l, h, k), v in acc.items()
            if l == layer and (hook is None or h == hook) and (kind is None or k == kind)
        )

    out = {f"server.deliver_s.{k}": total("server", "deliver", k) for k in SERVER_WIRE_KINDS}
    out["server.timer_s"] = total("server", "timer")
    out["server.dep_decide_s"] = total("server", "dep_decide")
    out["client.deliver_s"] = total("client", "deliver")
    out["client.timer_s"] = total("client", "timer")
    out["adversary.handler_s"] = total("adversary")
    out["handlers_s"] = sum(acc.values())
    return out


def trace_counts(trace: list, correct_servers: list[str], honest_clients: list[str]) -> dict[str, int]:
    """Decision outcomes and dep fallbacks, counted from one finished trace.

    A Decide is a fallback when the event right before it is the same
    server's DepDecide: the simulator emits DepDecide and then calls the
    handler, whose instance decides at once if it had not decided on the
    fast path.
    """
    correct = set(correct_servers)
    honest = set(honest_clients)
    counts = dict.fromkeys(
        ("decides", "decides_true", "dep_decides", "instances", "fallback_instances",
         "client_decisions", "client_decisions_true"),
        0,
    )
    decided: set = set()
    fallback: set = set()
    prev = None
    for event in trace:
        kind = event.kind
        if kind == tr.DECIDE and event.process in correct:
            key = tr.instance_key_from_payload(event.payload["instance"])
            decided.add(key)
            if prev is not None and prev.kind == tr.DEP_DECIDE and prev.process == event.process:
                fallback.add(key)
            if key[0] != "label":
                counts["decides"] += 1
                counts["decides_true"] += event.payload["value"] is True
        elif kind == tr.DEP_DECIDE:
            counts["dep_decides"] += 1
        elif kind == tr.DELIVER and event.process in honest:
            msg = event.payload["msg"]
            if msg["kind"] == "Decision":
                counts["client_decisions"] += 1
                counts["client_decisions_true"] += msg["value"] is True
        prev = event
    counts["instances"] = len(decided)
    counts["fallback_instances"] = len(fallback)
    return counts
