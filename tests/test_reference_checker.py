"""The streaming check pass against a reference written from the definitions, over a kept list of events.

The reference covers what the pass derives from Send events: `net-fifo`, `net-delay-bounds`,
`suggest-complexity` and the Send-derived metrics (`sends_by_kind`, `total_bits`, per-broadcast `attempts`
and `max_suggest_sends_per_instance`). It pairs the k-th Send on a link with the k-th Deliver by counting,
and counts and sums over single events, so no event depends on a dict's identity or on which events form
one send call. It runs on every bundled scenario, every campaign behavior and hypothesis-edited traces.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluttersim import trace as tr
from fluttersim.adversary import BEHAVIORS
from fluttersim.checkers import FAIL, PASS, CheckerConfig, check_pass
from fluttersim.runner import campaign_variant, compute_metrics
from fluttersim.scenario import load_scenario

from conftest import SCENARIOS_DIR, simulate

BUNDLED = sorted(p.stem for p in SCENARIOS_DIR.glob("*.json"))
CAMPAIGN = [f"campaign+{b}" for b in sorted(BEHAVIORS)]
SEND_PROPS = ("net-fifo", "net-delay-bounds", "suggest-complexity")


def named_scenario(name):
    if name.startswith("campaign+"):
        base = load_scenario(SCENARIOS_DIR / "campaign_base.json")
        return campaign_variant(base, name.split("+")[1], "adversarial_value", 3)
    return load_scenario(SCENARIOS_DIR / f"{name}.json")


def ev(event) -> dict:
    return {"time": event.time, "process": event.process, "kind": event.kind, "payload": event.payload}


def verdict(prop: str, fail, detail: str = "") -> dict:
    if fail is None:
        return {"property": prop, "verdict": PASS, "detail": detail, "witness": ()}
    return {"property": prop, "verdict": FAIL, "detail": fail[0], "witness": [ev(e) for e in fail[1]]}


def fmt_instance(payload: dict) -> str:
    if "label" in payload:
        return f"label:{payload['label']}"
    return f"({payload['client']}, 0x{payload['message']}, bet={payload['bet']})"


def ref_network(trace, cfg: CheckerConfig, quiescent: bool) -> list[dict]:
    """net-fifo and net-delay-bounds from their definitions.

    The k-th Deliver on a link pairs with the link's k-th Send if that Send comes earlier in the trace; a
    Deliver with no such Send fails net-fifo. A link's pairs are judged in order up to its first bad one,
    each against the previous pair's delivery time (0 before the first). Each property reports its first
    failure in trace order. At quiescence, an unpaired Send fails net-fifo, if nothing else did: the first
    unpaired Send of the first link to carry a Send.
    """
    sends: dict[tuple, list[int]] = {}  # link -> indices of its Sends, in trace order
    for i, e in enumerate(trace):
        if e.kind == tr.SEND:
            sends.setdefault((e.process, e.payload["dst"]), []).append(i)
    fails: list[tuple[int, str, str, list]] = []  # (trace index, property, detail, witness)
    paired: dict[tuple, list[int]] = {}  # link -> times of its paired Delivers, in trace order
    ended: set[tuple] = set()  # links whose checks a bad pair ended
    for i, d in enumerate(trace):
        if d.kind != tr.DELIVER:
            continue
        link = (d.payload["src"], d.process)
        times = paired.setdefault(link, [])
        k = len(times)
        if sum(j < i for j in sends.get(link, [])) <= k:
            fails.append((i, "net-fifo", "delivery without a matching send", [d]))
            continue
        times.append(d.time)
        if link in ended:
            continue
        s = trace[sends[link][k]]
        previous = times[-2] if k else 0
        dt = d.time - s.time
        if s.payload["msg"] != d.payload["msg"]:
            bad = ("net-fifo", "deliveries out of send order", [s, d])
        elif d.time < previous:
            bad = ("net-fifo", "delivery times decreased along a link", [d])
        elif dt < 1 or (dt > cfg.delta and d.time > previous):
            bad = ("net-delay-bounds", f"delay {dt} outside [1, {cfg.delta}] (after FIFO repair)", [s, d])
        elif cfg.strategy == "exact_delta" and dt != cfg.delta:
            bad = ("net-delay-bounds", f"exact_delta delivered after {dt} ticks, not {cfg.delta}", [s, d])
        else:
            continue
        ended.add(link)
        fails.append((i, *bad))
    first = {}
    for _i, prop, detail, witness in fails:
        first.setdefault(prop, (detail, witness))
    if quiescent and "net-fifo" not in first:
        for link, indices in sends.items():
            k = len(paired.get(link, []))
            if len(indices) > k:
                first["net-fifo"] = ("send never delivered by quiescence", [trace[indices[k]]])
                break
    return [verdict(prop, first.get(prop)) for prop in ("net-fifo", "net-delay-bounds")]


def correct_suggests(trace, cfg: CheckerConfig) -> list:
    return [e for e in trace if e.kind == tr.SEND and e.process in cfg.correct_servers
            and e.payload["msg"]["kind"] == "Suggest"]


def ref_complexity(trace, cfg: CheckerConfig) -> dict:
    """suggest-complexity: no instance gets more than n^2 Suggest sends from correct servers."""
    suggests = correct_suggests(trace, cfg)
    limit = cfg.n * cfg.n
    keys = []  # instance payloads, in order of their first Suggest
    for e in suggests:
        if e.payload["msg"]["instance"] not in keys:
            keys.append(e.payload["msg"]["instance"])
    counts = [sum(e.payload["msg"]["instance"] == key for e in suggests) for key in keys]
    for key, count in zip(keys, counts):
        if count > limit:
            last = [e for e in suggests if e.payload["msg"]["instance"] == key][-1]
            detail = f"instance {fmt_instance(key)}: {count} Suggest sends from correct servers exceeds n^2={limit}"
            return verdict("suggest-complexity", (detail, [last]))
    top = max(counts, default=0)
    return verdict("suggest-complexity", None, f"max {top} Suggest sends per instance (limit {limit})")


def ref_metrics(trace, cfg: CheckerConfig) -> dict:
    """The Send-derived metrics: every Send counted once, as the copy it is."""
    sends = [e for e in trace if e.kind == tr.SEND]
    kinds = sorted({e.payload["msg"]["kind"] for e in sends})
    suggests = correct_suggests(trace, cfg)
    instances = [e.payload["msg"]["instance"] for e in suggests]
    return {
        "sends_by_kind": {k: sum(e.payload["msg"]["kind"] == k for e in sends) for k in kinds},
        "total_bits": sum(8 * (8 + len(e.payload["msg"].get("message", "")) // 2) for e in sends),
        "attempts": [len({e.payload["msg"]["bet"] for e in sends if e.process == b.process
                          and e.payload["msg"]["kind"] == "Message"
                          and e.payload["msg"]["message"] == b.payload["message"]})
                     for b in trace if b.kind == tr.BROADCAST],
        "max_suggest_sends_per_instance": max((instances.count(i) for i in instances), default=0),
    }


def streamed(trace, cfg: CheckerConfig, quiescent: bool) -> tuple[list[dict], dict]:
    """The pass's Send-derived reports and metrics for `trace`, fed as a list."""
    checks = check_pass(cfg).run(trace)
    reports = [r.to_dict() for r in checks.finish(quiescent) if r.prop in SEND_PROPS]
    summary = checks.metrics.summary(checks)
    metrics = {
        "sends_by_kind": summary["sends_by_kind"],
        "total_bits": summary["total_bits"],
        "attempts": [row["attempts"] for row in summary["per_broadcast"]],
        "max_suggest_sends_per_instance": summary["max_suggest_sends_per_instance"],
    }
    return reports, metrics


def reference(trace, cfg: CheckerConfig, quiescent: bool) -> tuple[list[dict], dict]:
    return ref_network(trace, cfg, quiescent) + [ref_complexity(trace, cfg)], ref_metrics(trace, cfg)


@pytest.mark.parametrize("name", BUNDLED + CAMPAIGN)
def test_pass_matches_the_reference(name):
    scenario = named_scenario(name)
    trace, quiescent = simulate(scenario)
    cfg = CheckerConfig.from_scenario(scenario, quiescent)
    got = streamed(trace, cfg, quiescent)
    assert got == reference(trace, cfg, quiescent)
    assert [r["verdict"] for r in got[0]] == [PASS] * 3
    assert sum(got[1]["sends_by_kind"].values()) > 0


@pytest.mark.parametrize("name", BUNDLED + CAMPAIGN)
def test_feed_run_and_read_back_agree(tmp_path, name):
    scenario = named_scenario(name)
    trace, quiescent = simulate(scenario)
    cfg = CheckerConfig.from_scenario(scenario, quiescent)
    path = tmp_path / "trace.jsonl"
    tr.write_trace(path, trace)
    fed = check_pass(cfg)
    for event in trace:
        fed.run((event,))
    passes = [fed, check_pass(cfg).run(trace), check_pass(cfg).run(tr.read_trace(path))]
    outcomes = [([r.to_dict() for r in p.finish(quiescent)], p.metrics.summary(p), p.events, p.last)
                for p in passes]
    assert outcomes[1] == outcomes[0] == outcomes[2]
    assert compute_metrics(tr.read_trace(path), scenario, quiescent) == outcomes[0][1]


# ---------------------------------------------------------------- edited traces

EDITED = ["campaign+equivocator", "campaign+partial_disseminator", "goodcase", "blink_fast"]
_traces: dict[str, tuple] = {}


def kept(name):
    if name not in _traces:
        scenario = named_scenario(name)
        trace, quiescent = simulate(scenario)
        _traces[name] = (trace, CheckerConfig.from_scenario(scenario, quiescent), quiescent)
    return _traces[name]


def split_points(trace) -> list[int]:
    """Indices i where trace[i-1] and trace[i] are two Sends of one call."""
    return [i for i in range(1, len(trace)) if trace[i].kind == trace[i - 1].kind == tr.SEND
            and trace[i].payload["msg"] is trace[i - 1].payload["msg"] and trace[i].time == trace[i - 1].time]


EDIT = st.sampled_from(["move", "retime", "drop", "duplicate", "split"])


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(name=st.sampled_from(EDITED), edits=st.lists(EDIT, min_size=1, max_size=3), quiescent=st.booleans(),
       data=st.data())
def test_edited_traces_match_the_reference(name, edits, quiescent, data):
    trace, cfg, _ = kept(name)
    trace = list(trace)
    for how in edits:
        network = [i for i, e in enumerate(trace) if e.kind in (tr.SEND, tr.DELIVER)]
        if how == "split":
            points = split_points(trace)
            if not points:
                continue
            at = data.draw(st.sampled_from(points))
            filler = data.draw(st.sampled_from([i for i, e in enumerate(trace) if e.kind != tr.SEND]))
            trace.insert(at, trace[filler])
            continue
        i = data.draw(st.sampled_from(network))
        if how == "drop":
            del trace[i]
        elif how == "duplicate":
            trace.insert(data.draw(st.integers(0, len(trace))), trace[i])
        elif how == "retime":  # moved in time, not in order
            e = trace[i]
            trace[i] = tr.TraceEvent(e.time + data.draw(st.integers(-cfg.delta - 1, cfg.delta + 1)), e.process, e.kind,
                                     e.payload)
        else:
            event = trace.pop(i)
            trace.insert(data.draw(st.integers(0, len(trace))), event)
    assert streamed(trace, cfg, quiescent) == reference(trace, cfg, quiescent)
    # Copied one by one, events share no dicts, as in a trace read back from a file.
    assert streamed([copy.deepcopy(e) for e in trace], cfg, quiescent) == reference(trace, cfg, quiescent)
