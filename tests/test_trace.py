"""The JSONL trace writer, its reader, and the shared message payloads."""

from __future__ import annotations

import copy
import enum
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fluttersim.adversary import BEHAVIORS
from fluttersim.checkers import CheckerConfig, run_all_checks
from fluttersim.runner import campaign_variant, run_scenario
from fluttersim.scenario import load_scenario
from fluttersim.trace import DELIVER, SEND, TIMER_FIRE, TraceEvent, TraceWriter, read_trace, render, write_trace

from conftest import SCENARIOS_DIR, simulate

BUNDLED = sorted(p.stem for p in SCENARIOS_DIR.glob("*.json"))
CAMPAIGN = [f"campaign+{b}" for b in sorted(BEHAVIORS)]


def named_scenario(name):
    """A bundled scenario, or for "campaign+<behavior>" a campaign_base variant."""
    if name.startswith("campaign+"):
        base = load_scenario(SCENARIOS_DIR / "campaign_base.json")
        return campaign_variant(base, name.split("+")[1], "adversarial_value", 3)
    return load_scenario(SCENARIOS_DIR / f"{name}.json")


def named_trace(name):
    return simulate(named_scenario(name))[0]


def written(tmp_path, trace) -> bytes:
    path = tmp_path / "trace.jsonl"
    write_trace(path, trace)
    return path.read_bytes()


STDLIB = json.JSONEncoder(separators=(",", ":"))  # the reference: an encoder built per call, as json.dumps does


def lines_of(trace) -> bytes:
    return "".join(STDLIB.encode({"time": e.time, "process": e.process, "kind": e.kind, "payload": e.payload}) + "\n"
                   for e in trace).encode()


@pytest.mark.parametrize("name", BUNDLED)
def test_writer_matches_to_line_on_bundled_runs(tmp_path, name):
    trace = named_trace(name)
    assert written(tmp_path, trace) == lines_of(trace)


@pytest.mark.parametrize("behavior", sorted(BEHAVIORS))
def test_writer_matches_to_line_on_campaign_variants(tmp_path, behavior):
    # The equivocator sends a different Suggest to each peer: unshared dicts.
    trace = named_trace(f"campaign+{behavior}")
    assert written(tmp_path, trace) == lines_of(trace)


def test_writer_matches_to_line_on_hand_built_events(tmp_path):
    shared = {"kind": "Suggest", "instance": {"label": 'l"a\\b\nelé'}, "value": True}
    other = {"kind": "Time", "time": 4}
    delivered = {"src": "p", "msg": shared}
    trace = [
        TraceEvent(1, 's"0\\0', SEND, {"dst": "t\tabé", "msg": shared}),
        TraceEvent(2, "t\tabé", DELIVER, {"src": 's"0\\0', "msg": shared}),
        # equal by value, distinct objects: each renders on its own
        TraceEvent(3, 1, SEND, {"dst": True, "msg": other}),
        TraceEvent(4, True, DELIVER, {"src": 1, "msg": dict(other)}),
        # layouts and times that `to_line` alone renders
        TraceEvent(5, "p", SEND, {"msg": other, "dst": "q"}),
        TraceEvent(6, "q", DELIVER, {"src": "p", "msg": other, "note": "x"}),
        TraceEvent(7, "q", DELIVER, {"src": "p", "note": "x"}),
        TraceEvent(8.5, "p", SEND, {"dst": "q", "msg": other}),
        TraceEvent(True, "p", SEND, {"dst": "q", "msg": other}),
        TraceEvent(9, "p", TIMER_FIRE, {"token": 'b"eat'}),
        # payloads that are not dicts, as a hand-edited trace file may hold
        TraceEvent(9, "p", SEND, None),
        TraceEvent(9, "q", DELIVER, None),
        TraceEvent(9, "p", SEND, ["dst", "msg"]),
        TraceEvent(9, "q", DELIVER, ["src", "msg"]),
        # one Deliver payload shared by the copies of one send call
        TraceEvent(10, "u", DELIVER, delivered),
        TraceEvent(12, "v", DELIVER, delivered),
    ]
    assert written(tmp_path, trace) == lines_of(trace)
    # Streamed: each event is a fresh copy, freed once written, so a later dict may take its id().
    assert written(tmp_path, (copy.deepcopy(e) for e in trace)) == lines_of(trace)


def test_writer_holds_only_messages_in_flight(tmp_path):
    trace = named_trace("goodcase")
    path = tmp_path / "trace.jsonl"
    write_trace(path, trace)
    for stream in (trace, read_trace(path)):  # dicts shared by a call's events, or one set per line
        with open(tmp_path / "again.jsonl", "w") as fh:
            writer = TraceWriter(fh)
            in_flight = held = 0
            for event in stream:
                writer.write(event)
                in_flight += (event.kind == SEND) - (event.kind == DELIVER)
                held = max(held, len(writer.msgs) - in_flight)
        assert (in_flight, len(writer.msgs), held) == (0, 0, 0)
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    ("kind", "sender"),
    [("Observe", "s000"), ("Time", "s000"), ("Suggest", "s000"), ("Message", "c000")],
)
def test_broadcast_shares_one_msg_dict(kind, sender):
    trace = named_trace("goodcase")
    servers = [f"s{i:03d}" for i in range(6)]
    first = next(
        i for i, e in enumerate(trace) if e.kind == SEND and e.process == sender and e.payload["msg"]["kind"] == kind
    )
    msg = trace[first].payload["msg"]
    sends = trace[first : first + len(servers)]
    assert [(e.kind, e.process, e.payload["dst"]) for e in sends] == [(SEND, sender, s) for s in servers]
    assert all(e.payload["msg"] is msg for e in sends)
    sharing = [e for e in trace if e.kind in (SEND, DELIVER) and e.payload["msg"] is msg]
    assert len(sharing) == 2 * len(servers)
    assert sorted(e.process for e in sharing if e.kind == DELIVER) == servers
    # the call's Deliver events hold one payload dict; each Send holds its own
    assert len({id(e.payload) for e in sharing if e.kind == DELIVER}) == 1
    assert len({id(e.payload) for e in sharing if e.kind == SEND}) == len(servers)


@pytest.mark.parametrize("name", ["goodcase", "campaign+stale_relay"])
def test_one_deliver_payload_per_send_call(name):
    # Each send call renders one `msg` dict, so distinct Deliver payloads count the calls delivered.
    delivers = [e for e in named_trace(name) if e.kind == DELIVER]
    calls = len({id(e.payload["msg"]) for e in delivers})
    assert len(delivers) > calls > 10
    assert len({id(e.payload) for e in delivers}) == calls


@pytest.mark.parametrize("name", BUNDLED + CAMPAIGN)
def test_load_trace_round_trips(tmp_path, name):
    scenario = named_scenario(name)
    result = run_scenario(scenario)
    data = written(tmp_path, result.trace)
    loaded = list(read_trace(tmp_path / "trace.jsonl"))
    assert [(e.time, e.process, e.kind, e.payload) for e in loaded] == [
        (e.time, e.process, e.kind, e.payload) for e in result.trace
    ]
    again = tmp_path / "again"
    again.mkdir()
    # streamed, each event read is freed once written, so a later line's dicts may take its id()s
    assert written(again, read_trace(tmp_path / "trace.jsonl")) == data
    # a loaded trace shares no dicts, and the checkers must not need it to
    cfg = CheckerConfig.from_scenario(scenario, result.quiescent)
    assert [r.to_dict() for r in run_all_checks(loaded, cfg)] == [r.to_dict() for r in result.reports]


# ---------------------------------------------------------------- render against the stdlib encoder

AWKWARD = ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "\u2028", "\ud800", "\udfff", "\U0001f600"]
TEXT = st.lists(st.one_of(st.sampled_from(AWKWARD), st.characters(exclude_categories=())), max_size=6).map("".join)
INTS = st.integers(min_value=-(2**70), max_value=2**70)


def shape(**fields):
    """Dicts with these keys in this order, each value drawn from its strategy."""
    return st.tuples(*fields.values()).map(lambda values: dict(zip(fields, values)))


INSTANCES = st.one_of(shape(client=TEXT, message=TEXT, bet=INTS), shape(label=TEXT))
# Every payload shape the simulator emits: the five wire dicts, then the event payloads.
SHAPES = st.one_of(
    shape(kind=TEXT, instance=INSTANCES, value=st.booleans()),
    shape(kind=TEXT, time=INTS),
    shape(kind=TEXT, client=TEXT, message=TEXT, bet=INTS),
    shape(kind=TEXT, message=TEXT, bet=INTS),
    shape(kind=TEXT, message=TEXT, bet=INTS, value=st.booleans()),
    shape(instance=INSTANCES, value=st.booleans()),
    shape(client=TEXT, message=TEXT, bet=INTS),
    shape(token=TEXT),
    shape(message=TEXT),
)


class Name(str):
    pass


class Tick(enum.IntEnum):
    ONE = 1  # the encoder writes 1, an f-string Tick.ONE


OFF_TYPE = [True, False, 0, 1, 2.0, -math.inf, math.nan, None, "7", Name("s000"), Tick.ONE, ["x"], {"kind": "Time"}]


@given(SHAPES)
def test_emitted_shapes_match_the_stdlib_encoder(payload):
    assert render(payload) == STDLIB.encode(payload)


@given(SHAPES, st.data())
def test_near_miss_shapes_match_the_stdlib_encoder(payload, data):
    # A near miss: one value swapped for another type (bool for int, int for bool, a float or -inf time, a
    # non-str name), keys reordered, or one key too many; at the top level or inside the instance.
    target = payload
    if "instance" in payload and data.draw(st.booleans()):
        target = payload["instance"] = dict(payload["instance"])
    how = data.draw(st.sampled_from(["swap", "reorder", "extra"] if len(target) > 1 else ["swap", "extra"]))
    if how == "swap":
        key = data.draw(st.sampled_from(sorted(target)))
        target[key] = data.draw(st.sampled_from([v for v in OFF_TYPE if type(v) is not type(target[key])]))
    elif how == "reorder":
        items = list(target.items())
        items.insert(0, items.pop(data.draw(st.integers(min_value=1, max_value=len(items) - 1))))
        target.clear()
        target.update(items)
    else:
        target[data.draw(st.sampled_from(["note", "kind", "value"]).filter(lambda k: k not in target))] = 1
    assert render(payload) == STDLIB.encode(payload)


SCALARS = st.one_of(
    TEXT,
    st.integers(min_value=-(2**100), max_value=2**100),
    st.floats(),  # NaN and ±inf included
    st.booleans(),
    st.none(),
    st.just(Tick.ONE),
    TEXT.map(Name),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=20,
)


@given(VALUES)
def test_any_value_matches_the_stdlib_encoder(value):
    assert render(value) == STDLIB.encode(value)


@given(st.one_of(INTS, st.booleans(), st.floats()), st.one_of(TEXT, INTS), SHAPES)
def test_to_line_matches_the_stdlib_encoder(time, process, payload):
    event = TraceEvent(time, process, DELIVER, payload)
    assert event.to_line() == STDLIB.encode({"time": time, "process": process, "kind": DELIVER, "payload": payload})
