"""The JSONL trace writer, its reader, and the shared message payloads."""

from __future__ import annotations

import copy
import enum
import io
import json
import math
import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fluttersim.adversary import BEHAVIORS
from fluttersim.checkers import CheckerConfig, run_all_checks
from fluttersim import cli
from fluttersim.runner import _Tee, build_simulation, campaign_variant, run_checked, run_scenario
from fluttersim.scenario import load_scenario
from fluttersim.trace import (DELIVER, SEND, TIMER_FIRE, Trace, TraceEvent, TraceWriter, read_trace, render,
                              write_trace)

from conftest import SCENARIOS_DIR, simulate

BUNDLED = sorted(p.stem for p in SCENARIOS_DIR.glob("*.json"))
CAMPAIGN = [f"campaign+{b}" for b in sorted(BEHAVIORS)]


def named_scenario(name):
    """A bundled scenario, or for "campaign+<behavior>" a campaign_base variant; "<name>@<t>" cuts it at t."""
    name, _, until = name.partition("@")
    if name.startswith("campaign+"):
        base = load_scenario(SCENARIOS_DIR / "campaign_base.json")
        return campaign_variant(base, name.split("+")[1], "adversarial_value", 3)
    scenario = load_scenario(SCENARIOS_DIR / f"{name}.json")
    return scenario.replace(until=int(until)) if until else scenario


def named_trace(name):
    return simulate(named_scenario(name))[0]


def kept_trace(name) -> Trace:
    """The simulator's own kept trace of a named run."""
    scenario = named_scenario(name)
    sim = build_simulation(scenario)
    sim.run(until=scenario.until)
    return sim.trace


def written(tmp_path, trace) -> bytes:
    path = tmp_path / "trace.jsonl"
    write_trace(path, trace)
    return path.read_bytes()


STDLIB = json.JSONEncoder(separators=(",", ":"))  # the reference: an encoder built per call, as json.dumps does


def lines_of(trace) -> bytes:
    return "".join(STDLIB.encode({"time": e.time, "process": e.process, "kind": e.kind, "payload": e.payload}) + "\n"
                   for e in trace).encode()


# "goodcase@10" ends on the Sends of s005's Suggest broadcast.
@pytest.mark.parametrize("name", BUNDLED + ["goodcase@10"])
def test_writer_matches_to_line_on_bundled_runs(tmp_path, name):
    trace = named_trace(name)
    assert written(tmp_path, trace) == lines_of(trace) == "".join(e.to_line() + "\n" for e in trace).encode()


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


class HeldSpy:
    """A sink in front of a writer. After every call and event it checks that the writer holds a message only while
    copies of it are in flight, and, where a stream's Sends and Delivers share dicts, exactly then."""

    def __init__(self, writer):
        self.writer = writer
        self.flying: dict[int, list] = {}  # id(msg) -> [msg (held, so its id() stays unique), copies in flight]
        self.in_flight = 0  # copies sent and not yet delivered, of any message
        self.copies: list[int] = []  # each call's copies

    def sends(self, time, src, dsts, msg):
        self.writer.sends(time, src, dsts, msg)
        self.copies.append(len(dsts))
        self.sent(msg, len(dsts))
        self.check(exact=True)

    def deliver(self, run):
        self.writer.deliver(run)
        for _time, _dst, payload in run:
            self.delivered(payload["msg"])
        self.check(exact=True)

    def event(self, ev):
        self.writer.event(ev)
        self.seen(ev)
        self.check(exact=True)

    def write(self, events):
        """`events` through the writer's own `write`, checked after it takes each one: any iterable that is no
        `Trace` is written one `event` per item, so the writer holds no message."""
        def taken():
            for ev in events:
                yield ev  # `write` asks for the next event only once it has taken this one
                self.seen(ev)
                self.check(exact=False)

        self.writer.write(taken())

    def sent(self, msg, copies):
        self.flying.setdefault(id(msg), [msg, 0])[1] += copies
        self.in_flight += copies

    def seen(self, ev):
        if ev.kind == SEND:
            self.sent(ev.payload["msg"], 1)
        elif ev.kind == DELIVER:
            self.delivered(ev.payload["msg"])

    def delivered(self, msg):
        self.in_flight -= 1
        entry = self.flying.get(id(msg))
        if entry is not None and entry[0] is msg:
            entry[1] -= 1
            if not entry[1]:  # the k-th Deliver of a k-copy call releases its dict
                del self.flying[id(msg)]

    def check(self, exact):
        held = self.writer.msgs.keys()
        assert len(held) <= self.in_flight
        assert held == self.flying.keys() if exact else held <= self.flying.keys()

    def done(self):
        assert self.in_flight == 0 and self.writer.msgs == {}


def test_writer_holds_only_messages_in_flight(tmp_path):
    for name in ("goodcase", "campaign+equivocator"):
        trace = named_trace(name)
        expected = written(tmp_path, trace)
        out = tmp_path / "again.jsonl"

        def spied(feed):
            with open(out, "w") as fh:
                spy = HeldSpy(TraceWriter(fh))
                feed(spy)
            spy.done()
            assert out.read_bytes() == expected
            return spy

        # A live run hands the writer each send call once: broadcasts, and one-copy calls.
        spy = spied(lambda spy: run_checked(named_scenario(name), spy))
        assert spy.flying == {} and max(spy.copies) == 6 and 1 in spy.copies
        # The kept trace (shared dicts), event by event, each Send a one-copy call and each Deliver a run of one.
        spy = spied(lambda spy: [spy.sends(e.time, e.process, [e.payload["dst"]], e.payload["msg"]) if e.kind == SEND
                                 else spy.deliver([(e.time, e.process, e.payload)]) if e.kind == DELIVER
                                 else spy.event(e) for e in trace])
        assert spy.flying == {} and set(spy.copies) == {1}
        # The kept trace, replayed: the calls of the live run.
        spy = spied(lambda spy: kept_trace(name).replay(spy))
        assert spy.flying == {} and max(spy.copies) == 6 and 1 in spy.copies
        # Read back, no two lines share a dict, and the writer keeps none.
        spied(lambda spy: spy.write(read_trace(tmp_path / "trace.jsonl")))


def test_a_delivery_the_writer_saw_no_send_of_renders_whole():
    msg, other = {"kind": "Time", "time": 4}, {"kind": "Time", "time": 5}
    trace = Trace()
    trace.sends(1, "s000", ["s001", "s002", "s003"], msg)
    trace.deliver([(2, "s001", {"src": "s000", "msg": msg}),  # its Send's tail
                   (3, "s002", {"src": "s009", "msg": msg}),  # a message s000 sent, from another src
                   (4, "s003", {"src": "s000", "msg": msg})])
    trace.deliver([(5, "s004", {"src": "s000", "msg": other})])  # a message no Send holds
    writer = TraceWriter(io.StringIO())
    writer.write(trace)
    assert writer.fh.getvalue().encode() == lines_of(trace) == "".join(e.to_line() + "\n" for e in trace).encode()
    assert writer.msgs == {}


@pytest.mark.parametrize("name", BUNDLED)
def test_streamed_run_writes_the_kept_trace(tmp_path, name):
    # `fluttersim run` streams each send call to the writer; `write_trace` replays the kept trace's calls.
    assert cli.main(["run", str(SCENARIOS_DIR / f"{name}.json"), "--trace", str(tmp_path / "streamed.jsonl"),
                     "--report", str(tmp_path / "report.json")]) in (cli.EXIT_OK, cli.EXIT_FAIL)
    assert (tmp_path / "streamed.jsonl").read_bytes() == written(tmp_path, named_trace(name))
    assert (tmp_path / "streamed.jsonl").read_bytes() == written(tmp_path, kept_trace(name))


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


class Recorder:
    """A sink that keeps each call it takes, as (method, args), a run as a copy, and each run's list as handed."""

    def __init__(self):
        self.calls = []
        self.runs = []

    def event(self, ev):
        self.calls.append(("event", (ev,)))

    def deliver(self, run):
        self.calls.append(("deliver", (run[:],)))  # the caller may reuse its list
        self.runs.append(run)

    def sends(self, time, src, dsts, msg):
        self.calls.append(("sends", (time, src, tuple(dsts), msg)))


@pytest.mark.parametrize("name", BUNDLED + ["campaign+equivocator"])
def test_a_kept_trace_replays_the_live_run(name):
    scenario = named_scenario(name)
    sim = build_simulation(scenario)
    live = Recorder()
    sim.sink = _Tee(sim.trace, live)
    sim.run(until=scenario.until)
    replayed = Recorder()
    sim.trace.replay(replayed)
    assert replayed.calls == live.calls
    # The very objects of the live calls: each event, each delivery of a run, and each send call's one `msg` dict.
    for (method, got), (_, want) in zip(replayed.calls, live.calls):
        assert all(map(operator.is_, got[0], want[0])) if method == "deliver" else got[-1] is want[-1]
    assert any(len(args[2]) > 1 for method, args in live.calls if method == "sends")
    # A replayed run is the trace's own copy, never the list the simulator handed and reused.
    assert live.runs and all(run is sim._run for run in live.runs)
    assert not any(run is sim._run for run in replayed.runs)
    # Iterating gives each event, a Deliver event per delivery holding its payload, and a Send event per copy of
    # each call, holding the call's `msg` dict.
    events = iter(sim.trace)
    for method, args in live.calls:
        if method == "event":
            assert next(events) is args[0]
        elif method == "deliver":
            for time, dst, payload in args[0]:
                e = next(events)
                assert (e.time, e.process, e.kind, e.payload) == (time, dst, DELIVER, payload) and e.payload is payload
        else:
            time, src, dsts, msg = args
            copies = [next(events) for _ in dsts]
            assert [(e.time, e.process, e.kind, e.payload) for e in copies] == [
                (time, src, SEND, {"dst": dst, "msg": msg}) for dst in dsts
            ]
            assert all(e.payload["msg"] is msg for e in copies)
    assert next(events, None) is None
    copies = [len(args[0]) if method == "deliver" else len(args[2]) if method == "sends" else 1
              for method, args in live.calls]
    assert len(sim.trace) == sum(1 for _ in sim.trace) == sum(copies)


@pytest.mark.parametrize("name", BUNDLED + CAMPAIGN)
def test_each_run_of_deliveries_is_one_sink_call(name):
    # Cut just before the middle delivery's tick and resumed, a run reaches its sink in the uncut run's calls,
    # flattened.
    scenario = named_scenario(name)
    times = [e.time for e in named_trace(name) if e.kind == DELIVER]
    sim, whole = build_simulation(scenario), Recorder()
    sim.sink = _Tee(sim.trace, whole)
    sim.run(until=scenario.until)
    sim, live = build_simulation(scenario), Recorder()
    sim.sink = _Tee(sim.trace, live)
    assert not sim.run(until=times[len(times) // 2] - 1)
    resumed = len(live.calls)
    sim.run(until=scenario.until)

    def flat(calls):  # each run as its deliveries, one entry each
        return [(method, one) for method, args in calls for one in (args[0] if method == "deliver" else [args])]

    assert flat(live.calls) == flat(whole.calls)
    # Every run holds a delivery, and two runs meet only across the resume: an event or a send call ends a run.
    assert all(args[0] for method, args in live.calls if method == "deliver")
    methods = [method for method, _ in live.calls]
    assert {i for i in range(1, len(methods)) if methods[i - 1] == methods[i] == "deliver"} <= {resumed}
    # A kept trace holds one entry per event, per send call and per run.
    kinds = {TraceEvent: "event", list: "deliver", tuple: "sends"}
    assert [kinds[type(call)] for call in sim.trace.calls] == methods


def test_a_kept_trace_holds_what_it_was_handed():
    # A send call's destinations and a run's deliveries as they were at the call, though the caller's lists change.
    trace, dsts, msg = Trace(), ["s000", "s001"], {"type": "Message"}
    trace.sends(0, "c000", dsts, msg)
    dsts.append("s002")
    run = [(3, "s000", {"src": "c000", "msg": msg})]
    trace.deliver(run)
    run.clear()
    assert [(e.kind, e.process) for e in trace] == [(SEND, "c000"), (SEND, "c000"), (DELIVER, "s000")]
    assert [e.payload["dst"] for e in trace if e.kind == SEND] == ["s000", "s001"] and len(trace) == 3
    # A deep copy takes its events into its own calls, not the original's.
    copied = copy.deepcopy(trace)
    copied.event(TraceEvent(1, "s000", TIMER_FIRE, {"token": "t"}))
    assert (len(trace), len(copied)) == (3, 4)
    assert [e.kind for e in copied] == [SEND, SEND, DELIVER, TIMER_FIRE]


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
