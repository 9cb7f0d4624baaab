"""The JSONL trace writer, its reader, and the shared message payloads."""

from __future__ import annotations

import collections
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
from fluttersim.checkers import CheckerConfig, CheckPass, run_all_checks
from fluttersim import cli
from fluttersim import trace as trace_module
from fluttersim.errors import BudgetExceededError
from fluttersim.runner import build_simulation, campaign_variant, run_checked, run_scenario
from fluttersim.scenario import _HEX_RE, _LABEL_RE, _NAME_RE, load_scenario
from fluttersim.simnet import ExactDelta, Simulator
from fluttersim.trace import (APP_DELIVER, BLOCK_LINES, DECIDE, DELIVER, DEP_DECIDE, DEP_PROPOSE, PROPOSE, SEND,
                              TIMER_FIRE, Trace, TraceEvent, TraceWriter, instance_key_from_payload, read_trace,
                              render, write_trace)
from fluttersim.types import (BroadcastTuple, Decision, Message, Suggest, Time, WireMessage, instance_payload,
                              wire_payload)

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


def test_the_writer_caches_at_most_block_lines_payloads(tmp_path):
    # Read back, no two events share a dict: each is cached until the cache fills and starts over.
    trace = kept_trace("campaign_wide")
    expected = written(tmp_path, trace)
    held = []
    with open(tmp_path / "again.jsonl", "w") as fh, TraceWriter(fh) as writer:
        for ev in read_trace(tmp_path / "trace.jsonl"):
            writer.event(ev)
            held.append(len(writer.texts))
    assert (tmp_path / "again.jsonl").read_bytes() == expected
    assert len(held) > 2 * BLOCK_LINES and max(held) == BLOCK_LINES and held.count(1) > 2


def test_a_live_run_renders_each_distinct_payload_once(monkeypatch):
    rendered = []

    def counted(payload):
        rendered.append(payload)
        return render(payload)

    monkeypatch.setattr(trace_module, "render", counted)
    with TraceWriter(io.StringIO()) as writer:
        run_checked(named_scenario("goodcase"), writer)
    assert writer.fh.getvalue().encode() == lines_of(named_trace("goodcase"))
    texts = list(map(render, rendered))
    assert len(rendered) < BLOCK_LINES and len({id(p) for p in rendered}) == len(set(texts)) == len(texts)
    assert len(texts) < sum(1 for _ in named_trace("goodcase")) // 4


def test_a_delivery_the_writer_saw_no_send_of_renders_whole():
    msg, other = {"kind": "Time", "time": 4}, {"kind": "Time", "time": 5}
    trace = Trace()
    trace.sends(1, "s000", ["s001", "s002", "s003"], msg)
    trace.deliver([(2, "s001", {"src": "s000", "msg": msg}),  # the message of its Send
                   (3, "s002", {"src": "s009", "msg": msg}),  # a message s000 sent, from another src
                   (4, "s003", {"src": "s000", "msg": msg})])
    trace.deliver([(5, "s004", {"src": "s000", "msg": other})])  # a message no Send holds
    with TraceWriter(io.StringIO()) as writer:
        writer.write(trace)
    assert writer.fh.getvalue().encode() == lines_of(trace) == "".join(e.to_line() + "\n" for e in trace).encode()


class Writes(io.StringIO):
    """A text file that keeps the line count of each `write` call."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text.count("\n"))
        return super().write(text)


def test_the_writer_writes_a_block_per_block_lines_and_the_rest_on_close():
    # A block ends on the call that fills it, so it holds at least BLOCK_LINES lines and less than one call more.
    trace = kept_trace("campaign_wide")
    whole = lines_of(trace).decode()
    largest = max(len(call) if type(call) is list else len(call[2]) if type(call) is tuple else 1
                  for call in trace.calls)
    with TraceWriter(Writes()) as writer:
        trace.replay(writer)  # the live run's calls, as `fluttersim run` streams them
        blocks = writer.fh.writes[:]
        assert len(blocks) > 1 and all(BLOCK_LINES <= lines < BLOCK_LINES + largest for lines in blocks)
        assert whole.startswith(writer.fh.getvalue())
    assert writer.fh.getvalue() == whole and writer.fh.writes == blocks + [len(trace) - sum(blocks)]
    writer.close()  # a second close finds nothing left to write
    writer.write([])
    assert writer.fh.getvalue() == whole and len(writer.fh.writes) == len(blocks) + 1


@pytest.mark.parametrize("budget", [100, BLOCK_LINES + 100, 3 * BLOCK_LINES])
def test_a_run_past_its_step_budget_leaves_its_trace_up_to_the_raise(tmp_path, write_scenario, budget):
    # The writer is closed on the way out of the raise, so the lines of its last, partial block reach the file too.
    doc = json.loads((SCENARIOS_DIR / "campaign_wide.json").read_text())
    doc["step_budget"] = budget
    path = write_scenario(doc)
    assert cli.main(["run", str(path), "--trace", str(tmp_path / "cut.jsonl"),
                     "--report", str(tmp_path / "report.json")]) == cli.EXIT_BUDGET
    scenario = load_scenario(path)
    sim = build_simulation(scenario)
    with pytest.raises(BudgetExceededError):
        sim.run(until=scenario.until)
    assert (tmp_path / "cut.jsonl").read_bytes() == lines_of(sim.trace) == written(tmp_path, sim.trace)
    assert len(sim.trace) > budget and len(sim.trace) % BLOCK_LINES


@pytest.mark.parametrize("name", BUNDLED)
def test_streamed_run_writes_the_kept_trace(tmp_path, name):
    # `fluttersim run` streams each send call to the writer; `write_trace` replays the kept trace's calls.
    assert cli.main(["run", str(SCENARIOS_DIR / f"{name}.json"), "--trace", str(tmp_path / "streamed.jsonl"),
                     "--report", str(tmp_path / "report.json")]) in (cli.EXIT_OK, cli.EXIT_FAIL)
    assert (tmp_path / "streamed.jsonl").read_bytes() == written(tmp_path, named_trace(name))
    assert (tmp_path / "streamed.jsonl").read_bytes() == written(tmp_path, kept_trace(name))


@pytest.mark.parametrize("name", ["goodcase", "campaign_wide", "campaign+equivocator"])
def test_a_run_holds_one_msg_dict_per_distinct_message(name):
    # Many servers send the same Time and the same Suggest; each distinct message is one dict for the whole run.
    trace = kept_trace(name)
    calls = [call for call in trace.calls if type(call) is tuple]
    dicts = {}
    for _time, _src, _dsts, msg in calls:
        dicts.setdefault(render(msg), set()).add(id(msg))
    assert all(len(ids) == 1 for ids in dicts.values()) and len(calls) > 3 * len(dicts)
    delivered = [payload["msg"] for run in trace.calls if type(run) is list for _t, _d, payload in run]
    assert {id(msg) for msg in delivered} <= {id(msg) for *_, msg in calls}


@pytest.mark.parametrize("name", ["goodcase", "campaign+stale_relay", "campaign+equivocator"])
def test_one_deliver_payload_per_send_call(name):
    # The copies of one send call share its Deliver payload; no two calls share one, though they share a `msg`, even
    # calls from one sender: the equivocator sends each peer its Suggest in a call of its own.
    trace = kept_trace(name)
    copies = sorted(len(call[2]) for call in trace.calls if type(call) is tuple)
    payloads = collections.Counter(id(payload) for run in trace.calls if type(run) is list for _t, _d, payload in run)
    assert sorted(payloads.values()) == copies and max(copies) > 1


def test_one_payload_per_instance_fact_across_kinds_and_servers():
    # Every Propose, Decide, DepPropose and DepDecide of one (tuple, value), at every server, holds one dict, and its
    # instance is the one AppDeliver payload of that tuple.
    facts, seen, delivered = {}, {}, []
    for e in named_trace("goodcase"):
        if e.kind in (PROPOSE, DECIDE, DEP_PROPOSE, DEP_DECIDE):
            key = (instance_key_from_payload(e.payload["instance"]), e.payload["value"])
            assert facts.setdefault(key, e.payload) is e.payload
            seen.setdefault(key, set()).add((e.kind, e.process))
        elif e.kind == APP_DELIVER:
            delivered.append(e.payload)
    assert max(map(len, seen.values())) == 4 * 6  # the four kinds at all six servers
    instances = {key: payload["instance"] for (key, _value), payload in facts.items()}
    assert delivered and all(instances[instance_key_from_payload(p)] is p for p in delivered)


EQUAL_TUPLES = [  # each group: messages equal as tuples, which render apart
    [Suggest("ab", True), Suggest("ab", 1), Message("ab", 1), Message("ab", True), Message("ab", 1.0)],
    [Time(1), Time(True), Time(1.0)],
    [Suggest(BroadcastTuple(1, "c000", "ab"), True), Suggest(BroadcastTuple(1, "c000", "ab"), 1),
     Suggest((1, "c000", "ab"), True), Suggest((1, "c000", "ab"), 1.0)],
    [Decision("ab", 1, False), Decision("ab", True, 0), Decision("ab", 1, 0)],
]


@pytest.mark.parametrize("group", EQUAL_TUPLES, ids=["body", "time", "instance", "decision"])
def test_equal_messages_that_render_apart_keep_their_own_dicts(group):
    assert all(msg == group[0] for msg in group)
    sim = Simulator(ExactDelta(1))
    for name in ("s000", "s001"):
        sim.add_process(name, "server", None)
    for msg in group + group:  # the second round finds each message's dict from the first
        sim.send("s000", ["s001"], msg)
    sent = [call[3] for call in sim.trace.calls]
    assert [render(wire) for wire in sent] == [render(wire_payload(msg)) for msg in group + group]
    assert len({render(wire) for wire in sent}) == len(group)
    assert all(a is b for a, b in zip(sent, sent[len(group):]))


def test_every_wire_message_has_one_to_three_fields():
    # `Simulator.send` keys a message's wire dict on the types of its first, middle and last fields.
    assert {len(cls._fields) for cls in WireMessage.__args__} == {1, 2, 3}


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


def recording_pass(scenario, sim, recorder):
    """A check pass whose one observer is `recorder`, handing each call to `sim`'s kept trace first."""
    return CheckPass(CheckerConfig.from_scenario(scenario, False), [recorder], sim.trace)


@pytest.mark.parametrize("name", BUNDLED + ["campaign+equivocator"])
def test_a_kept_trace_replays_the_live_run(name):
    scenario = named_scenario(name)
    sim, live = build_simulation(scenario), Recorder()
    sim.sink = recording_pass(scenario, sim, live)
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
    sim.sink = recording_pass(scenario, sim, whole)
    sim.run(until=scenario.until)
    sim, live = build_simulation(scenario), Recorder()
    sim.sink = recording_pass(scenario, sim, live)
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


# ---------------------------------------------------------------- instance keys

# Instance keys as a scenario can name them: a client name, a body the parser stores as lowercase hex, any bet.
TUPLE_KEYS = st.builds(BroadcastTuple, st.integers(), st.from_regex(_NAME_RE, fullmatch=True),
                       st.from_regex(_HEX_RE, fullmatch=True).map(str.lower))
LABEL_KEYS = st.from_regex(_LABEL_RE, fullmatch=True)


@given(st.one_of(TUPLE_KEYS, LABEL_KEYS))
def test_an_instance_key_reads_back_from_its_payload(key):
    # A tuple reads back in BroadcastTuple's order, so the checker's keys sort as the servers order tuples.
    expected = ("label", key) if type(key) is str else tuple(key)
    assert instance_key_from_payload(instance_payload(key)) == expected
