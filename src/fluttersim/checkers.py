"""Checkers for every property the protocols promise, judged in one pass over a run's events.

A `CheckPass` is a simulator sink. It keeps each low-volume event
(Broadcast, AppDeliver, the consensus kinds) once, for the run views the
end-of-run checkers read, and hands every call on to the observers that
judge as they go (the server replay, the network, `Metrics`): each is a
sink with only the methods it needs, reads a run only during the call,
and gets each send call and run of deliveries once. A Send or Deliver
event is built only for a witness. The network pairs dicts by identity
and holds those it compares, so a recycled id() cannot match. Liveness is
decided only at quiescence. Server invariants come from an independent
replay of each server's inputs, so a bug in the live implementation
cannot hide in the checker.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from functools import cached_property
from itertools import groupby

from . import trace as tr
from .types import NEG_INF, Record, quorum_large

PASS = "Pass"
FAIL = "Fail"
NA = "NotApplicable"
_WIRE_OVERHEAD_BYTES = 8  # headers, ids, timestamps: the O(1) part of each message


class CheckReport(Record):
    __slots__ = ("prop", "verdict", "detail", "witness")

    def __init__(self, prop: str, verdict: str, detail: str = "", witness: list[dict] | tuple = ()):
        self.prop = prop
        self.verdict = verdict
        self.detail = detail
        self.witness = witness  # Fail reports only; the others share one empty tuple

    def to_dict(self) -> dict:
        return {"property": self.prop, "verdict": self.verdict, "detail": self.detail, "witness": self.witness}


def _built(event: tr.TraceEvent | tuple) -> tr.TraceEvent:
    """`event`, built if it is a delivery, (time, dst, payload), or one copy of a send call, (time, src, dst, msg)."""
    if type(event) is not tuple:
        return event
    return tr.deliver_event(event) if len(event) == 3 else tr.send_event(*event)


def _ev(event: tr.TraceEvent | tuple) -> dict:
    event = _built(event)
    return {"time": event.time, "process": event.process, "kind": event.kind, "payload": event.payload}


def _ok(prop: str, detail: str = "") -> CheckReport:
    return CheckReport(prop, PASS, detail)


def _fail(prop: str, detail: str, witness: list[tr.TraceEvent]) -> CheckReport:
    assert witness, "a Fail verdict must carry a witness"
    return CheckReport(prop, FAIL, detail, [_ev(w) for w in witness])


def _na(prop: str, reason: str) -> CheckReport:
    return CheckReport(prop, NA, reason)


def _verdict(prop: str, fail, detail: str = "") -> CheckReport:
    """Fail if `fail` is a (detail, witness events) pair, else Pass with `detail`."""
    return _fail(prop, *fail) if fail else _ok(prop, detail)


def _fmt_key(key) -> str:
    if key[0] == "label":
        return f"label:{key[1]}"
    bet, client, message = key
    return f"({client}, 0x{message}, bet={bet})"


def _prefix_divergence(seqs: list[list[tuple[object, tr.TraceEvent]]], quiescent: bool):
    """Witness events where two (key, event) sequences first diverge, else None.

    Before quiescence a sequence may be a strict prefix of another; at
    quiescence that counts as divergence too.
    """
    keys = [[k for k, _e in seq] for seq in seqs]
    if all(k == keys[0] for k in keys):  # the usual case: all equal, so none diverges or is a strict prefix
        return None
    for i, a in enumerate(seqs):
        for b in seqs[i + 1 :]:
            for (ka, ea), (kb, eb) in zip(a, b):
                if ka != kb:
                    return [ea, eb]
            if quiescent and len(a) != len(b):
                longer = a if len(a) > len(b) else b
                return [longer[min(len(a), len(b))][1]]
    return None


def _check_one_decide_per_server(prop: str, label: str, decides, what: str) -> CheckReport:
    """At most one of `decides` ((server, value, event) triples) per server."""
    if len({s for s, _v, _e in decides}) == len(decides):
        return _ok(prop, label)
    by_server: dict[str, list[tr.TraceEvent]] = {}
    for server, _v, event in decides:
        by_server.setdefault(server, []).append(event)
    twice = next(evs for evs in by_server.values() if len(evs) > 1)  # of the servers that decided twice, the first
    return _fail(prop, f"{label}: two {what} at one server", twice[:2])


def _check_one_value(prop: str, label: str, decides, what: str) -> CheckReport:
    """Not both True and False among `decides` ((server, value, event) triples)."""
    if len({not v for _s, v, _e in decides}) < 2:  # every value true, or every one false
        return _ok(prop, label)
    return _fail(prop, f"{label}: {what}",
                 [next(e for _s, v, e in decides if v), next(e for _s, v, e in decides if not v)])


def _check_termination(prop, label, proposals, decides, cfg, unproposed, undecided) -> CheckReport:
    """Every correct server decides, at quiescence, once every correct server proposed."""
    proposers = {s for s, _v, _e in proposals}
    if not cfg.quiescent:
        return _na(prop, f"{label}: run was cut before quiescence")
    if proposers != cfg.correct:
        return _na(prop, f"{label}: " + unproposed.format(len(proposers), len(cfg.correct)))
    missing = sorted(cfg.correct - {s for s, _v, _e in decides})
    if missing:
        return _fail(prop, f"{label}: {missing} {undecided}", [proposals[0][2]])
    return _ok(prop, label)


class CheckerConfig:
    """The facts a run is judged against, each worked out once from its scenario; only `quiescent` is given."""

    __slots__ = ("kind", "n", "f", "delta", "drift", "epsilon", "strategy", "servers", "correct_servers", "correct",
                 "clients", "honest_clients", "correct_clients", "quiescent", "delta_estimates", "scripts")

    def __init__(self, scenario, quiescent: bool):
        self.kind = scenario.kind
        self.n = scenario.n
        self.f = scenario.f
        self.delta = scenario.delta
        self.drift = scenario.drift
        self.epsilon = scenario.epsilon
        self.strategy = scenario.network.strategy
        self.servers = scenario.servers
        self.correct_servers = scenario.correct_servers  # in name order, for the checks that walk them
        self.correct = frozenset(self.correct_servers)  # the same set, for membership tests
        self.clients = scenario.client_names
        self.honest_clients = scenario.honest_clients()
        self.correct_clients = scenario.correct_clients()
        self.quiescent = quiescent  # every check reads it for its report; `CheckPass.finish` sets it
        self.delta_estimates = {c.name: c.delta_estimate for c in scenario.clients}  # client -> its guess of delta
        # client -> the message hexes it is scripted to broadcast
        self.scripts = {c.name: [b.message for b in c.broadcasts] for c in scenario.clients}

    from_scenario = classmethod(type.__call__)  # the spelling every caller uses: from_scenario(scenario, quiescent)

    @property
    def good_case(self) -> bool:
        return self.strategy == "exact_delta" and self.lock_within_local and self.correct_clients == self.clients

    @property
    def lock_within_local(self) -> bool:
        """Whether every lock must stay within local time: all servers correct, zero drift."""
        return len(self.correct_servers) == self.n and self.drift == 0


_INSTANCE_KINDS = (tr.PROPOSE, tr.DECIDE, tr.DEP_PROPOSE, tr.DEP_DECIDE)


class CheckPass:
    """Keeps each low-volume event once, in `kept` (kind -> events in trace order), and streams the rest.

    A check is a report function fn(run), `run` being this pass, or an observer class built as cls(cfg): a sink
    with any of the methods `sends`, `deliver` and `event`, each taking what the simulator hands a sink, and
    finish(run). Each reads `run.cfg.quiescent`, which `finish` sets. No observer holds the pass. A `sink` (say, a
    `Trace` or a `TraceWriter`) takes each call ahead of the observers.
    """

    def __init__(self, cfg: CheckerConfig, checks, sink=None):
        self.cfg = cfg
        self.events = 0
        self._last: tr.TraceEvent | tuple | None = None  # the last event, delivery, or copy's (time, src, dst, msg)
        self.kept = {kind: [] for kind in (tr.BROADCAST, tr.APP_DELIVER) + _INSTANCE_KINDS}
        self.checks = [check(cfg) if isinstance(check, type) else check for check in checks]
        self.metrics = next((obs for obs in self.checks if isinstance(obs, Metrics)), None)
        sinks = self.checks if sink is None else [sink, *self.checks]
        self.senders, self.deliverers, self.eventers = (
            [getattr(obs, name) for obs in sinks if hasattr(obs, name)] for name in ("sends", "deliver", "event"))

    @property
    def last(self) -> tr.TraceEvent | None:
        """The last event fed, built on first read if it is a delivery or a Send of a call."""
        self._last = _built(self._last)
        return self._last

    @property
    def final_time(self) -> int:
        """The time of the last event fed, else 0."""
        return 0 if self._last is None else self._last[0] if type(self._last) is tuple else self._last.time

    def event(self, event: tr.TraceEvent) -> None:
        """One event that is no Send or Deliver."""
        self.events += 1
        self._last = event
        if (kept := self.kept.get(event.kind)) is not None:
            kept.append(event)
        for handler in self.eventers:
            handler(event)

    def deliver(self, run: list) -> None:
        """A run of Deliver events, each as its delivery (time, dst, payload)."""
        self.events += len(run)
        self._last = run[-1]
        for handler in self.deliverers:
            handler(run)

    def sends(self, time: int, src: str, dsts, msg: dict) -> None:
        """One send call: a Send event to each of `dsts`, all holding `msg`."""
        self.events += len(dsts)
        self._last = (time, src, dsts[-1], msg)
        for handler in self.senders:
            handler(time, src, dsts, msg)

    def run(self, trace) -> "CheckPass":
        """Feed a `Trace`'s calls, or the events of any other iterable, each Send as a one-copy call and each stretch
        of Deliver events as one run."""
        if isinstance(trace, tr.Trace):
            trace.replay(self)
            return self
        send = tr.SEND if self.senders else None  # with no send call handler, a Send is an event read no further
        for delivering, events in groupby(trace, lambda ev: ev.kind == tr.DELIVER):
            if delivering:
                self.deliver([(ev.time, ev.process, ev.payload) for ev in events])
                continue
            for ev in events:
                if ev.kind == send:
                    self.sends(ev.time, ev.process, (ev.payload["dst"],), ev.payload["msg"])
                else:
                    self.event(ev)
        return self

    def finish(self, quiescent: bool) -> list[CheckReport]:
        self.cfg.quiescent = quiescent
        return [report for check in self.checks for report in getattr(check, "finish", check)(self)]

    # The run views: each built once, on first use, from the kept events; so read them only after the last event.

    @cached_property
    def sequences(self) -> dict[str, list[tr.TraceEvent]]:
        """Each server's AppDeliver events (and any other process's), in trace order."""
        seqs: dict[str, list[tr.TraceEvent]] = {s: [] for s in self.cfg.servers}
        for event in self.kept[tr.APP_DELIVER]:
            seqs.setdefault(event.process, []).append(event)
        return seqs

    @cached_property
    def last_delivery(self) -> dict[tuple[str, str], dict[str, tr.TraceEvent]]:
        """(client, message) -> process -> its last AppDeliver of that message."""
        out: dict[tuple[str, str], dict[str, tr.TraceEvent]] = {}
        for event in self.kept[tr.APP_DELIVER]:
            out.setdefault((event.payload["client"], event.payload["message"]), {})[event.process] = event
        return out

    @cached_property
    def instances(self) -> dict[object, dict[str, list[tuple[str, bool, tr.TraceEvent]]]]:
        """Instance key -> kind -> its correct servers' (server, value, event) triples, in trace order.

        Keys come in the order of their first Propose, then of their first event of the later kinds.
        """
        correct, per = self.cfg.correct, {}
        for kind in _INSTANCE_KINDS:
            for event in self.kept[kind]:
                if event.process in correct:
                    key = tr.instance_key_from_payload(event.payload["instance"])
                    if (entry := per.get(key)) is None:
                        entry = per[key] = {k: [] for k in _INSTANCE_KINDS}
                    entry[kind].append((event.process, event.payload["value"], event))
        return per


# ---------------------------------------------------------------- TOB


def _tob(run: CheckPass) -> list[CheckReport]:
    cfg, quiescent = run.cfg, run.cfg.quiescent
    seqs = {s: run.sequences[s] for s in cfg.correct_servers}
    broadcasts: dict[tuple[str, str], tr.TraceEvent] = {}
    for event in run.kept[tr.BROADCAST]:
        broadcasts.setdefault((event.process, event.payload["message"]), event)
    honest = set(cfg.honest_clients)
    dup = bad = None  # the first duplicate, and the first delivery of an unsent message, in server order
    for evs in seqs.values():
        seen: dict[tuple[str, str], tr.TraceEvent] = {}
        for event in evs:
            client, message = k = event.payload["client"], event.payload["message"]
            if dup is None and k in seen:
                dup = (f"{event.process} delivered {event.payload} twice", [seen[k], event])
            seen.setdefault(k, event)
            b = broadcasts.get(k)
            if bad is None and client in honest and (b is None or b.time > event.time):
                bad = (f"delivery of a message {client} never broadcast (or broadcast later)",
                       [event] if b is None else [b, event])
    key = tr.instance_key_from_payload
    order = _prefix_divergence([[(key(e.payload), e) for e in evs] for evs in seqs.values()], quiescent)
    reports = [
        _verdict("tob-no-duplication", dup),
        _verdict("tob-integrity", bad),
        _verdict("tob-total-order", order and ("correct servers' delivery sequences diverge", order),
                 "sequences identical at quiescence" if quiescent
                 else "sequences pairwise prefix-compatible at cutoff"),
    ]
    if not quiescent:
        return reports + [_na("tob-validity", "run was cut before quiescence")]
    if not run.events:  # no event could witness a missing broadcast
        return reports + [_na("tob-validity", "the trace has no events")]
    checked = 0
    for client in cfg.correct_clients:
        for message_hex in cfg.scripts[client]:
            checked += 1
            b = broadcasts.get((client, message_hex))
            delivered = run.last_delivery.get((client, message_hex), {})
            missing = [s for s in seqs if s not in delivered]
            if b is not None and not missing:
                continue
            detail = f"broadcast ({client}, 0x{message_hex}) not delivered by {missing}"
            if b is not None:
                return reports + [_fail("tob-validity", detail, [b])]
            # witness: the message's deliveries, else the run's last event
            mine = [e for evs in seqs.values() for e in evs
                    if e.payload["message"] == message_hex and e.payload["client"] == client]
            return reports + [_fail("tob-validity", detail + " (broadcast event missing)", mine or [run.last])]
    return reports + [_ok("tob-validity", f"{checked} broadcast(s) delivered everywhere")]


# ---------------------------------------------------------------- consensus


def _consensus(run: CheckPass) -> list[CheckReport]:
    cfg, need, per = run.cfg, run.cfg.f + 1, run.instances
    reports: list[CheckReport] = []
    for key in sorted(per, key=_fmt_key):
        entry = per[key]
        proposes, decides = entry[tr.PROPOSE], entry[tr.DECIDE]
        label = f"instance {_fmt_key(key)}"  # one string object shared by the instance's reports
        reports.append(_check_one_decide_per_server("consensus-integrity", label, decides, "decides"))
        reports.append(_check_one_value("consensus-agreement", label, decides, "both values decided"))
        values = {v for _s, v, _e in decides}
        rep_fail = None
        for decided in sorted(values):
            supporters = {s for s, v, _e in proposes if v == decided}
            if len(supporters) < need:
                rep_fail = (f"{label}: decided {decided} with only {len(supporters)} correct proposer(s), "
                            f"need {need}", [next(e for _s, v, e in decides if v == decided)])
                break
        reports.append(_verdict("consensus-representative-validity", rep_fail,
                                label + ("" if values else ": nothing decided")))
        reports.append(_check_termination("consensus-termination", label, proposes, decides, cfg,
                                          "only {}/{} correct servers proposed", "never decided at quiescence"))
        reports.extend(_check_dep(entry, label, cfg))
    return reports


def _check_dep(entry, label: str, cfg: CheckerConfig) -> list[CheckReport]:
    dep_proposals, dep_decides = entry[tr.DEP_PROPOSE], entry[tr.DEP_DECIDE]
    if not dep_proposals and not dep_decides:
        return []
    allowed = {v for _s, v, _e in dep_proposals}
    stray = next((e for _s, v, e in dep_decides if v not in allowed), None)
    return [
        _verdict("dep-weak-validity",
                 stray and (f"{label}: dep decided a value no correct server dep-proposed", [stray]), label),
        _check_one_value("dep-agreement", label, dep_decides, "dep decided both values"),
        _check_one_decide_per_server("dep-integrity", label, dep_decides, "dep decide indications"),
        _check_termination("dep-termination", label, dep_proposals, dep_decides, cfg,
                           "not every correct server dep-proposed", "got no dep decide indication"),
    ]


# ---------------------------------------------------------------- latency


def _latency(run: CheckPass) -> list[CheckReport]:
    """Good-case latency bounds."""
    cfg = run.cfg
    reason = ("not a good-case run (needs exact_delta, zero drift, no faults)" if not cfg.good_case
              else None if cfg.quiescent else "run was cut before quiescence")
    if reason:
        return [_na("latency-blink", reason), _na("latency-tob", reason)]
    reports = [_blink_latency(run)]
    scripting = [c for c in cfg.correct_clients if cfg.scripts[c]]
    if cfg.kind != "flutter" or not scripting:
        return reports + [_na("latency-tob", "no broadcast script in this run")]
    if any(cfg.delta_estimates[c] != cfg.delta for c in scripting):
        return reports + [_na("latency-tob", "a client's delay estimate differs from the true delta")]
    scripted = {(c, m) for c in scripting for m in cfg.scripts[c]}
    broadcasts = [b for b in run.kept[tr.BROADCAST] if b.process in cfg.correct_clients]
    for b in broadcasts:
        key = (b.process, b.payload["message"])
        if key not in scripted:
            return reports + [_fail("latency-tob", f"broadcast ({b.process}, 0x{key[1]}) is not in the script", [b])]
        bound = b.time + 2 * cfg.delta + cfg.epsilon
        per_server = run.last_delivery.get(key, {})
        for server in cfg.correct_servers:
            event = per_server.get(server)
            if event is None:
                return reports + [_fail("latency-tob", f"{server} never delivered broadcast at t={b.time}", [b])]
            if event.time != bound:
                return reports + [
                    _fail("latency-tob", f"delivery at t={event.time}, bound is exactly t={bound}", [b, event])
                ]
    return reports + [
        _ok("latency-tob", f"all deliveries exactly at t+2*delta+epsilon for {len(broadcasts)} broadcast(s)")
    ]


def _blink_latency(run: CheckPass) -> CheckReport:
    cfg, unanimous = run.cfg, 0
    for key, entry in run.instances.items():
        plist, decides = entry[tr.PROPOSE], entry[tr.DECIDE]
        if {s for s, _v, _e in plist} != cfg.correct or len({v for _s, v, _e in plist}) != 1:
            continue
        unanimous += 1
        times = [e.time for _s, _v, e in plist]
        deadline = max(times) + cfg.delta
        exact = min(times) == max(times)
        for _s, _v, event in decides:
            if event.time > deadline or (exact and event.time != deadline):
                want = f"exactly t={deadline}" if exact else f"at most t={deadline}"
                return _fail("latency-blink", f"instance {_fmt_key(key)}: decide at t={event.time}, expected {want}",
                             [plist[-1][2], event])
        missing = cfg.correct - {s for s, _v, _e in decides}
        if missing:
            return _fail("latency-blink", f"instance {_fmt_key(key)}: {sorted(missing)} never decided", [plist[0][2]])
    if unanimous == 0:
        return _na("latency-blink", "no unanimous instance in this run")
    return _ok("latency-blink", f"{unanimous} unanimous instance(s) decided within one delta")


# ---------------------------------------------------------------- server replay


def _lock_rank(values, f: int):
    """Largest t that at least 4f+1 entries reach: the (4f+1)-th largest entry."""
    ranked = sorted(values)
    q = quorum_large(f)
    return ranked[-q] if len(ranked) >= q else NEG_INF


class _ServerReplay:
    """One correct server's ordering state, rebuilt from its inputs; tuples are (bet, client, message) keys.

    Only a rise of the lock or a Decide makes a candidate processable, so the replay drains on those two.
    """

    def __init__(self, name: str, servers: list[str], f: int):
        self.name = name
        self.f = f
        self.large = quorum_large(f)  # the 4f+1 entries above the lock that raise it
        self.remote_times: dict[str, int | float] = dict.fromkeys(servers, NEG_INF)
        self.lock = NEG_INF  # _lock_rank of remote_times; it cannot move until 4f+1 entries lie above it
        self.above = 0  # entries strictly above the lock; fewer than 4f+1 between Times
        self.candidates: set[tuple] = set()
        self.pending: list[tuple] = []  # heap of candidates not yet processed
        self.decisions: dict[tuple, bool] = {}
        self.orders: list[tuple[tuple, tr.TraceEvent | tuple]] = []  # (tuple, the Decide or Time input that took it)

    def time(self, src: str, time: int, event: tuple) -> None:
        """A Time from server `src`: its entry rises, and with it the lock once 4f+1 entries lie above the lock."""
        old, lock = self.remote_times[src], self.lock
        if time <= old:
            return
        self.remote_times[src] = time
        if old <= lock < time:
            self.above += 1
            if self.above >= self.large:
                new = self.lock = _lock_rank(self.remote_times.values(), self.f)  # a rise: 4f+1 entries lie above
                self.above = sum(v > new for v in self.remote_times.values())
                self.drain(event)

    def spot(self, t: tuple) -> None:
        if t[0] > self.lock and t not in self.candidates:  # a new candidate lies above the lock
            self.candidates.add(t)
            heapq.heappush(self.pending, t)

    def drain(self, event: tr.TraceEvent | tuple) -> None:
        # Entries only rise, so neither does the lock fall: a candidate admitted
        # above the lock lies above every tuple processed before it.
        pending = self.pending
        while pending:
            best = pending[0]
            if best not in self.decisions or best[0] > self.lock:
                return
            heapq.heappop(pending)
            if self.decisions[best]:
                self.orders.append((best, event))


class _ServerInvariants:
    """Routes each correct server's inputs to its replay, and reports on the replays.

    A server takes its own Time in the step it sends it, so its replay takes it from that send call.
    """

    def __init__(self, cfg: CheckerConfig):
        self.clients = set(cfg.clients)
        self.lock_within_local = cfg.lock_within_local  # zero drift: local time is global time
        self.replays = {s: _ServerReplay(s, cfg.servers, cfg.f) for s in cfg.correct_servers}
        self.vs_local: tuple[str, list] | None = None  # the first (detail, witness) of a lock past local time
        self.decided_true: dict[tuple, tr.TraceEvent] = {}

    def _vs_local(self, replay: _ServerReplay, now: int, witness: tuple) -> None:
        """Book `server-lock-vs-local`'s first failure: a lock that just passed local time, when it must not."""
        if replay.lock > now and self.vs_local is None:
            self.vs_local = (f"lock time passed local time at {replay.name}", [witness])

    def sends(self, time: int, src: str, dsts, msg: dict) -> None:
        if msg["kind"] == "Time" and (replay := self.replays.get(src)) is not None:
            replay.time(src, msg["time"], witness := (time, src, dsts[0], msg))
            if self.lock_within_local:
                self._vs_local(replay, time, witness)

    def deliver(self, run: list) -> None:
        replays, clients, within_local = self.replays, self.clients, self.lock_within_local
        for delivery in run:
            time, dst, payload = delivery
            msg = payload["msg"]
            kind = msg["kind"]
            if (replay := replays.get(dst)) is None:
                continue
            src = payload["src"]
            if src in replay.remote_times:
                if kind == "Time":
                    replay.time(src, msg["time"], delivery)
                    if within_local:
                        self._vs_local(replay, time, delivery)
                elif kind == "Suggest" and (t := tr.instance_key_from_payload(msg["instance"]))[0] != "label":
                    replay.spot(t)  # a Suggest on t spots t
            elif kind == "Message" and src in clients:
                replay.spot((msg["bet"], src, msg["message"]))

    def event(self, event: tr.TraceEvent) -> None:
        if event.kind != tr.DECIDE or (replay := self.replays.get(event.process)) is None:
            return
        if (t := tr.instance_key_from_payload(event.payload["instance"]))[0] != "label":
            replay.decisions[t] = value = event.payload["value"]
            replay.drain(event)
            if value:
                self.decided_true.setdefault(t, event)

    def finish(self, run: CheckPass) -> list[CheckReport]:
        replays, quiescent = self.replays.values(), run.cfg.quiescent
        if not self.lock_within_local:
            reports = [_na("server-lock-vs-local", "needs all-correct Time senders and zero drift")]
        else:
            reports = [_verdict("server-lock-vs-local", self.vs_local)]
        if not quiescent:
            reports.append(_na("server-candidate-completeness", "run was cut before quiescence"))
        else:
            miss = next(((r.name, e) for t, e in self.decided_true.items() for r in replays
                         if t not in r.candidates), None)
            reports.append(_verdict("server-candidate-completeness",
                                    miss and (f"tuple decided True is no candidate at {miss[0]}", [miss[1]]),
                                    f"{len(self.decided_true)} accepted tuple(s)"))
        seqs = [run.sequences[name] for name in self.replays]
        key = tr.instance_key_from_payload
        asc = next((b for evs in seqs for a, b in zip(evs, evs[1:]) if not key(a.payload) < key(b.payload)), None)
        reports.append(_verdict("server-order-ascending",
                                asc and (f"{asc.process} app-delivered tuples out of ascending order", [asc])))
        agree = _prefix_divergence([r.orders for r in replays], quiescent)
        reports.append(_verdict("server-order-agreement",
                                agree and ("servers processed accepted tuples in different orders", agree)))
        match_fail = None
        for replay, app_delivers in zip(replays, seqs):
            first: dict[tuple[str, str], tuple] = {}  # (client, message) -> its first tuple ordered, in order
            for t, _e in replay.orders:
                first.setdefault(t[1:], t)
            if list(first.values()) != [key(e.payload) for e in app_delivers]:
                extra = app_delivers or [o[1] for o in replay.orders]
                match_fail = (f"{replay.name}: app deliveries disagree with replayed ordering", extra[:2])
                break
        reports.append(_verdict("server-order-matches-appdeliver", match_fail))
        return reports


# ---------------------------------------------------------------- network


class _Link(deque):
    """One (src, dst) link: the (time, msg) of its Sends not yet delivered, in order. No __init__: built in C."""

    __slots__ = ("last",)  # set by its creator: the last pair's delivery time (0 before any), None once a pair failed


class _Network:
    """Pairs the k-th Send on a link with its k-th Deliver; holds a Send only until then.

    Each property keeps its own first failure, in trace order.
    """

    def __init__(self, cfg: CheckerConfig):
        self.delta = cfg.delta
        self.exact = cfg.strategy == "exact_delta"
        self.links: list[tuple[str, str, _Link]] = []  # (src, dst, link), in order of each link's first Send
        self.by_src: defaultdict[str, dict[str, _Link]] = defaultdict(dict)  # src -> dst -> the same links
        self.fails: dict[str, tuple[str, list]] = {}  # property -> its first (detail, witness)

    def sends(self, time: int, src: str, dsts, msg: dict) -> None:
        links, sent = self.by_src[src], (time, msg)
        for dst in dsts:
            link = links.get(dst)
            if link is None:
                link = links[dst] = _Link()
                link.last = 0
                self.links.append((src, dst, link))
            link.append(sent)

    def deliver(self, run: list) -> None:
        by_src, fails, delta, exact = self.by_src, self.fails, self.delta, self.exact
        for delivery in run:
            t, dst, payload = delivery
            src = payload["src"]
            link = by_src[src].get(dst)
            if not link:  # no link, or none of its Sends pending
                fails.setdefault("net-fifo", ("delivery without a matching send", [delivery]))
                continue
            s_time, s_msg = link.popleft()
            if link.last is None:
                continue
            d_msg = payload["msg"]
            dt = t - s_time
            if s_msg is not d_msg and s_msg != d_msg:  # `is` is sound: this pass holds s_msg until now
                fail = ("net-fifo", "deliveries out of send order", True)
            elif t < link.last:
                fail = ("net-fifo", "delivery times decreased along a link", False)
            elif dt < 1 or (t > s_time + delta and t > link.last):
                fail = ("net-delay-bounds", f"delay {dt} outside [1, {delta}] (after FIFO repair)", True)
            elif exact and dt != delta:
                fail = ("net-delay-bounds", f"exact_delta delivered after {dt} ticks, not {delta}", True)
            else:
                link.last = t
                continue
            link.last = None
            prop, detail, with_send = fail
            if prop not in fails:
                fails[prop] = (detail, [tr.send_event(s_time, src, dst, s_msg), delivery] if with_send else [delivery])

    def finish(self, run: CheckPass) -> list[CheckReport]:
        if "net-fifo" not in self.fails and run.cfg.quiescent:
            stuck = next(((src, dst, link[0]) for src, dst, link in self.links if link), None)
            if stuck:
                src, dst, (time, msg) = stuck
                self.fails["net-fifo"] = ("send never delivered by quiescence", [tr.send_event(time, src, dst, msg)])
        return [_verdict(prop, self.fails.get(prop)) for prop in ("net-fifo", "net-delay-bounds")]


# ---------------------------------------------------------------- metrics and complexity


def suggest_limit(n: int) -> int:
    """The most Suggest sends correct servers make per instance: one Suggest each, to each of the n-1 others."""
    return n * (n - 1)


class Metrics:
    """A run's traffic, broadcast and instance counts (`summary`), and its suggest-complexity report."""

    def __init__(self, cfg: CheckerConfig):
        self.n = cfg.n
        self.correct = cfg.correct
        self.sends_by_kind: dict[str, int] = {}
        self.total_bits = 0  # framing, plus the body of a Message or Decision (a tuple Suggest's is uncounted)
        self.suggests: dict[object, int] = {}  # correct servers' Suggest sends per instance
        self.last_suggest: dict[object, tuple] = {}  # instance -> its last Suggest copy's (time, src, dst, msg)
        self.attempts: dict[tuple[str, str], set[int]] = {}

    def sends(self, time: int, src: str, dsts, msg: dict) -> None:
        copies, kind = len(dsts), msg["kind"]
        self.sends_by_kind[kind] = self.sends_by_kind.get(kind, 0) + copies
        self.total_bits += copies * 8 * (_WIRE_OVERHEAD_BYTES + len(msg.get("message", "")) // 2)
        if kind == "Suggest" and src in self.correct:
            key = tr.instance_key_from_payload(msg["instance"])
            self.suggests[key] = self.suggests.get(key, 0) + copies
            self.last_suggest[key] = (time, src, dsts[-1], msg)
        elif kind == "Message":
            self.attempts.setdefault((src, msg["message"]), set()).add(msg["bet"])

    def finish(self, run: CheckPass) -> list[CheckReport]:
        """Correct servers' Suggest traffic stays within `suggest_limit(n)` sends per instance."""
        limit = suggest_limit(self.n)
        top = max(self.suggests.values(), default=0)
        over = next((key for key, count in self.suggests.items() if count > limit), None)
        if over is not None:
            detail = f"{self.suggests[over]} Suggest sends from correct servers exceeds n(n-1)={limit}"
            return [_fail("suggest-complexity", f"instance {_fmt_key(over)}: {detail}",
                          [tr.send_event(*self.last_suggest[over])])]
        return [_ok("suggest-complexity", f"max {top} Suggest sends per instance (limit {limit})")]

    def summary(self, run: CheckPass) -> dict:
        per_broadcast = []
        for event in run.kept[tr.BROADCAST]:
            client, message, at = event.process, event.payload["message"], event.time
            deliveries = run.last_delivery.get((client, message), {})
            done = all(s in deliveries for s in self.correct)
            per_broadcast.append(
                {
                    "client": client,
                    "message": message,
                    "time": at,
                    "attempts": len(self.attempts.get((client, message), set())),
                    "delivered_everywhere": done,
                    "latency": max(e.time for e in deliveries.values()) - at if done and deliveries else None,
                }
            )
        return {
            "final_time": run.final_time,
            "quiescent": run.cfg.quiescent,
            "events": run.events,
            "sends_by_kind": dict(sorted(self.sends_by_kind.items())),
            "total_bits": self.total_bits,
            "consensus_instances": len({tr.instance_key_from_payload(event.payload["instance"])
                                        for event in run.kept[tr.PROPOSE] if event.process in self.correct}),
            "max_suggest_sends_per_instance": max(self.suggests.values(), default=0),
            "per_broadcast": per_broadcast,
        }


# ---------------------------------------------------------------- drivers


def check_pass(cfg: CheckerConfig, sink=None) -> CheckPass:
    """A pass of every checker `run_all_checks` runs, in its order, and the run's `Metrics`, each call after `sink`."""
    flutter = cfg.kind == "flutter"
    return CheckPass(cfg, [_tob] * flutter + [_consensus, _latency] + [_ServerInvariants] * flutter
                     + [_Network, Metrics], sink)


def check_tob(trace, cfg: CheckerConfig) -> list[CheckReport]:
    return CheckPass(cfg, [_tob]).run(trace).finish(cfg.quiescent)


def check_consensus(trace, cfg: CheckerConfig) -> list[CheckReport]:
    return CheckPass(cfg, [_consensus]).run(trace).finish(cfg.quiescent)


def check_latency(trace, cfg: CheckerConfig) -> list[CheckReport]:
    return CheckPass(cfg, [_latency]).run(trace).finish(cfg.quiescent)


def check_server_invariants(trace, cfg: CheckerConfig) -> list[CheckReport]:
    return CheckPass(cfg, [_ServerInvariants]).run(trace).finish(cfg.quiescent)


def check_network(trace, cfg: CheckerConfig) -> list[CheckReport]:
    return CheckPass(cfg, [_Network]).run(trace).finish(cfg.quiescent)


def check_complexity(trace, cfg: CheckerConfig) -> CheckReport:
    return CheckPass(cfg, [Metrics]).run(trace).finish(cfg.quiescent)[0]


def run_all_checks(trace, cfg: CheckerConfig) -> list[CheckReport]:
    return check_pass(cfg).run(trace).finish(cfg.quiescent)
