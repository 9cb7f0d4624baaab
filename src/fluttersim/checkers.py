"""Post-hoc trace checkers for every property the protocols promise.

Checkers are pure functions of a finished trace plus the scenario-derived
config: same trace, same reports. Liveness properties are only decided at
quiescence; a run cut at a deadline reports NotApplicable for them, since
a finite prefix cannot refute "eventually". Server-side invariants are
checked by replaying each server's delivery stream through an independent
minimal state machine, so a bug in the live implementation cannot hide
itself in the checker.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from . import trace as tr
from .types import NEG_INF, BroadcastTuple, quorum_large

PASS = "Pass"
FAIL = "Fail"
NA = "NotApplicable"


@dataclass
class CheckReport:
    prop: str
    verdict: str
    detail: str = ""
    witness: list[dict] | tuple = ()  # Fail reports only; the others share one empty tuple

    def to_dict(self) -> dict:
        return {
            "property": self.prop,
            "verdict": self.verdict,
            "detail": self.detail,
            "witness": self.witness,
        }


def _ev(event: tr.TraceEvent) -> dict:
    return {
        "time": event.time,
        "process": event.process,
        "kind": event.kind,
        "payload": event.payload,
    }


def _ok(prop: str, detail: str = "") -> CheckReport:
    return CheckReport(prop, PASS, detail)


def _fail(prop: str, detail: str, witness: list[tr.TraceEvent]) -> CheckReport:
    assert witness, "a Fail verdict must carry a witness"
    return CheckReport(prop, FAIL, detail, [_ev(w) for w in witness])


def _na(prop: str, reason: str) -> CheckReport:
    return CheckReport(prop, NA, reason)


def _fmt_key(key) -> str:
    if key[0] == "label":
        return f"label:{key[1]}"
    client, message, bet = key
    return f"({client}, 0x{message}, bet={bet})"


def _tuple_of(payload: dict) -> BroadcastTuple | None:
    """The tuple a rendered instance or Observe payload names; None for a label."""
    if "label" in payload:
        return None
    return BroadcastTuple(payload["client"], bytes.fromhex(payload["message"]), payload["bet"])


def _prefix_divergence(seqs: list[list[tuple[object, tr.TraceEvent]]], quiescent: bool):
    """Witness events where two (key, event) sequences first diverge, else None.

    Before quiescence a sequence may be a strict prefix of another; at
    quiescence that counts as divergence too.
    """
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
    by_server: dict[str, list[tr.TraceEvent]] = {}
    for server, _v, event in decides:
        by_server.setdefault(server, []).append(event)
    twice = next((evs for evs in by_server.values() if len(evs) > 1), None)
    if twice:
        return _fail(prop, f"{label}: two {what} at one server", twice[:2])
    return _ok(prop, label)


def _check_one_value(prop: str, label: str, decides, what: str) -> CheckReport:
    """Not both True and False among `decides` ((server, value, event) triples)."""
    one = next((e for _s, v, e in decides if v), None)
    other = next((e for _s, v, e in decides if not v), None)
    if one and other:
        return _fail(prop, f"{label}: {what}", [one, other])
    return _ok(prop, label)


@dataclass
class CheckerConfig:
    kind: str
    n: int
    f: int
    delta: int
    drift: int
    strategy: str
    servers: list[str]
    correct_servers: list[str]
    clients: list[str]
    honest_clients: list[str]
    correct_clients: list[str]
    quiescent: bool
    broadcast_scripts: dict[str, list[tuple[str, int, int]]]  # client -> (msg hex, est, eps)

    @classmethod
    def from_scenario(cls, scenario, quiescent: bool) -> "CheckerConfig":
        return cls(
            kind=scenario.kind,
            n=scenario.n,
            f=scenario.f,
            delta=scenario.delta,
            drift=scenario.drift,
            strategy=scenario.network.strategy,
            servers=scenario.servers,
            correct_servers=scenario.correct_servers,
            clients=scenario.client_names,
            honest_clients=scenario.honest_clients(),
            correct_clients=scenario.correct_clients(),
            quiescent=quiescent,
            broadcast_scripts={
                c.name: [(b.message.hex(), b.delta_estimate, b.epsilon) for b in c.broadcasts]
                for c in scenario.clients
            },
        )

    @property
    def good_case(self) -> bool:
        return (
            self.strategy == "exact_delta"
            and self.drift == 0
            and len(self.correct_servers) == self.n
            and self.correct_clients == self.clients
        )

    @property
    def lock_within_local(self) -> bool:
        """Whether every lock must stay within local time: all servers correct, zero drift."""
        return len(self.correct_servers) == self.n and self.drift == 0


# ---------------------------------------------------------------- TOB


def check_tob(trace: list[tr.TraceEvent], cfg: CheckerConfig) -> list[CheckReport]:
    reports: list[CheckReport] = []
    seqs: dict[str, list[tr.TraceEvent]] = {s: [] for s in cfg.correct_servers}
    broadcasts: dict[tuple[str, str], tr.TraceEvent] = {}
    for event in trace:
        if event.kind == tr.APP_DELIVER and event.process in seqs:
            seqs[event.process].append(event)
        elif event.kind == tr.BROADCAST:
            broadcasts.setdefault((event.process, event.payload["message"]), event)

    dup = None
    for evs in seqs.values():
        seen: dict[tuple[str, str], tr.TraceEvent] = {}
        for event in evs:
            k = (event.payload["client"], event.payload["message"])
            if k in seen:
                dup = (seen[k], event)
                break
            seen[k] = event
        if dup:
            break
    if dup:
        reports.append(
            _fail("tob-no-duplication", f"{dup[1].process} delivered {dup[1].payload} twice", list(dup))
        )
    else:
        reports.append(_ok("tob-no-duplication"))

    honest = set(cfg.honest_clients)
    bad = None
    for evs in seqs.values():
        for event in evs:
            client = event.payload["client"]
            if client not in honest:
                continue
            b = broadcasts.get((client, event.payload["message"]))
            if b is None or b.time > event.time:
                bad = ([event] if b is None else [b, event], client)
                break
        if bad:
            break
    if bad:
        reports.append(
            _fail("tob-integrity", f"delivery of a message {bad[1]} never broadcast (or broadcast later)", bad[0])
        )
    else:
        reports.append(_ok("tob-integrity"))

    keyed = [
        [((e.payload["client"], e.payload["message"], e.payload["bet"]), e) for e in evs] for evs in seqs.values()
    ]
    order_fail = _prefix_divergence(keyed, cfg.quiescent)
    if order_fail:
        reports.append(_fail("tob-total-order", "correct servers' delivery sequences diverge", order_fail))
    elif cfg.quiescent:
        reports.append(_ok("tob-total-order", "sequences identical at quiescence"))
    else:
        reports.append(_ok("tob-total-order", "sequences pairwise prefix-compatible at cutoff"))

    if not cfg.quiescent:
        reports.append(_na("tob-validity", "run was cut before quiescence"))
        return reports
    delivered: dict[str, set[tuple[str, str]]] = {
        s: {(e.payload["client"], e.payload["message"]) for e in evs} for s, evs in seqs.items()
    }
    validity_fail = None
    checked = 0
    for client in cfg.correct_clients:
        for message_hex, estimate, _eps in cfg.broadcast_scripts.get(client, []):
            if estimate < 1:
                continue  # degenerate estimate: backoff cannot grow, bound does not apply
            checked += 1
            b = broadcasts.get((client, message_hex))
            missing = [s for s in seqs if (client, message_hex) not in delivered[s]]
            if b is None or missing:
                detail = f"broadcast ({client}, 0x{message_hex}) not delivered by {missing}"
                if b is None:  # witness: the message's deliveries, else the run's last event
                    mine = [e for evs in seqs.values() for e in evs if e.payload["message"] == message_hex
                            and e.payload["client"] == client]
                    validity_fail = _fail("tob-validity", detail + " (broadcast event missing)", mine or trace[-1:])
                else:
                    validity_fail = _fail("tob-validity", detail, [b])
                break
        if validity_fail:
            break
    reports.append(validity_fail or _ok("tob-validity", f"{checked} broadcast(s) delivered everywhere"))
    return reports


# ---------------------------------------------------------------- consensus


def check_consensus(trace: list[tr.TraceEvent], cfg: CheckerConfig) -> list[CheckReport]:
    correct = set(cfg.correct_servers)
    per: dict[object, dict[str, list[tuple[str, bool, tr.TraceEvent]]]] = {}

    def slot(key):
        entry = per.get(key)
        if entry is None:
            entry = per[key] = {"propose": [], "decide": [], "dep_propose": [], "dep_decide": []}
        return entry

    kinds = {
        tr.PROPOSE: "propose",
        tr.DECIDE: "decide",
        tr.DEP_PROPOSE: "dep_propose",
        tr.DEP_DECIDE: "dep_decide",
    }
    for event in trace:
        bucket = kinds.get(event.kind)
        if bucket is None or event.process not in correct:
            continue
        key = tr.instance_key_from_payload(event.payload["instance"])
        slot(key)[bucket].append((event.process, event.payload["value"], event))

    reports: list[CheckReport] = []
    for key in sorted(per, key=repr):
        entry = per[key]
        label = f"instance {_fmt_key(key)}"  # one string object shared by the instance's reports
        reports.append(_check_one_decide_per_server("consensus-integrity", label, entry["decide"], "decides"))
        reports.append(_check_one_value("consensus-agreement", label, entry["decide"], "both values decided"))

        values = {v for _s, v, _e in entry["decide"]}
        rep_fail = None
        for decided in sorted(values):
            supporters = {s for s, v, _e in entry["propose"] if v == decided}
            if len(supporters) < cfg.f + 1:
                witness = next(e for _s, v, e in entry["decide"] if v == decided)
                rep_fail = _fail(
                    "consensus-representative-validity",
                    f"{label}: decided {decided} with only {len(supporters)} correct proposer(s), "
                    f"need {cfg.f + 1}",
                    [witness],
                )
                break
        if rep_fail:
            reports.append(rep_fail)
        else:
            detail = label + ("" if values else ": nothing decided")
            reports.append(_ok("consensus-representative-validity", detail))

        proposers = {s for s, _v, _e in entry["propose"]}
        deciders = {s for s, _v, _e in entry["decide"]}
        if not cfg.quiescent:
            reports.append(_na("consensus-termination", f"{label}: run was cut before quiescence"))
        elif proposers != correct:
            reports.append(
                _na("consensus-termination", f"{label}: only {len(proposers)}/{len(correct)} correct servers proposed")
            )
        elif deciders != correct:
            missing = sorted(correct - deciders)
            witness = [entry["propose"][0][2]]
            reports.append(
                _fail("consensus-termination", f"{label}: {missing} never decided at quiescence", witness)
            )
        else:
            reports.append(_ok("consensus-termination", label))

        reports.extend(_check_dep(entry, label, correct, cfg.quiescent))
    return reports


def _check_dep(entry, label: str, correct: set[str], quiescent: bool) -> list[CheckReport]:
    reports: list[CheckReport] = []
    dep_proposals = entry["dep_propose"]
    dep_decides = entry["dep_decide"]
    if not dep_proposals and not dep_decides:
        return reports

    allowed = {v for _s, v, _e in dep_proposals}
    stray = next((e for _s, v, e in dep_decides if v not in allowed), None)
    if stray:
        reports.append(
            _fail("dep-weak-validity", f"{label}: dep decided a value no correct server dep-proposed", [stray])
        )
    else:
        reports.append(_ok("dep-weak-validity", label))

    reports.append(_check_one_value("dep-agreement", label, dep_decides, "dep decided both values"))
    reports.append(_check_one_decide_per_server("dep-integrity", label, dep_decides, "dep decide indications"))

    proposers = {s for s, _v, _e in dep_proposals}
    deciders = {s for s, _v, _e in dep_decides}
    if not quiescent:
        reports.append(_na("dep-termination", f"{label}: run was cut before quiescence"))
    elif proposers != correct:
        reports.append(_na("dep-termination", f"{label}: not every correct server dep-proposed"))
    elif deciders != correct:
        missing = sorted(correct - deciders)
        reports.append(
            _fail("dep-termination", f"{label}: {missing} got no dep decide indication", [dep_proposals[0][2]])
        )
    else:
        reports.append(_ok("dep-termination", label))
    return reports


# ---------------------------------------------------------------- latency


def check_latency(trace: list[tr.TraceEvent], cfg: CheckerConfig) -> list[CheckReport]:
    if not cfg.good_case:
        reason = "not a good-case run (needs exact_delta, zero drift, no faults)"
        return [_na("latency-blink", reason), _na("latency-tob", reason)]
    if not cfg.quiescent:
        reason = "run was cut before quiescence"
        return [_na("latency-blink", reason), _na("latency-tob", reason)]
    reports = [_check_blink_latency(trace, cfg)]

    scripts = [e for c in cfg.correct_clients for e in cfg.broadcast_scripts.get(c, [])]
    if cfg.kind != "flutter" or not scripts:
        reports.append(_na("latency-tob", "no broadcast script in this run"))
        return reports
    if any(est != cfg.delta for _m, est, _e in scripts):
        reports.append(_na("latency-tob", "a client's delay estimate differs from the true delta"))
        return reports
    epsilons = {(c, m): eps for c in cfg.correct_clients for m, _est, eps in cfg.broadcast_scripts.get(c, [])}
    delivered: dict[tuple[str, str], dict[str, tr.TraceEvent]] = {}
    broadcast_evs: list[tr.TraceEvent] = []
    for event in trace:
        if event.kind == tr.BROADCAST and event.process in cfg.correct_clients:
            broadcast_evs.append(event)
        elif event.kind == tr.APP_DELIVER:
            delivered.setdefault((event.payload["client"], event.payload["message"]), {})[event.process] = event
    for b in broadcast_evs:
        eps = epsilons[(b.process, b.payload["message"])]
        bound = b.time + 2 * cfg.delta + eps
        per_server = delivered.get((b.process, b.payload["message"]), {})
        for server in cfg.correct_servers:
            event = per_server.get(server)
            if event is None:
                return reports + [
                    _fail("latency-tob", f"{server} never delivered broadcast at t={b.time}", [b])
                ]
            if event.time != bound:
                return reports + [
                    _fail("latency-tob", f"delivery at t={event.time}, bound is exactly t={bound}", [b, event])
                ]
    reports.append(_ok("latency-tob", f"all deliveries exactly at t+2*delta+epsilon for {len(broadcast_evs)} broadcast(s)"))
    return reports


def _check_blink_latency(trace: list[tr.TraceEvent], cfg: CheckerConfig) -> CheckReport:
    proposes: dict[object, list[tuple[str, bool, tr.TraceEvent]]] = {}
    decides: dict[object, list[tr.TraceEvent]] = {}
    for event in trace:
        if event.kind == tr.PROPOSE:
            key = tr.instance_key_from_payload(event.payload["instance"])
            proposes.setdefault(key, []).append((event.process, event.payload["value"], event))
        elif event.kind == tr.DECIDE:
            key = tr.instance_key_from_payload(event.payload["instance"])
            decides.setdefault(key, []).append(event)
    unanimous = 0
    for key, plist in proposes.items():
        if {s for s, _v, _e in plist} != set(cfg.correct_servers):
            continue
        if len({v for _s, v, _e in plist}) != 1:
            continue
        unanimous += 1
        times = [e.time for _s, _v, e in plist]
        last = max(times)
        deadline = last + cfg.delta
        exact = min(times) == last
        for event in decides.get(key, []):
            if event.time > deadline or (exact and event.time != deadline):
                want = f"exactly t={deadline}" if exact else f"at most t={deadline}"
                return _fail(
                    "latency-blink",
                    f"instance {_fmt_key(key)}: decide at t={event.time}, expected {want}",
                    [plist[-1][2], event],
                )
        missing = set(cfg.correct_servers) - {e.process for e in decides.get(key, [])}
        if missing:
            return _fail(
                "latency-blink",
                f"instance {_fmt_key(key)}: {sorted(missing)} never decided",
                [plist[0][2]],
            )
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
    def __init__(self, cfg: CheckerConfig, name: str, observed: dict[int, BroadcastTuple]):
        self.cfg = cfg
        self.name = name
        self.observed = observed  # id(Observe msg dict) -> its tuple, shared by all replays
        self.remote_times: dict[str, int | float] = {s: NEG_INF for s in cfg.servers}
        self.lock = _lock_rank(self.remote_times.values(), cfg.f)  # redone when an entry changes
        self.candidates: set[BroadcastTuple] = set()
        self.pending: list[BroadcastTuple] = []  # heap of candidates not yet processed
        self.decisions: dict[BroadcastTuple, bool] = {}
        self.lock_within_local = cfg.lock_within_local  # zero drift: local time is global time
        self.orders: list[tuple[BroadcastTuple, tr.TraceEvent]] = []
        self.app_delivers: list[tr.TraceEvent] = []

    def _spot(self, t: BroadcastTuple) -> None:
        if t.bet > self.lock and t not in self.candidates:
            self.candidates.add(t)
            heapq.heappush(self.pending, t)

    def _drain(self, event: tr.TraceEvent) -> None:
        # Entries only rise, so neither does the lock fall: a candidate admitted
        # above the lock lies above every tuple processed before it.
        while self.pending:
            best = self.pending[0]
            if best not in self.decisions or best.bet > self.lock:
                return
            heapq.heappop(self.pending)
            if self.decisions[best]:
                self.orders.append((best, event))

    def feed(self, event: tr.TraceEvent) -> str | None:
        """Returns an invariant name on violation, else None."""
        if event.kind == tr.APP_DELIVER:
            self.app_delivers.append(event)
            return None
        if event.kind == tr.DECIDE:
            t = _tuple_of(event.payload["instance"])
            if t is not None:
                self.decisions[t] = event.payload["value"]
                self._drain(event)
            return None
        if event.kind != tr.DELIVER:
            return None
        src = event.payload["src"]
        msg = event.payload["msg"]
        kind = msg["kind"]
        if kind == "Time" and src in self.remote_times:
            before = self.lock
            if msg["time"] > self.remote_times[src]:
                self.remote_times[src] = msg["time"]
                self.lock = _lock_rank(self.remote_times.values(), self.cfg.f)
            after = self.lock
            if after < before:
                return "server-lock-monotonic"
            if self.lock_within_local and after > event.time:
                return "server-lock-vs-local"
            self._drain(event)
        elif kind == "Observe" and src in self.remote_times:
            t = self.observed.get(id(msg))
            if t is None:  # an Observe broadcast shares one dict: parse it once
                t = self.observed[id(msg)] = _tuple_of(msg)
            self._spot(t)
            self._drain(event)
        elif kind == "Message" and src in self.cfg.clients:
            self._spot(BroadcastTuple(src, bytes.fromhex(msg["message"]), msg["bet"]))
            self._drain(event)
        return None


def check_server_invariants(trace: list[tr.TraceEvent], cfg: CheckerConfig) -> list[CheckReport]:
    reports: list[CheckReport] = []
    observed: dict[int, BroadcastTuple] = {}  # id()-keyed: `trace` keeps every dict alive
    replays = {s: _ServerReplay(cfg, s, observed) for s in cfg.correct_servers}
    violation: tuple[str, tr.TraceEvent] | None = None
    for event in trace:
        replay = replays.get(event.process)
        if replay is None:
            continue
        broken = replay.feed(event)
        if broken and violation is None:
            violation = (broken, event)

    if violation and violation[0] == "server-lock-monotonic":
        reports.append(_fail("server-lock-monotonic", f"lock time decreased at {violation[1].process}", [violation[1]]))
    else:
        reports.append(_ok("server-lock-monotonic"))
    if not cfg.lock_within_local:
        reports.append(_na("server-lock-vs-local", "needs all-correct Time senders and zero drift"))
    elif violation and violation[0] == "server-lock-vs-local":
        reports.append(_fail("server-lock-vs-local", f"lock time passed local time at {violation[1].process}", [violation[1]]))
    else:
        reports.append(_ok("server-lock-vs-local"))

    decided_true: dict[BroadcastTuple, tr.TraceEvent] = {}
    for event in trace:
        if event.kind == tr.DECIDE and event.process in replays and event.payload["value"]:
            t = _tuple_of(event.payload["instance"])
            if t is not None:
                decided_true.setdefault(t, event)
    if not cfg.quiescent:
        reports.append(_na("server-candidate-completeness", "run was cut before quiescence"))
    else:
        miss = None
        for t, event in decided_true.items():
            for s, replay in replays.items():
                if t not in replay.candidates:
                    miss = (s, event)
                    break
            if miss:
                break
        if miss:
            reports.append(
                _fail("server-candidate-completeness", f"tuple decided True is no candidate at {miss[0]}", [miss[1]])
            )
        else:
            reports.append(_ok("server-candidate-completeness", f"{len(decided_true)} accepted tuple(s)"))

    asc_fail = None
    for replay in replays.values():
        seq = replay.orders
        for k in range(1, len(seq)):
            if not seq[k - 1][0] < seq[k][0]:
                asc_fail = seq[k][1]
                break
        if asc_fail:
            break
    if asc_fail:
        reports.append(_fail("server-order-ascending", "ordered tuples not strictly increasing", [asc_fail]))
    else:
        reports.append(_ok("server-order-ascending"))

    agree_fail = _prefix_divergence([r.orders for r in replays.values()], cfg.quiescent)
    if agree_fail:
        reports.append(_fail("server-order-agreement", "servers processed accepted tuples in different orders", agree_fail))
    else:
        reports.append(_ok("server-order-agreement"))

    match_fail = None
    for replay in replays.values():
        expect: list[tuple[str, str, int]] = []
        seen_cm: set[tuple[str, bytes]] = set()
        for t, _e in replay.orders:
            if (t.client, t.message) not in seen_cm:
                seen_cm.add((t.client, t.message))
                expect.append((t.client, t.message.hex(), t.bet))
        got = [(e.payload["client"], e.payload["message"], e.payload["bet"]) for e in replay.app_delivers]
        if expect != got:
            extra = replay.app_delivers or [o[1] for o in replay.orders]
            match_fail = (replay.name, extra[:2])
            break
    if match_fail:
        reports.append(
            _fail(
                "server-order-matches-appdeliver",
                f"{match_fail[0]}: app deliveries disagree with replayed ordering",
                match_fail[1],
            )
        )
    else:
        reports.append(_ok("server-order-matches-appdeliver"))
    return reports


# ---------------------------------------------------------------- network


def check_network(trace: list[tr.TraceEvent], cfg: CheckerConfig) -> list[CheckReport]:
    sends: dict[tuple[str, str], list[tr.TraceEvent]] = {}
    delivers: dict[tuple[str, str], list[tr.TraceEvent]] = {}
    for event in trace:
        if event.kind == tr.SEND:
            sends.setdefault((event.process, event.payload["dst"]), []).append(event)
        elif event.kind == tr.DELIVER:
            delivers.setdefault((event.payload["src"], event.process), []).append(event)

    fifo_fail = None
    bound_fail = None
    for link, ds in delivers.items():
        ss = sends.get(link, [])
        if len(ds) > len(ss):
            fifo_fail = ("delivery without a matching send", [ds[len(ss)]])
            break
        last_deliver = 0
        for s_ev, d_ev in zip(ss, ds):
            s_msg, d_msg = s_ev.payload["msg"], d_ev.payload["msg"]
            if s_msg is not d_msg and s_msg != d_msg:
                fifo_fail = ("deliveries out of send order", [s_ev, d_ev])
                break
            if d_ev.time < last_deliver:
                fifo_fail = ("delivery times decreased along a link", [d_ev])
                break
            dt = d_ev.time - s_ev.time
            limit = max(s_ev.time + cfg.delta, last_deliver)
            if dt < 1 or d_ev.time > limit:
                bound_fail = (f"delay {dt} outside [1, {cfg.delta}] (after FIFO repair)", [s_ev, d_ev])
                break
            if cfg.strategy == "exact_delta" and dt != cfg.delta:
                bound_fail = (f"exact_delta delivered after {dt} ticks, not {cfg.delta}", [s_ev, d_ev])
                break
            last_deliver = d_ev.time
        if fifo_fail or bound_fail:
            break
    if not fifo_fail and cfg.quiescent:
        for link, ss in sends.items():
            if len(delivers.get(link, [])) != len(ss):
                fifo_fail = ("send never delivered by quiescence", [ss[len(delivers.get(link, []))]])
                break

    reports = [
        _fail("net-fifo", *fifo_fail) if fifo_fail else _ok("net-fifo"),
        _fail("net-delay-bounds", *bound_fail) if bound_fail else _ok("net-delay-bounds"),
    ]
    return reports


# ---------------------------------------------------------------- complexity


def check_complexity(trace: list[tr.TraceEvent], cfg: CheckerConfig) -> CheckReport:
    """Correct servers' Suggest traffic stays within n^2 sends per instance."""
    correct = set(cfg.correct_servers)
    counts: dict[object, int] = {}
    worst: dict[object, tr.TraceEvent] = {}
    for event in trace:
        if event.kind != tr.SEND or event.process not in correct:
            continue
        msg = event.payload["msg"]
        if msg["kind"] != "Suggest":
            continue
        key = tr.instance_key_from_payload(msg["instance"])
        counts[key] = counts.get(key, 0) + 1
        worst[key] = event
    limit = cfg.n * cfg.n
    for key, count in counts.items():
        if count > limit:
            return _fail(
                "suggest-complexity",
                f"instance {_fmt_key(key)}: {count} Suggest sends from correct servers exceeds n^2={limit}",
                [worst[key]],
            )
    top = max(counts.values(), default=0)
    return _ok("suggest-complexity", f"max {top} Suggest sends per instance (limit {limit})")


def run_all_checks(trace: list[tr.TraceEvent], cfg: CheckerConfig) -> list[CheckReport]:
    reports: list[CheckReport] = []
    if cfg.kind == "flutter":
        reports.extend(check_tob(trace, cfg))
    reports.extend(check_consensus(trace, cfg))
    reports.extend(check_latency(trace, cfg))
    if cfg.kind == "flutter":
        reports.extend(check_server_invariants(trace, cfg))
    reports.extend(check_network(trace, cfg))
    reports.append(check_complexity(trace, cfg))
    return reports
