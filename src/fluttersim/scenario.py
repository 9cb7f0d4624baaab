"""Scenario files: JSON schema, parsing, validation.

A scenario fixes the full experiment: population sizes, delay model,
clock offsets, fault assignments, client scripts, dep policy, budgets.
Parsing is strict: every value goes through one reader per JSON shape
(`_object`, `_list`, `_int`, `_choice`, `_name`, `_hex`), so an unknown
key, a misshapen value or an inconsistent parameter is a ScenarioError
and a typo cannot silently weaken a run. This is the one module that
reads hex: each message body, in a broadcast script or a behavior's
"hex" param, is pairs of hex digits checked by `_hex` and stored
lowercase, so "6D" and "6d" name one message and every later module
compares plain strings. The parsed `Scenario` holds what the run uses.
"""

from __future__ import annotations

import json
import re
from functools import cache
from pathlib import Path

from .adversary import BEHAVIORS
from .errors import ScenarioError
from .types import Record
from .weakcon import POLICIES

_NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
_LABEL_RE = re.compile(r"[A-Za-z0-9_-]+")
_HEX_RE = re.compile(r"(?:[0-9A-Fa-f]{2})+")
_STRATEGIES = ("exact_delta", "seeded_random", "scripted")
_REQUIRED = object()  # `_int`'s default for a key the file must set


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# param type -> (what the error message asks for, test of a JSON value): behaviors declare
# "bool" and "strs", and the network delays and blink script reuse "ints" and "bool";
# "hex" params and choices among values are read by `_hex` and `_choice`
_PARAM_TYPES = {
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "ints": ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))),
    "strs": ("a list of strings", lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
}


MAX_SERVERS = 1000  # server names s000..s999


@cache  # built once per n; a tuple, so no reader can change the shared value
def server_names(n: int) -> tuple[str, ...]:
    return tuple(f"s{i:03d}" for i in range(n))


class BroadcastScript(Record):
    __slots__ = ("at", "message")

    def __init__(self, at: int, message: str):
        self.at = at
        self.message = message  # lowercase hex


class ClientSpec(Record):
    __slots__ = ("name", "delta_estimate", "broadcasts", "crash_time", "behavior", "params")

    def __init__(self, name: str, delta_estimate: int, broadcasts: list[BroadcastScript] | None = None,
                 crash_time: int | None = None, behavior: str | None = None, params: dict | None = None):
        self.name = name
        self.delta_estimate = delta_estimate  # the client's guess of delta, which its bets double from
        self.broadcasts = [] if broadcasts is None else broadcasts
        self.crash_time = crash_time
        self.behavior = behavior
        self.params = {} if params is None else params


class ServerFault(Record):
    __slots__ = ("behavior", "params")

    def __init__(self, behavior: str, params: dict | None = None):
        self.behavior = behavior
        self.params = {} if params is None else params


class NetworkConfig(Record):
    __slots__ = ("strategy", "seed", "delays")

    def __init__(self, strategy: str = "exact_delta", seed: int | str | None = None,
                 delays: dict[str, list[int]] | None = None):
        self.strategy = strategy
        self.seed = seed
        self.delays = {} if delays is None else delays


class BlinkScriptEntry(Record):
    __slots__ = ("at", "server", "instance", "value")

    def __init__(self, at: int, server: str, instance: str, value: bool):
        self.at = at
        self.server = server
        self.instance = instance
        self.value = value


class Scenario(Record):
    __slots__ = ("name", "kind", "n", "f", "delta", "drift", "epsilon", "network", "clock_offsets", "server_faults",
                 "clients", "dep_policy", "blink_script", "step_budget", "until")

    def __init__(self, name: str, kind: str, n: int, f: int, delta: int, drift: int = 0, epsilon: int = 1,
                 network: NetworkConfig | None = None, clock_offsets: dict[str, int] | None = None,
                 server_faults: dict[str, ServerFault] | None = None, clients: list[ClientSpec] | None = None,
                 dep_policy: str = "first", blink_script: list[BlinkScriptEntry] | None = None,
                 step_budget: int = 1_000_000, until: int | None = None):
        self.name = name
        self.kind = kind
        self.n = n
        self.f = f
        self.delta = delta
        self.drift = drift
        self.epsilon = epsilon  # the margin every client adds to its bets
        self.network = NetworkConfig() if network is None else network
        self.clock_offsets = {} if clock_offsets is None else clock_offsets
        self.server_faults = {} if server_faults is None else server_faults
        self.clients = [] if clients is None else clients
        self.dep_policy = dep_policy
        self.blink_script = [] if blink_script is None else blink_script
        self.step_budget = step_budget
        self.until = until

    @property
    def servers(self) -> tuple[str, ...]:
        return server_names(self.n)

    @property
    def correct_servers(self) -> list[str]:
        return [s for s in server_names(self.n) if s not in self.server_faults]

    @property
    def client_names(self) -> list[str]:
        return [c.name for c in self.clients]

    def correct_clients(self) -> list[str]:
        """Clients that follow the algorithm for the whole run: no behavior, no crash."""
        return [c.name for c in self.clients if c.behavior is None and c.crash_time is None]

    def honest_clients(self) -> list[str]:
        """Clients that never deviate, though they may crash."""
        return [c.name for c in self.clients if c.behavior is None]


# ---------------------------------------------------------------- readers
# One per JSON shape: each takes the raw value and where it sits, and
# returns it checked or raises ScenarioError. An absent key reads as None.


def _object(raw, where: str, keys: set[str] | None = None) -> dict:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where} must be an object, got {raw!r}")
    extra = sorted(set(raw) - keys) if keys is not None else []
    if extra:
        raise ScenarioError(f"unknown keys {extra} in {where}")
    return raw


def _list(raw, where: str) -> list:
    if not isinstance(raw, list):
        raise ScenarioError(f"{where} must be a list, got {raw!r}")
    return raw


def _int(raw, where: str, default=_REQUIRED, minimum: int | None = None):
    if raw is None and default is not _REQUIRED:
        return default
    if not _is_int(raw):
        raise ScenarioError(f"{where} must be an integer, got {raw!r}")
    if minimum is not None and raw < minimum:
        raise ScenarioError(f"{where} must be >= {minimum}, got {raw}")
    return raw


def _choice(raw, choices, where: str) -> str:
    if not isinstance(raw, str) or raw not in choices:
        raise ScenarioError(f"{where} must be one of {sorted(choices)}, got {raw!r}")
    return raw


def _name(raw, where: str, pattern: re.Pattern = _NAME_RE) -> str:
    if not isinstance(raw, str) or not pattern.fullmatch(raw):
        raise ScenarioError(f"{where} must match {pattern.pattern}, got {raw!r}")
    return raw


def _hex(raw, where: str) -> str:
    """A message body: pairs of hex digits, no spaces, stored lowercase."""
    if not isinstance(raw, str) or not _HEX_RE.fullmatch(raw):
        raise ScenarioError(f"{where} must be a nonempty hex string, got {raw!r}")
    return bytes.fromhex(raw).hex()


def _param(kind, raw, where: str):
    """One behavior param, read as the type its behavior declares."""
    if isinstance(kind, tuple):
        return _choice(raw, kind, where)
    if kind == "hex":
        return _hex(raw, where)
    wanted, ok = _PARAM_TYPES[kind]
    if not ok(raw):
        raise ScenarioError(f"{where} must be {wanted}, got {raw!r}")
    return raw


# ---------------------------------------------------------------- sections


def _behavior(obj: dict, role: str, where: str) -> tuple[str, dict]:
    """`obj`'s behavior name, and its params held to the names and types it declares."""
    behavior = _choice(obj.get("behavior"), BEHAVIORS, f"{where}.behavior")
    cls = BEHAVIORS[behavior]
    if cls.role != role:
        raise ScenarioError(f"{where}: behavior {behavior!r} is not a {role} behavior")
    params = _object(obj.get("params", {}), f"{where}.params", set(cls.params))
    return behavior, {k: _param(cls.params[k], v, f"{where}.params.{k}") for k, v in params.items()}


def require_a_client(behavior: str, clients: list, where: str) -> None:
    """A behavior that forges a client's message joins only a scenario with a client."""
    if BEHAVIORS[behavior].needs_client and not clients:
        raise ScenarioError(f"{where}: {behavior} needs a client to forge from, and there is none")


def _parse_network(obj, where: str, delta: int) -> NetworkConfig:
    _object(obj, where, {"strategy", "seed", "delays"})
    strategy = _choice(obj.get("strategy", "exact_delta"), _STRATEGIES, f"{where}.strategy")
    seed = obj.get("seed")
    if strategy == "seeded_random" and seed is None:
        raise ScenarioError(f"{where}: seeded_random requires a seed")
    if seed is not None and not (_is_int(seed) or isinstance(seed, str)):
        raise ScenarioError(f"{where}.seed must be an integer or a string, got {seed!r}")
    delays = _object(obj.get("delays", {}), f"{where}.delays")
    for link, ds in delays.items():
        if "->" not in link:
            raise ScenarioError(f"{where}.delays key {link!r} must look like 'src->dst'")
        if not all(1 <= d <= delta for d in _param("ints", ds, f"{where}.delays[{link!r}]")):
            raise ScenarioError(f"{where}.delays[{link!r}] entries must lie in [1, delta={delta}]")
    if strategy != "scripted" and delays:
        raise ScenarioError(f"{where}.delays only applies to the scripted strategy")
    return NetworkConfig(strategy, seed, dict(delays))


def _parse_client(obj, delta: int, idx: int) -> ClientSpec:
    where = f"clients[{idx}]"
    _object(obj, where, {"name", "delta_estimate", "broadcasts", "crash_time", "behavior", "params"})
    name = _name(obj.get("name"), f"{where}.name")
    behavior, params = None, {}
    if obj.get("behavior") is not None:
        behavior, params = _behavior(obj, "client", where)
        if obj.get("broadcasts"):
            raise ScenarioError(f"{where}: a behavior client cannot also carry a broadcast script")
        for key in ("delta_estimate", "crash_time"):  # the behavior runs instead of the client, and reads neither
            if obj.get(key) is not None:
                raise ScenarioError(f"{where}.{key}: a behavior client takes no {key}")
    elif obj.get("params"):
        raise ScenarioError(f"{where}.params needs a behavior")
    delta_estimate = _int(obj.get("delta_estimate"), f"{where}.delta_estimate", default=delta, minimum=1)
    crash_time = _int(obj.get("crash_time"), f"{where}.crash_time", default=None, minimum=0)
    broadcasts: list[BroadcastScript] = []
    seen_messages: set[str] = set()
    for j, b in enumerate(_list(obj.get("broadcasts", []), f"{where}.broadcasts")):
        bwhere = f"{where}.broadcasts[{j}]"
        _object(b, bwhere, {"at", "message"})
        message = _hex(b.get("message"), f"{bwhere}.message")
        if message in seen_messages:
            raise ScenarioError(f"{bwhere}: client {name} broadcasts {message} twice")
        seen_messages.add(message)
        broadcasts.append(BroadcastScript(_int(b.get("at"), f"{bwhere}.at", minimum=0), message))
    return ClientSpec(name, delta_estimate, broadcasts, crash_time, behavior, params)


def parse_scenario(obj: dict, default_name: str = "scenario") -> Scenario:
    _object(obj, "scenario", {"name", "kind", "n", "f", "delta", "drift", "epsilon", "network", "clock_offsets",
                              "servers", "clients", "dep", "blink_script", "step_budget", "until"})
    name = _name(obj.get("name", default_name), "scenario.name")
    kind = _choice(obj.get("kind", "flutter"), ("flutter", "blink"), "scenario.kind")
    n = _int(obj.get("n"), "scenario.n", minimum=1)
    if n > MAX_SERVERS:  # before any per-server structure is built
        raise ScenarioError(f"scenario.n must be <= {MAX_SERVERS}, got {n}")
    f = _int(obj.get("f"), "scenario.f", minimum=1)  # a lone server (f = 0) sends nothing: no trace shows its Time
    if n != 5 * f + 1:  # every quorum is a function of f: at n > 5f+1, 4f+1 suggestions no longer pin the majority
        raise ScenarioError(f"n={n} violates n = 5f+1 (f={f} needs n = {5 * f + 1})")
    delta = _int(obj.get("delta"), "scenario.delta", minimum=1)
    drift = _int(obj.get("drift"), "scenario.drift", default=0, minimum=0)
    epsilon = _int(obj.get("epsilon"), "scenario.epsilon", default=1, minimum=1)
    network = _parse_network(obj.get("network", {}), "scenario.network", delta)

    names = set(server_names(n))
    server_faults: dict[str, ServerFault] = {}
    for sname, conf in _object(obj.get("servers", {}), "scenario.servers").items():
        where = f"servers[{sname!r}]"
        if sname not in names:
            raise ScenarioError(f"{where}: no such server (servers are {server_names(n)[0]}..{server_names(n)[-1]})")
        _object(conf, where, {"behavior", "params"})
        server_faults[sname] = ServerFault(*_behavior(conf, "server", where))
    if len(server_faults) > f:
        raise ScenarioError(f"{len(server_faults)} Byzantine servers assigned but f={f}")

    clients_raw = _list(obj.get("clients", []), "scenario.clients")
    clients = [_parse_client(c, delta, i) for i, c in enumerate(clients_raw)]
    seen_clients: set[str] = set()
    for c in clients:
        if c.name in seen_clients:
            raise ScenarioError(f"duplicate client name {c.name!r}")
        if c.name in names:
            raise ScenarioError(f"client name {c.name!r} collides with a server name")
        seen_clients.add(c.name)
    for sname, fault in server_faults.items():
        require_a_client(fault.behavior, clients, f"servers[{sname!r}]")

    known = names | seen_clients
    offsets: dict[str, int] = {}
    for pname, off in _object(obj.get("clock_offsets", {}), "scenario.clock_offsets").items():
        if pname not in known:
            raise ScenarioError(f"clock_offsets names unknown process {pname!r}")
        offsets[pname] = _int(off, f"clock_offsets[{pname!r}]")
        if abs(off) > drift:
            raise ScenarioError(f"clock_offsets[{pname!r}]={off} exceeds drift bound {drift}")
    for link in network.delays:
        src, _, dst = link.partition("->")
        if src not in known or dst not in known:
            raise ScenarioError(f"network.delays link {link!r} names an unknown process")
        if src == dst and src not in server_faults:  # only a Byzantine server sends itself anything
            raise ScenarioError(f"network.delays link {link!r}: {src} runs no server behavior, so sends itself nothing")

    dep = _object(obj.get("dep", {}), "scenario.dep", {"policy"})
    dep_policy = _choice(dep.get("policy", "first"), POLICIES, "scenario.dep.policy")

    blink_script: list[BlinkScriptEntry] = []
    script_raw = _list(obj.get("blink_script", []), "scenario.blink_script")
    if script_raw and kind != "blink":
        raise ScenarioError("blink_script requires kind 'blink'")
    if kind == "blink" and clients:
        raise ScenarioError("kind 'blink' takes no clients")
    scripted_pairs: set[tuple[str, str]] = set()
    for j, entry in enumerate(script_raw):
        where = f"blink_script[{j}]"
        _object(entry, where, {"at", "server", "instance", "value"})
        sname = _choice(entry.get("server"), names, f"{where}.server")
        if sname in server_faults:
            raise ScenarioError(f"{where}: {sname} is Byzantine and cannot be scripted")
        label = _name(entry.get("instance"), f"{where}.instance", _LABEL_RE)
        if (sname, label) in scripted_pairs:
            raise ScenarioError(f"{where}: {sname} already proposes to instance {label!r}")
        scripted_pairs.add((sname, label))
        value = _param("bool", entry.get("value"), f"{where}.value")
        blink_script.append(BlinkScriptEntry(_int(entry.get("at"), f"{where}.at", minimum=0), sname, label, value))

    until = _int(obj.get("until"), "scenario.until", default=None, minimum=0)
    step_budget = _int(obj.get("step_budget"), "scenario.step_budget", default=1_000_000, minimum=1)

    return Scenario(name=name, kind=kind, n=n, f=f, delta=delta, drift=drift, epsilon=epsilon, network=network,
                    clock_offsets=offsets, server_faults=server_faults, clients=clients, dep_policy=dep_policy,
                    blink_script=blink_script, step_budget=step_budget, until=until)


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except OSError as e:
        raise ScenarioError(f"cannot read scenario {path}: {e}") from None
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, or nested too deep
        raise ScenarioError(f"scenario {path} is not valid UTF-8 JSON: {e}") from None
    return parse_scenario(obj, default_name=path.stem)
