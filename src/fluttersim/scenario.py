"""Scenario files: JSON schema, parsing, validation.

A scenario fixes the full experiment: population sizes, delay model,
clock offsets, fault assignments, client scripts, dep policy, budgets.
Parsing is strict; unknown keys and inconsistent parameters are errors,
so a typo cannot silently weaken a run. This is the one module that
reads hex: each message body, in a broadcast script or a behavior's
"hex" param, is checked here and stored as lowercase hex, so "6D" and
"6d" name one message and every later module compares plain strings.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .adversary import BEHAVIORS
from .errors import ScenarioError
from .weakcon import POLICIES

_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
_LABEL_RE = re.compile(r"^[A-Za-z0-9_-]+$")
_HEX_RE = re.compile(r"^(?:[0-9A-Fa-f]{2})+$")
_STRATEGIES = ("exact_delta", "seeded_random", "scripted")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# behavior param type -> (what the error message asks for, test of a JSON value)
_PARAM_TYPES = {
    "int": ("an integer", _is_int),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "hex": ("a nonempty hex string", lambda v: isinstance(v, str) and _HEX_RE.match(v) is not None),
    "ints": ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))),
    "strs": ("a list of strings", lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
}


def server_names(n: int) -> list[str]:
    return [f"s{i:03d}" for i in range(n)]


@dataclass
class BroadcastScript:
    at: int
    message: str  # lowercase hex
    delta_estimate: int
    epsilon: int


@dataclass
class ClientSpec:
    name: str
    delta_estimate: int
    epsilon: int
    broadcasts: list[BroadcastScript] = field(default_factory=list)
    crash_time: int | None = None
    behavior: str | None = None
    params: dict = field(default_factory=dict)


@dataclass
class ServerFault:
    behavior: str
    params: dict = field(default_factory=dict)


@dataclass
class NetworkConfig:
    strategy: str = "exact_delta"
    seed: object = None
    delays: dict[str, list[int]] = field(default_factory=dict)


@dataclass
class DepConfig:
    policy: str = "first"
    latency_budget: int | None = None
    extra_delays: dict[str, int] = field(default_factory=dict)


@dataclass
class BlinkScriptEntry:
    at: int
    server: str
    instance: str
    value: bool


@dataclass
class Scenario:
    name: str
    kind: str
    n: int
    f: int
    delta: int
    drift: int = 0
    epsilon: int = 1
    network: NetworkConfig = field(default_factory=NetworkConfig)
    clock_offsets: dict[str, int] = field(default_factory=dict)
    server_faults: dict[str, ServerFault] = field(default_factory=dict)
    clients: list[ClientSpec] = field(default_factory=list)
    dep: DepConfig = field(default_factory=DepConfig)
    blink_script: list[BlinkScriptEntry] = field(default_factory=list)
    periodic_beat: int | None = None
    step_budget: int = 1_000_000
    until: int | None = None

    @property
    def servers(self) -> list[str]:
        return server_names(self.n)

    @property
    def correct_servers(self) -> list[str]:
        return [s for s in self.servers if s not in self.server_faults]

    @property
    def client_names(self) -> list[str]:
        return [c.name for c in self.clients]

    def correct_clients(self) -> list[str]:
        """Clients that follow the algorithm for the whole run: no behavior, no crash."""
        return [c.name for c in self.clients if c.behavior is None and c.crash_time is None]

    def honest_clients(self) -> list[str]:
        """Clients that never deviate, though they may crash."""
        return [c.name for c in self.clients if c.behavior is None]


def _fail(msg: str) -> ScenarioError:
    return ScenarioError(msg)


def _require(obj: dict, allowed: set[str], where: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise _fail(f"unknown keys {sorted(extra)} in {where}")


def _int(obj: dict, key: str, where: str, default=None, minimum=None, optional=False):
    if key not in obj or obj[key] is None:
        if default is not None or optional:
            return default
        raise _fail(f"missing {key} in {where}")
    v = obj[key]
    if not _is_int(v):
        raise _fail(f"{where}.{key} must be an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise _fail(f"{where}.{key} must be >= {minimum}, got {v}")
    return v


def _hex(raw, where: str) -> str:
    if not isinstance(raw, str) or not raw:
        raise _fail(f"{where} must be a nonempty hex string")
    try:
        return bytes.fromhex(raw).hex()
    except ValueError as e:
        raise _fail(f"{where} is not valid hex: {e}") from None


def _behavior_params(obj: dict, role: str, where: str) -> dict:
    """The params of `obj`'s behavior, held to the names and types it declares."""
    behavior = obj.get("behavior")
    cls = BEHAVIORS.get(behavior)
    if cls is None:
        raise _fail(f"{where}: unknown behavior {behavior!r}")
    if cls.role != role:
        raise _fail(f"{where}: behavior {behavior!r} is not a {role} behavior")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise _fail(f"{where}.params must be an object")
    _require(params, set(cls.params), f"{where}.params")
    params = dict(params)
    for key, value in params.items():
        kind = cls.params[key]
        if isinstance(kind, tuple):
            wanted, ok = f"one of {list(kind)}", value in kind
        else:
            wanted, test = _PARAM_TYPES[kind]
            ok = test(value)
        if not ok:
            raise _fail(f"{where}.params.{key} must be {wanted}, got {value!r}")
        if kind == "hex":
            params[key] = bytes.fromhex(value).hex()
    return params


def _parse_network(obj, where: str, delta: int) -> NetworkConfig:
    _require(obj, {"strategy", "seed", "delays"}, where)
    strategy = obj.get("strategy", "exact_delta")
    if strategy not in _STRATEGIES:
        raise _fail(f"{where}.strategy must be one of {_STRATEGIES}, got {strategy!r}")
    seed = obj.get("seed")
    if strategy == "seeded_random" and seed is None:
        raise _fail(f"{where}: seeded_random requires a seed")
    delays = obj.get("delays", {})
    if not isinstance(delays, dict):
        raise _fail(f"{where}.delays must be an object")
    for link, ds in delays.items():
        if "->" not in link:
            raise _fail(f"{where}.delays key {link!r} must look like 'src->dst'")
        if not isinstance(ds, list) or not all(map(_is_int, ds)):
            raise _fail(f"{where}.delays[{link!r}] must be a list of integers")
        if not all(1 <= d <= delta for d in ds):
            raise _fail(f"{where}.delays[{link!r}] entries must lie in [1, delta={delta}]")
    if strategy != "scripted" and delays:
        raise _fail(f"{where}.delays only applies to the scripted strategy")
    return NetworkConfig(strategy, seed, dict(delays))


def _parse_client(obj, scenario_delta: int, scenario_epsilon: int, idx: int) -> ClientSpec:
    where = f"clients[{idx}]"
    _require(
        obj,
        {"name", "delta_estimate", "epsilon", "broadcasts", "crash_time", "behavior", "params"},
        where,
    )
    name = obj.get("name")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise _fail(f"{where}.name must match {_NAME_RE.pattern}, got {name!r}")
    behavior = obj.get("behavior")
    params: dict = {}
    if behavior is not None:
        params = _behavior_params(obj, "client", where)
        if obj.get("broadcasts"):
            raise _fail(f"{where}: a behavior client cannot also carry a broadcast script")
    elif obj.get("params"):
        raise _fail(f"{where}.params needs a behavior")
    delta_estimate = _int(obj, "delta_estimate", where, default=scenario_delta, minimum=0)
    epsilon = _int(obj, "epsilon", where, default=scenario_epsilon, minimum=1)
    crash_time = _int(obj, "crash_time", where, optional=True, minimum=0)
    broadcasts: list[BroadcastScript] = []
    seen_messages: set[str] = set()
    for j, b in enumerate(obj.get("broadcasts", [])):
        bwhere = f"{where}.broadcasts[{j}]"
        _require(b, {"at", "message", "delta_estimate", "epsilon"}, bwhere)
        message = _hex(b.get("message"), f"{bwhere}.message")
        if message in seen_messages:
            raise _fail(f"{bwhere}: client {name} broadcasts {message} twice")
        seen_messages.add(message)
        broadcasts.append(
            BroadcastScript(
                at=_int(b, "at", bwhere, minimum=0),
                message=message,
                delta_estimate=_int(b, "delta_estimate", bwhere, default=delta_estimate, minimum=0),
                epsilon=_int(b, "epsilon", bwhere, default=epsilon, minimum=1),
            )
        )
    return ClientSpec(name, delta_estimate, epsilon, broadcasts, crash_time, behavior, params)


def parse_scenario(obj: dict, default_name: str = "scenario") -> Scenario:
    if not isinstance(obj, dict):
        raise _fail("scenario file must contain a JSON object")
    _require(
        obj,
        {
            "name", "kind", "n", "f", "delta", "drift", "epsilon", "network",
            "clock_offsets", "servers", "clients", "dep", "blink_script",
            "periodic_beat", "step_budget", "until",
        },
        "scenario",
    )
    name = obj.get("name", default_name)
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise _fail(f"scenario.name must match {_NAME_RE.pattern}, got {name!r}")
    kind = obj.get("kind", "flutter")
    if kind not in ("flutter", "blink"):
        raise _fail(f"scenario.kind must be 'flutter' or 'blink', got {kind!r}")
    n = _int(obj, "n", "scenario", minimum=1)
    f = _int(obj, "f", "scenario", minimum=0)
    if n < 5 * f + 1:
        raise _fail(f"n={n} violates n >= 5f+1 (f={f} needs n >= {5 * f + 1})")
    delta = _int(obj, "delta", "scenario", minimum=1)
    drift = _int(obj, "drift", "scenario", default=0, minimum=0)
    epsilon = _int(obj, "epsilon", "scenario", default=1, minimum=1)
    network = _parse_network(obj.get("network", {}), "scenario.network", delta)

    names = set(server_names(n))
    server_faults: dict[str, ServerFault] = {}
    for sname, conf in obj.get("servers", {}).items():
        where = f"servers[{sname!r}]"
        if sname not in names:
            raise _fail(f"{where}: no such server (servers are {server_names(n)[0]}..{server_names(n)[-1]})")
        _require(conf, {"behavior", "params"}, where)
        server_faults[sname] = ServerFault(conf.get("behavior"), _behavior_params(conf, "server", where))
    if len(server_faults) > f:
        raise _fail(f"{len(server_faults)} Byzantine servers assigned but f={f}")

    clients = [_parse_client(c, delta, epsilon, i) for i, c in enumerate(obj.get("clients", []))]
    seen_clients: set[str] = set()
    for c in clients:
        if c.name in seen_clients:
            raise _fail(f"duplicate client name {c.name!r}")
        if c.name in names:
            raise _fail(f"client name {c.name!r} collides with a server name")
        seen_clients.add(c.name)

    offsets_raw = obj.get("clock_offsets", {})
    if not isinstance(offsets_raw, dict):
        raise _fail("scenario.clock_offsets must be an object")
    known = names | seen_clients
    offsets: dict[str, int] = {}
    for pname, off in offsets_raw.items():
        if pname not in known:
            raise _fail(f"clock_offsets names unknown process {pname!r}")
        if not _is_int(off):
            raise _fail(f"clock_offsets[{pname!r}] must be an integer")
        if abs(off) > drift:
            raise _fail(f"clock_offsets[{pname!r}]={off} exceeds drift bound {drift}")
        offsets[pname] = off
    for link in network.delays:
        src, _, dst = link.partition("->")
        if src not in known or dst not in known:
            raise _fail(f"network.delays link {link!r} names an unknown process")

    dep_raw = obj.get("dep", {})
    _require(dep_raw, {"policy", "latency_budget", "extra_delays"}, "scenario.dep")
    policy = dep_raw.get("policy", "first")
    if policy not in POLICIES:
        raise _fail(f"scenario.dep.policy must be one of {sorted(POLICIES)}, got {policy!r}")
    budget = _int(dep_raw, "latency_budget", "scenario.dep", optional=True, minimum=0)
    extra = dep_raw.get("extra_delays", {})
    if not isinstance(extra, dict):
        raise _fail("scenario.dep.extra_delays must be an object")
    for sname, d in extra.items():
        if sname not in names:
            raise _fail(f"scenario.dep.extra_delays names unknown server {sname!r}")
        if not _is_int(d) or d < 0:
            raise _fail(f"scenario.dep.extra_delays[{sname!r}] must be a nonnegative integer")
    dep = DepConfig(policy, budget, dict(extra))

    blink_script: list[BlinkScriptEntry] = []
    script_raw = obj.get("blink_script", [])
    if script_raw and kind != "blink":
        raise _fail("blink_script requires kind 'blink'")
    if kind == "blink" and clients:
        raise _fail("kind 'blink' takes no clients")
    scripted_pairs: set[tuple[str, str]] = set()
    for j, entry in enumerate(script_raw):
        where = f"blink_script[{j}]"
        _require(entry, {"at", "server", "instance", "value"}, where)
        sname = entry.get("server")
        if sname not in names:
            raise _fail(f"{where}.server {sname!r} is not a server")
        if sname in server_faults:
            raise _fail(f"{where}: {sname} is Byzantine and cannot be scripted")
        label = entry.get("instance")
        if not isinstance(label, str) or not _LABEL_RE.match(label):
            raise _fail(f"{where}.instance must match {_LABEL_RE.pattern}")
        if (sname, label) in scripted_pairs:
            raise _fail(f"{where}: {sname} already proposes to instance {label!r}")
        scripted_pairs.add((sname, label))
        value = entry.get("value")
        if not isinstance(value, bool):
            raise _fail(f"{where}.value must be a boolean")
        blink_script.append(BlinkScriptEntry(_int(entry, "at", where, minimum=0), sname, label, value))

    periodic_beat = _int(obj, "periodic_beat", "scenario", optional=True, minimum=1)
    until = _int(obj, "until", "scenario", optional=True, minimum=0)
    if periodic_beat is not None and until is None:
        raise _fail("periodic_beat without an until cutoff never quiesces")
    step_budget = _int(obj, "step_budget", "scenario", default=1_000_000, minimum=1)

    return Scenario(
        name=name,
        kind=kind,
        n=n,
        f=f,
        delta=delta,
        drift=drift,
        epsilon=epsilon,
        network=network,
        clock_offsets=offsets,
        server_faults=server_faults,
        clients=clients,
        dep=dep,
        blink_script=blink_script,
        periodic_beat=periodic_beat,
        step_budget=step_budget,
        until=until,
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except OSError as e:
        raise _fail(f"cannot read scenario {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise _fail(f"scenario {path} is not valid JSON: {e}") from None
    return parse_scenario(obj, default_name=path.stem)
