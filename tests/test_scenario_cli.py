"""Scenario validation rules and the command-line surface."""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fluttersim.cli as cli
import fluttersim.runner as runner
from fluttersim.blink import BlinkInstance
from fluttersim.checkers import CheckReport
from fluttersim.errors import ConfigError, ProtocolBugError, ScenarioError
from fluttersim.runner import build_simulation
from fluttersim.scenario import load_scenario, parse_scenario
from fluttersim.server import FlutterServer
from fluttersim.trace import write_trace
from fluttersim.weakcon import FirstProposal

from conftest import SCENARIOS_DIR, scenario_dict, simulate


def reject(doc, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        parse_scenario(doc)


def test_resilience_bound_enforced():
    # Every quorum is a function of f alone, so one n fits each f: test_boundary runs n = 7 into an agreement Fail.
    reject(scenario_dict(n=5, f=1), r"^n=5 violates n = 5f\+1 \(f=1 needs n = 6\)$")
    reject(scenario_dict(n=7, f=1), r"^n=7 violates n = 5f\+1 \(f=1 needs n = 6\)$")
    # A lone server (f = 0, n = 1) has no peer to send its Suggests and Times to, so no trace could show them.
    reject(scenario_dict(n=1, f=0, clients=[]), r"^scenario.f must be >= 1, got 0$")
    reject(scenario_dict(n=6, f=0, clients=[]), r"^scenario.f must be >= 1, got 0$")
    parse_scenario(scenario_dict(n=6, f=1))
    parse_scenario(scenario_dict(n=11, f=2, clients=[]))


def test_server_count_bounded():
    reject(scenario_dict(n=1001, f=0, clients=[]), r"scenario.n must be <= 1000, got 1001")
    assert len(build_simulation(parse_scenario(scenario_dict(n=996, f=199, clients=[]))).servers) == 996


def test_cli_rejects_a_huge_server_count_within_a_second(tmp_path, write_scenario):
    # Unbounded, n = 10^8 would build every server name first (about 15 GB): the child
    # runs under a 512 MiB address-space cap, so a missing bound fails fast instead.
    path = write_scenario(scenario_dict(n=10**8, f=0, clients=[]))
    child = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))\n"
        "from fluttersim.cli import main\n"
        "start = time.perf_counter()\n"
        f"code = main(['run', {str(path)!r}])\n"
        "print(time.perf_counter() - start)\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, FLUTTERSIM_OUT=str(tmp_path), PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == cli.EXIT_SCENARIO, proc.stderr
    assert "scenario.n must be <= 1000" in proc.stderr
    assert float(proc.stdout) < 1.0


def test_unknown_top_level_key_rejected():
    reject(scenario_dict(surprise=1), "surprise")


def test_delta_and_drift_bounds():
    reject(scenario_dict(delta=0), "delta")
    reject(scenario_dict(drift=-1), "drift")


def test_seeded_strategy_requires_seed():
    reject(scenario_dict(network={"strategy": "seeded_random"}), "seed")


def test_scripted_delays_only_for_scripted_strategy():
    reject(
        scenario_dict(network={"strategy": "exact_delta", "delays": {"s000->s001": [1]}}),
        "delays",
    )


def test_scripted_delay_endpoints_must_exist():
    reject(
        scenario_dict(network={"strategy": "scripted", "delays": {"s000->ghost": [1]}}),
        "ghost",
    )
    reject(
        scenario_dict(network={"strategy": "scripted", "delays": {"s000s001": [1]}}),
        r"scenario.network.delays key 's000s001' must look like 'src->dst'",
    )


def test_a_scripted_self_link_needs_a_server_behavior(tmp_path, write_scenario):
    # A correct process takes its own copies itself, and a client of any kind sends only to servers, so their
    # self-links carry no send; a Byzantine server may send itself a message (the equivocator does).
    def scripted(link, **overrides):
        return scenario_dict(network={"strategy": "scripted", "delays": {link: [1]}}, **overrides)

    for process in ("s000", "c000"):
        reject(scripted(f"{process}->{process}"),
               rf"^network.delays link '{process}->{process}': {process} runs no server behavior, so sends itself "
               r"nothing$")
    disseminator = {"name": "c900", "behavior": "partial_disseminator"}
    reject(scripted("c900->c900", clients=[*scenario_dict()["clients"], disseminator]), "c900 runs no server behavior")
    byzantine = scripted("s005->s005", servers={"s005": {"behavior": "equivocator"}})
    assert parse_scenario(byzantine).network.delays == {"s005->s005": [1]}
    path = write_scenario(scripted("s001->s001"))
    assert cli.main(["run", str(path), "--trace", str(tmp_path / "t.jsonl"),
                     "--report", str(tmp_path / "r.json")]) == cli.EXIT_SCENARIO


@pytest.mark.parametrize("delays", [[0], [11], [10, 1, 0], [1] * 40 + [11]])
def test_scripted_delays_must_lie_in_one_to_delta(delays):
    # the last case is out of range only past the sends s000->s001 ever makes
    reject(
        scenario_dict(network={"strategy": "scripted", "delays": {"s000->s001": delays}}),
        r"entries must lie in \[1, delta=10\]",
    )
    parse_scenario(scenario_dict(network={"strategy": "scripted", "delays": {"s000->s001": [1, 10]}}))


def test_clock_offset_bounded_by_drift():
    reject(scenario_dict(drift=1, clock_offsets={"s000": 2}), "drift")
    parse_scenario(scenario_dict(drift=2, clock_offsets={"s000": -2}))


def test_clock_offset_for_unknown_process():
    reject(scenario_dict(clock_offsets={"zzz": 0}), "zzz")


def test_behavior_role_must_match_slot():
    reject(
        scenario_dict(servers={"s005": {"behavior": "partial_disseminator"}}),
        "not a server behavior",
    )
    reject(
        scenario_dict(
            clients=[{"name": "c000", "behavior": "mute", "params": {}}],
        ),
        "not a client behavior",
    )


def test_unknown_behavior_rejected():
    reject(scenario_dict(servers={"s005": {"behavior": "gremlin"}}), "gremlin")
    reject(scenario_dict(servers={"s006": {"behavior": "mute"}}),
           r"servers\['s006'\]: no such server \(servers are s000..s005\)")


def test_client_name_collisions_rejected():
    reject(
        scenario_dict(
            clients=[
                {"name": "c000", "delta_estimate": 10, "broadcasts": []},
                {"name": "c000", "delta_estimate": 10, "broadcasts": []},
            ]
        ),
        "c000",
    )
    reject(
        scenario_dict(
            clients=[{"name": "s000", "delta_estimate": 10, "broadcasts": []}]
        ),
        "s000",
    )


def test_duplicate_broadcast_message_rejected():
    reject(
        scenario_dict(
            clients=[
                {
                    "name": "c000",
                    "delta_estimate": 10,
                    "broadcasts": [
                        {"at": 0, "message": "6d"},
                        {"at": 5, "message": "6d"},
                    ],
                }
            ]
        ),
        "6d",
    )


def test_hex_case_names_one_message():
    doc = scenario_dict()
    doc["clients"][0]["broadcasts"] = [{"at": 0, "message": "6d"}, {"at": 5, "message": "6D"}]
    reject(doc, "broadcasts 6d twice")


def test_hex_case_leaves_the_trace_unchanged(tmp_path):
    def trace_bytes(case) -> bytes:
        doc = scenario_dict(
            clients=[
                {"name": "c000", "broadcasts": [{"at": 0, "message": case("6d")}, {"at": 3, "message": case("0a")}]},
                {"name": "c001", "behavior": "partial_disseminator", "params": {"message": case("fade")}},
            ],
        )
        path = tmp_path / "trace.jsonl"
        write_trace(path, simulate(parse_scenario(doc))[0])
        return path.read_bytes()

    lower = trace_bytes(str.lower)
    assert b'"message":"fade"' in lower and b'"message":"0a"' in lower
    assert trace_bytes(str.upper) == lower


def test_behavior_client_cannot_carry_broadcasts():
    reject(
        scenario_dict(
            clients=[
                {
                    "name": "c000",
                    "behavior": "partial_disseminator",
                    "broadcasts": [{"at": 0, "message": "6d"}],
                }
            ]
        ),
        "broadcast",
    )


def test_unknown_dep_policy_rejected():
    reject(scenario_dict(dep={"policy": "chaotic"}), "chaotic")


def test_blink_script_only_for_blink_kind():
    reject(
        scenario_dict(blink_script=[{"at": 0, "server": "s000", "instance": "i0", "value": True}]),
        "blink",
    )
    reject(scenario_dict(kind="blink"), "kind 'blink' takes no clients")  # scenario_dict has client c000


def test_blink_duplicate_proposal_rejected():
    doc = scenario_dict(
        kind="blink",
        clients=[],
        blink_script=[
            {"at": 0, "server": "s000", "instance": "i0", "value": True},
            {"at": 1, "server": "s000", "instance": "i0", "value": False},
        ],
    )
    reject(doc, "i0")
    doc = scenario_dict(
        kind="blink",
        clients=[],
        servers={"s005": {"behavior": "mute"}},
        blink_script=[{"at": 0, "server": "s005", "instance": "i0", "value": True}],
    )
    reject(doc, r"blink_script\[0\]: s005 is Byzantine and cannot be scripted")


# --- every field, any JSON value ---

FLUTTER_DOC = scenario_dict(
    drift=1,
    epsilon=2,
    network={"strategy": "seeded_random", "seed": 7},
    clock_offsets={"s000": 1, "c000": -1},
    servers={"s005": {"behavior": "observe_forger", "params": {}}},
    clients=[
        {"name": "c000", "delta_estimate": 5, "crash_time": 90, "broadcasts": [{"at": 0, "message": "6d"}]},
        {"name": "c001", "behavior": "partial_disseminator", "params": {"message": "fade"}},
    ],
    dep={"policy": "adversarial_timing"},
    until=200,
    step_budget=100_000,
)
BLINK_DOC = scenario_dict(
    kind="blink",
    clients=[],
    servers={"s005": {"behavior": "equivocator", "params": {"mode": "split", "instances": ["i0"], "react": True}}},
    blink_script=[
        {"at": 0, "server": "s000", "instance": "i0", "value": True},
        {"at": 1, "server": "s001", "instance": "i0", "value": False},
    ],
)


def field_paths(doc, prefix=()):
    """The path of every value inside `doc`, through objects and lists."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


def splice(doc, path, value):
    """A deep copy of `doc` with the value at `path` replaced."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    slot = doc
    for key in parents:
        slot = slot[key]
    slot[last] = value
    return doc


SPLICE_SITES = [(doc, path) for doc in (FLUTTER_DOC, BLINK_DOC) for path in field_paths(doc)]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-3, max_value=40) | st.floats(allow_nan=False)
    | st.text(max_size=6) | st.sampled_from(["s000", "s005", "c000", "6d", "6D", " 6d", "mute", "i0"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@pytest.mark.parametrize("doc", [FLUTTER_DOC, BLINK_DOC], ids=["flutter", "blink"])
def test_the_splice_bases_build(doc):
    build_simulation(parse_scenario(doc))


def benchmark_workloads():
    """The benchmark's input generators, `perfbench/workloads.py`, loaded from its file."""
    path = SCENARIOS_DIR.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [101, 104729])
@pytest.mark.parametrize("workload", ["tob_scale", "retry_storm"])
def test_benchmark_scenarios_parse_and_build(workload, seed):
    # A benchmark input the grammar rejects would fail every benchmark pass, not a test.
    build_simulation(parse_scenario(getattr(benchmark_workloads(), workload)(seed)))


def test_benchmark_campaign_base_parses_and_builds():
    build_simulation(load_scenario(SCENARIOS_DIR.parent / benchmark_workloads().CAMPAIGN_BASE))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from(SPLICE_SITES), JSON_VALUES)
def test_any_value_in_any_field_is_rejected_or_builds(site, value):
    doc, path = site
    try:
        scenario = parse_scenario(splice(doc, path, value))
    except ScenarioError:
        return
    try:
        build_simulation(scenario)
    except ConfigError:
        pass


@pytest.mark.parametrize(
    "path, value",
    [
        (("dep",), []),
        (("network",), []),
        (("servers",), []),
        (("servers", "s005"), "mute"),
        (("clients",), 5),
        (("clients",), [5]),
        (("clients", 0, "broadcasts"), 5),
        (("clients", 0, "broadcasts"), [5]),
        (("dep", "policy"), []),
        (("servers", "s005", "behavior"), {}),
        (("network", "seed"), [1]),
        (("clients", 0, "broadcasts", 0, "message"), " 6d 6E "),
        # not scenario keys: the dep oracle's bound is fixed at 3 delta, and beats follow spotted bets
        (("periodic_beat",), 7),
        (("dep", "latency_budget"), 20),
        (("dep", "extra_delays"), {"s001": 3}),
        # not behavior params: each is a constant of its behavior
        (("servers", "s005", "params", "client"), "c000"),
        (("servers", "s005", "params", "message"), "beef"),
        (("servers", "s005", "params", "bet"), 50),
        (("servers", "s005", "params", "bet_offset"), 50),
        (("clients", 1, "params", "targets"), [0]),
        (("clients", 1, "params", "at"), 0),
        (("clients", 1, "params", "bet_offset"), 100),
        (("servers", "s005"), {"behavior": "time_liar", "params": {"ahead": 1000}}),
        (("servers", "s005"), {"behavior": "time_liar", "params": {"max_blasts": 64}}),
        (("servers", "s005"), {"behavior": "stale_relay", "params": {"lead": 0}}),
        # not client or broadcast keys: epsilon is the run's, and the delay estimate each client's own
        (("clients", 0, "epsilon"), 1),
        (("clients", 0, "broadcasts", 0, "delta_estimate"), 5),
        (("clients", 0, "broadcasts", 0, "epsilon"), 2),
        # an estimate of 0 never grows under doubling, so a lost bet is never won
        (("clients", 0, "delta_estimate"), 0),
        # a behavior client runs its behavior alone: it neither crashes on schedule nor bets
        (("clients", 1, "crash_time"), 0),
        (("clients", 1, "delta_estimate"), 5),
    ],
)
def test_cli_rejects_a_misshapen_field(write_scenario, tmp_path, monkeypatch, capsys, path, value):
    monkeypatch.setenv("FLUTTERSIM_OUT", str(tmp_path))  # a run that wrongly passes writes here
    code = cli.main(["run", str(write_scenario(splice(FLUTTER_DOC, path, value)))])
    assert code == cli.EXIT_SCENARIO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(path[-1]) in err, err


@pytest.mark.parametrize(
    "content",
    [
        json.dumps(scenario_dict(name="caf\u00e9"), ensure_ascii=False).encode("latin-1"),
        b"[" * 100_000 + b"]" * 100_000,  # valid JSON, nested past the decoder's recursion limit
    ],
    ids=["latin-1", "nested-too-deep"],
)
def test_cli_rejects_a_file_that_is_not_utf8_json(tmp_path, capsys, content):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    assert cli.main(["run", str(path)]) == cli.EXIT_SCENARIO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "is not valid UTF-8 JSON" in err and err.count("\n") == 1, err


def test_bad_json_file_is_scenario_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ScenarioError):
        load_scenario(path)


# --- CLI ---


def test_cli_run_writes_trace_and_report(tmp_path, monkeypatch):
    monkeypatch.setenv("FLUTTERSIM_OUT", str(tmp_path))
    code = cli.main(["run", str(SCENARIOS_DIR / "goodcase.json")])
    assert code == 0
    assert (tmp_path / "goodcase.trace.jsonl").exists()
    report = json.loads((tmp_path / "goodcase.report.json").read_text())
    verdicts = {r["verdict"] for r in report["reports"]}
    assert verdicts <= {"Pass", "NotApplicable"}


def test_the_readme_quick_start_shows_what_its_command_prints(tmp_path):
    # Each line of the README's output block but "..." appears in the command's output, in order.
    root = SCENARIOS_DIR.parent
    blocks = re.findall(r"^```\n(.*?)^```", (root / "README.md").read_text(), re.M | re.S)
    command = blocks.index("fluttersim run scenarios/goodcase.json\n")
    shown = [line for line in blocks[command + 1].splitlines() if line.strip() != "..."]
    env = dict(os.environ, FLUTTERSIM_OUT=str(tmp_path), PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", *blocks[command].split()], cwd=root, env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    printed = iter(proc.stdout.splitlines())
    assert [line for line in shown if line not in printed] == []
    assert len(shown) == 5 and (tmp_path / "goodcase.trace.jsonl").exists()


def test_cli_run_explicit_paths(tmp_path):
    trace = tmp_path / "t.jsonl"
    report = tmp_path / "r.json"
    code = cli.main(
        [
            "run",
            str(SCENARIOS_DIR / "blink_fast.json"),
            "--trace",
            str(trace),
            "--report",
            str(report),
        ]
    )
    assert code == 0
    assert trace.exists() and report.exists()


def test_cli_rejects_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(scenario_dict(n=5, f=1)))
    code = cli.main(["run", str(bad)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    missing = tmp_path / "missing.json"  # unreadable: no such file
    assert cli.main(["run", str(missing)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read scenario {missing}: ")


@pytest.mark.parametrize(
    "slots, fragment",
    [
        ({"servers": {"s005": {"behavior": "time_liar", "params": {"ahaed": 5}}}}, r"unknown keys \['ahaed'\]"),
        ({"servers": {"s005": {"behavior": "equivocator", "params": {"react": "soon"}}}}, "react must be a boolean"),
        (
            {"clients": [{"name": "c000", "behavior": "partial_disseminator", "params": {"message": "zz"}}]},
            "message must be a nonempty hex",
        ),
        (
            {"servers": {"s005": {"behavior": "equivocator", "params": {"instances": "i0"}}}},
            "instances must be a list of strings",
        ),
        ({"servers": {"s005": {"behavior": "equivocator", "params": {"mode": "both"}}}}, "mode must be one of"),
        (
            {"servers": {"s005": {"behavior": "equivocator", "params": {"mode": "all_true"}}}},
            r"mode must be one of \['all_false', 'split'\], got 'all_true'",
        ),
        ({"servers": {"s005": {"behavior": "mute", "params": {"lead": 1}}}}, r"unknown keys \['lead'\]"),
        ({"clients": [{"name": "c000", "params": {"at": 1}}]}, "params needs a behavior"),
    ],
    ids=["unknown-key", "ill-typed-bool", "bad-hex", "not-a-list", "bad-choice", "deleted-choice", "mute-takes-none",
         "no-behavior"],
)
def test_cli_rejects_bad_behavior_params(write_scenario, capsys, slots, fragment):
    code = cli.main(["run", str(write_scenario(scenario_dict(**slots)))])
    assert code == cli.EXIT_SCENARIO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(fragment, err), err


def test_cli_budget_exhaustion_exit_code(tmp_path, write_scenario):
    # The trace streams to its file as the run goes: a run cut by its budget leaves its own events, and the report
    # file, opened before the run, empty.
    full = tmp_path / "full.jsonl"
    args = ["--trace", str(full), "--report", str(tmp_path / "full.report.json")]
    assert cli.main(["run", str(write_scenario(scenario_dict(), "full.json")), *args]) == cli.EXIT_OK
    trace, report = tmp_path / "trace.jsonl", tmp_path / "report.json"
    trace.write_text('{"stale": "trace of an earlier run"}\n')
    report.write_text('{"stale": "report of an earlier run"}\n')
    path = write_scenario(scenario_dict(step_budget=10))
    code = cli.main(["run", str(path), "--trace", str(trace), "--report", str(report)])
    assert code == cli.EXIT_BUDGET == 3
    assert report.read_bytes() == b""
    data = trace.read_bytes()
    assert 0 < len(data) < len(full.read_bytes()) and full.read_bytes().startswith(data) and data.endswith(b"\n")


def test_cli_run_keeps_no_trace(tmp_path, online_sims):
    code = cli.main(["run", str(SCENARIOS_DIR / "goodcase.json"), "--trace", str(tmp_path / "trace.jsonl"),
                     "--report", str(tmp_path / "report.json")])
    assert code == cli.EXIT_OK
    assert len(online_sims) == 1 and len(online_sims[0].trace) == 0


def test_cli_fail_report_exit_code(tmp_path, monkeypatch):
    # no built-in behavior can break safety; fake one failing report to pin
    # the exit-code contract
    real = cli.run_checked

    def rigged(scenario, sink):
        result = real(scenario, sink)
        result.reports.append(CheckReport("tob-total-order", "Fail", "planted", [{"k": 1}]))
        return result

    monkeypatch.setattr(cli, "run_checked", rigged)
    monkeypatch.setenv("FLUTTERSIM_OUT", str(tmp_path))
    code = cli.main(["run", str(SCENARIOS_DIR / "goodcase.json")])
    assert code == 1


def timer_forgets_proposal(real):
    """Server mutant: the timer votes False on each due tuple even after proposing."""

    def on_timer(self, ctx, token):
        for t in self._due:
            if t.bet <= ctx.local_time():
                self.instance(t).propose(ctx, False)
        real(self, ctx, token)

    return on_timer


def policy_invents_value(_real):
    """Dep-policy mutant: decides the value no correct server proposed."""
    return lambda self, proposals: not next(iter(proposals.values()))


def majority_unreachable(_real):
    """Blink mutant: an internal assertion breaks when a server first dep-proposes."""

    def _majority(self):
        raise AssertionError("no 2f+1 majority among 4f+1 binary suggestions")

    return _majority


@pytest.mark.parametrize(
    "owner, attr, mutant, error",
    [
        (FlutterServer, "on_timer", timer_forgets_proposal, "ProtocolBugError"),
        (FirstProposal, "choose", policy_invents_value, "OracleViolationError"),
        (BlinkInstance, "_majority", majority_unreachable, "AssertionError"),
    ],
)
def test_cli_protocol_bug_exit_code(tmp_path, monkeypatch, capsys, owner, attr, mutant, error):
    monkeypatch.setattr(owner, attr, mutant(getattr(owner, attr)))
    monkeypatch.setenv("FLUTTERSIM_OUT", str(tmp_path))
    code = cli.main(["run", str(SCENARIOS_DIR / "goodcase.json")])
    assert code == cli.EXIT_PROTOCOL == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ")
    assert "Traceback" not in err


def test_a_run_that_raises_hands_its_pending_deliveries_first(tmp_path, monkeypatch):
    # A delivery handler that raises ends the run; the deliveries not yet handed to the sink, its own included,
    # still reach it, so the streamed trace and a kept trace of the run both end on the delivery that raised.
    monkeypatch.setattr(BlinkInstance, "_majority", majority_unreachable(BlinkInstance._majority))
    handled = []  # (time, server, src) of every server delivery handler call; the calls never nest
    real = FlutterServer.on_deliver

    def on_deliver(self, ctx, src, msg):
        handled.append((ctx.now(), ctx.name, src))
        real(self, ctx, src, msg)

    monkeypatch.setattr(FlutterServer, "on_deliver", on_deliver)
    path, streamed, kept = SCENARIOS_DIR / "goodcase.json", tmp_path / "streamed.jsonl", tmp_path / "kept.jsonl"
    assert cli.main(["run", str(path), "--trace", str(streamed), "--report", str(tmp_path / "r.json")]) == 4
    scenario = load_scenario(path)
    sim = build_simulation(scenario)
    with pytest.raises(AssertionError, match="no 2f\\+1 majority"):
        sim.run(until=scenario.until)
    write_trace(kept, sim.trace)
    assert streamed.read_bytes() == kept.read_bytes()
    last = json.loads(streamed.read_text().splitlines()[-1])
    time, server, src = handled[-1]
    assert (last["time"], last["process"], last["kind"], last["payload"]["src"]) == (time, server, "Deliver", src)
    assert type(sim.trace.calls[-1]) is list  # a run, handed by the simulator as the handler raised


def test_cli_campaign_small_sweep(tmp_path, monkeypatch):
    monkeypatch.setenv("FLUTTERSIM_OUT", str(tmp_path))
    code = cli.main(
        [
            "campaign",
            str(SCENARIOS_DIR / "campaign_base.json"),
            "--seeds",
            "0..2",
            "--behaviors",
            "mute,time_liar",
        ]
    )
    assert code == 0
    summary = json.loads((tmp_path / "campaign_base.campaign.json").read_text())
    assert summary["runs"] == 12  # 2 behaviors x 2 default policies x 3 seeds
    assert summary["all_pass"] is True


def test_cli_campaign_rejects_bad_seed_range(capsys):
    for seeds, error in [
        ("5..1", "--seeds range '5..1' is empty"),
        ("5", "--seeds must look like A..B, got '5'"),
        ("a..b", "--seeds must be integers, got 'a..b'"),
    ]:
        code = cli.main(
            [
                "campaign",
                str(SCENARIOS_DIR / "campaign_base.json"),
                "--seeds",
                seeds,
                "--behaviors",
                "mute",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {error}\n"


def test_cli_campaign_books_a_run_that_raises_and_runs_the_rest(tmp_path, monkeypatch, capsys):
    real, ran = runner.run_checked, []
    broken = "campaign_base+mute+adversarial_value+s1"

    def one_raises(variant):
        ran.append(variant.name)
        if variant.name == broken:
            raise ProtocolBugError("planted")
        return real(variant)

    monkeypatch.setattr(runner, "run_checked", one_raises)
    monkeypatch.setenv("FLUTTERSIM_OUT", str(tmp_path))
    code = cli.main(["campaign", str(SCENARIOS_DIR / "campaign_base.json"), "--seeds", "0..1", "--behaviors", "mute"])
    assert code == cli.EXIT_FAIL
    assert len(ran) == 4  # 1 behavior x 2 default policies x 2 seeds: the run after the broken one still runs
    assert [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line] == [
        f"  FAIL {broken}: ProtocolBugError planted"
    ]
    summary = json.loads((tmp_path / "campaign_base.campaign.json").read_text())
    assert (summary["runs"], summary["fail_count"], summary["all_pass"]) == (4, 1, False)


@pytest.mark.parametrize("where", ["FLUTTERSIM_OUT", "--report"])
@pytest.mark.parametrize(
    "args",
    [
        ["run", str(SCENARIOS_DIR / "goodcase.json")],
        ["campaign", str(SCENARIOS_DIR / "campaign_base.json"), "--seeds", "0..1", "--behaviors", "mute"],
    ],
    ids=["run", "campaign"],
)
def test_cli_output_under_a_regular_file_exits_2_before_any_run(tmp_path, monkeypatch, capsys, args, where):
    def no_run(*_args):
        raise AssertionError("a run started")  # a run breaker: the command would exit 4

    monkeypatch.setattr(cli, "run_checked", no_run)
    monkeypatch.setattr(runner, "_run_one", no_run)
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    if where == "FLUTTERSIM_OUT":
        monkeypatch.setenv("FLUTTERSIM_OUT", str(blocker))
    else:
        monkeypatch.setenv("FLUTTERSIM_OUT", str(tmp_path / "out"))
        args = [*args, "--report", str(blocker / "report.json")]
    assert cli.main(args) == cli.EXIT_SCENARIO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "args",
    [
        ["run", str(SCENARIOS_DIR / "goodcase.json")],
        ["campaign", str(SCENARIOS_DIR / "campaign_base.json"), "--seeds", "0..1", "--behaviors", "mute"],
    ],
    ids=["run", "campaign"],
)
def test_cli_report_at_a_directory_exits_2_before_any_run(tmp_path, monkeypatch, capsys, args):
    # The report file is opened before the first run, as the trace file is: a run would write a whole trace first.
    def no_run(*_args):
        raise AssertionError("a run started")  # a run breaker: the command would exit 4

    monkeypatch.setattr(cli, "run_checked", no_run)
    monkeypatch.setattr(runner, "_run_one", no_run)
    monkeypatch.setenv("FLUTTERSIM_OUT", str(tmp_path))
    (tmp_path / "taken").mkdir()
    assert cli.main([*args, "--report", str(tmp_path / "taken")]) == cli.EXIT_SCENARIO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / "taken") in err and err.count("\n") == 1, err
    assert [p.read_bytes() for p in tmp_path.glob("*.jsonl")] == [b""] * (args[0] == "run")


def test_cli_campaign_rejects_unknown_behavior():
    code = cli.main(
        [
            "campaign",
            str(SCENARIOS_DIR / "campaign_base.json"),
            "--seeds",
            "0..0",
            "--behaviors",
            "gremlin",
        ]
    )
    assert code == 2


@pytest.mark.parametrize("parallel", ["0", "-3"])
def test_cli_campaign_rejects_parallel_below_one(parallel, capsys):
    code = cli.main(
        [
            "campaign",
            str(SCENARIOS_DIR / "campaign_base.json"),
            "--seeds",
            "0..0",
            "--behaviors",
            "mute",
            "--parallel",
            parallel,
        ]
    )
    assert code == cli.EXIT_SCENARIO == 2
    assert capsys.readouterr().err == f"error: --parallel must be at least 1, got {parallel}\n"


@pytest.mark.parametrize(
    "option, value, error",
    [
        ("--behaviors", " , ", "--behaviors list is empty"),
        ("--policies", "", "--policies list is empty"),
        ("--policies", "first,coin", "unknown dep policy 'coin'"),
        # A repeated name would run each of its runs again and book them all under it.
        ("--behaviors", "mute, time_liar,mute", "behavior 'mute' repeats in --behaviors"),
        ("--policies", "first,first", "dep policy 'first' repeats in --policies"),
    ],
)
def test_cli_campaign_rejects_bad_name_lists(option, value, error, capsys):
    # A repeated option takes its last value, so this one overrides "--behaviors mute".
    code = cli.main(["campaign", str(SCENARIOS_DIR / "campaign_base.json"), "--seeds", "0..0",
                     "--behaviors", "mute", option, value])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {error}")


@pytest.mark.parametrize("behaviors, policies", [(["mute", "mute"], ["first"]), (["mute"], ["first", "first"])])
def test_run_campaign_refuses_repeated_names_before_any_run(monkeypatch, behaviors, policies):
    def no_run(job):
        raise AssertionError(f"campaign run started: {job[1:]}")

    monkeypatch.setattr(runner, "_run_one", no_run)
    with pytest.raises(ScenarioError, match="campaign names repeat"):
        runner.run_campaign(load_scenario(SCENARIOS_DIR / "campaign_base.json"), range(2), behaviors, policies)


@pytest.mark.parametrize(
    "doc, behavior, error",
    [
        (scenario_dict(servers={"s000": {"behavior": "mute"}}), "stale_relay,time_liar,mute",
         "campaign base unit has no server left for stale_relay: f=1 faults already"),
        (scenario_dict(clients=[{"name": "c900", "broadcasts": [{"at": 0, "message": "6d"}]}]),
         "mute,partial_disseminator", "campaign base unit already has a client named c900"),
        (json.loads((SCENARIOS_DIR / "blink_fast.json").read_text()), "mute,observe_forger",
         "campaign base blink_fast: observe_forger needs a client to forge from, and there is none"),
    ],
    ids=["f-server-faults", "campaign-client-name", "clientless-observe-forger"],
)
def test_cli_campaign_rejects_a_base_without_room_before_any_run(
    write_scenario, tmp_path, monkeypatch, capsys, doc, behavior, error
):
    def no_run(job):
        raise AssertionError(f"campaign run started: {job[1:]}")

    monkeypatch.setattr(runner, "_run_one", no_run)
    monkeypatch.setenv("FLUTTERSIM_OUT", str(tmp_path / "out"))
    code = cli.main(["campaign", str(write_scenario(doc)), "--seeds", "0..19", "--behaviors", behavior])
    assert code == cli.EXIT_SCENARIO
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "out").exists()


def test_cli_campaign_rejects_a_client_behavior_over_a_blink_base(tmp_path, monkeypatch, capsys):
    def no_run(job):
        raise AssertionError(f"campaign run started: {job[1:]}")

    monkeypatch.setattr(runner, "_run_one", no_run)
    monkeypatch.setenv("FLUTTERSIM_OUT", str(tmp_path / "out"))
    base = str(SCENARIOS_DIR / "blink_fast.json")
    code = cli.main(["campaign", base, "--seeds", "0..19", "--behaviors", "partial_disseminator"])
    assert code == cli.EXIT_SCENARIO
    assert capsys.readouterr().err == (
        "error: campaign base blink_fast has no room for partial_disseminator: kind 'blink' takes no clients\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lines_read", [0, 1])
@pytest.mark.parametrize(
    "args",
    [
        ["run", str(SCENARIOS_DIR / "goodcase.json")],
        ["campaign", str(SCENARIOS_DIR / "campaign_base.json"), "--seeds", "0..1", "--behaviors", "mute"],
    ],
    ids=["run", "campaign"],
)
def test_cli_reader_closing_early_keeps_the_verdict(tmp_path, args, lines_read):
    # `fluttersim run ... | head -1`: the pipe closes while the summary is printed.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, FLUTTERSIM_OUT=str(tmp_path), PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "fluttersim", *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    for _ in range(lines_read):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_OK
    assert err == b""
