"""Source rules: a stdlib-only package, no `dataclasses` import and a start-up that loads neither
`dataclasses` nor `inspect` and compiles a bounded source, a checker that shares no protocol code, hex read
in one module, an instance payload read in one function, the server sets derived in one module, fan-out,
Deliver events and sink calls in the simulator, one module that hooks its sink, no scenario field that is
stored and never read, and no behavior param that no bundled scenario sets."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

from fluttersim import scenario as sc
from fluttersim.adversary import BEHAVIORS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fluttersim"
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
PROTOCOL_MODULES = {"server", "blink", "client", "adversary", "weakcon", "simnet"}


def imports(path: Path) -> list[str]:
    """The absolute dotted name of everything one package module imports."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "fluttersim" if node.level else ""  # the package has no subpackages
            module = ".".join(part for part in (base, node.module) if part)
            names += [f"{module}.{alias.name}" for alias in node.names]
    return names


def test_package_imports_only_the_stdlib_and_itself():
    allowed = sys.stdlib_module_names | {"fluttersim"}
    outside = {
        path.name: [name for name in imports(path) if name.split(".")[0] not in allowed]
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert len(outside) > 10
    assert {file: names for file, names in outside.items() if names} == {}


def test_no_module_imports_dataclasses():
    # `import dataclasses` loads inspect, ast, dis and tokenize, and each dataclass execs generated code.
    users = {path.name: [name for name in imports(path) if name.split(".")[0] == "dataclasses"]
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {file: names for file, names in users.items() if names} == {}


# What a command's start-up does before its first event: import, load a scenario, make a campaign variant, build.
START_UP = """
import sys
import fluttersim
from fluttersim.adversary import BEHAVIORS
from fluttersim.runner import campaign_variant
base = fluttersim.load_scenario(sys.argv[1])
for behavior in sorted(BEHAVIORS):
    fluttersim.build_simulation(campaign_variant(base, behavior, "adversarial_value", 0))
print(fluttersim.__file__)
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


def test_start_up_loads_neither_dataclasses_nor_inspect():
    # -S: no site hook may preload a module, or hide one the package loads.
    out = subprocess.run(
        [sys.executable, "-S", "-c", START_UP, str(SCENARIOS / "campaign_base.json")],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines() == [str(PACKAGE / "__init__.py"), "[]"]


# Compiling the package's source is most of what `import fluttersim` costs (ROADMAP Baseline), so the lines of the
# modules it loads are a budget. A change that grows them raises the ceiling and says why in CHANGES.md.
LOADED_LINES_CEILING = 2661
LOADED_LINES = """
import sys
import fluttersim
loaded = [m for name, m in sys.modules.items() if name.partition(".")[0] == "fluttersim"]
print(len(loaded), sum(len(open(m.__file__, encoding="utf-8").readlines()) for m in loaded))
"""


def test_start_up_loads_a_bounded_source():
    out = subprocess.run(
        [sys.executable, "-S", "-c", LOADED_LINES],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, capture_output=True, text=True, check=True,
    )
    modules, lines = map(int, out.stdout.split())
    assert modules > 10
    assert lines <= LOADED_LINES_CEILING


def test_checker_replay_imports_no_protocol_module():
    used = {name.split(".")[1] for name in imports(PACKAGE / "checkers.py") if name.startswith("fluttersim.")}
    assert "trace" in used
    assert used & PROTOCOL_MODULES == set()


def test_only_the_scenario_parser_converts_hex():
    # A message body is lowercase hex from the scenario file on: no other module converts it.
    texts = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    scenario = texts.pop("scenario.py")
    # One hex grammar: `fromhex(` appears once, in the scenario reader `_hex`.
    assert scenario.count("fromhex(") == 1
    readers = {node.name: ast.get_source_segment(scenario, node)
               for node in ast.parse(scenario).body if isinstance(node, ast.FunctionDef)}
    assert "fromhex(" in readers["_hex"]
    assert [name for name, text in texts.items() if "fromhex(" in text or ".hex()" in text] == []


def test_only_the_trace_reader_tells_a_label_from_a_tuple():
    # An instance payload, and an AppDeliver payload of the same shape, is read into a key in one place: no other
    # module tests whether a payload names a label.
    label = re.compile(r"""["']label["'] (?:not )?in\b""")
    texts = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert len(texts) > 10
    assert [name for name, text in texts.items() if label.search(text)] == ["trace.py"]
    readers = [name for _file, name, fn in functions(PACKAGE / "trace.py") if label.search(ast.unparse(fn))]
    assert readers == ["instance_key_from_payload"]


def test_only_the_scenario_derives_the_server_sets():
    # Every guarantee is judged over the correct servers: one module names the servers and leaves out the faulty
    # ones, and the checker reads the set its config holds rather than building its own.
    texts = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert len(texts) > 10
    names = re.compile(r"""f["']s\{[^}]*:03d\}""")
    faults = re.compile(r"\bif \w+ (?:not )?in [\w.]*server_faults\b")
    assert [name for name, text in texts.items() if names.search(text)] == ["scenario.py"]
    assert [name for name, text in texts.items() if faults.search(text)] == ["scenario.py"]
    assert [name for name, text in texts.items() if re.search(r"\bset\([^()]*correct_servers", text)] == []


def test_only_the_simulator_fans_out():
    # A broadcast is one `ctx.broadcast` call, which the simulator loops over in one frame.
    loop = re.compile(r"for \w+ in ctx\.servers:\s*ctx\.send\(")
    texts = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py")) if path.name != "simnet.py"}
    assert len(texts) > 10
    assert [name for name, text in texts.items() if loop.search(text)] == []


def functions(path: Path):
    """(file, qualified name, node) of each function of a module and of its classes."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            yield path.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((path.name, f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef))


def test_only_the_simulator_builds_deliver_events():
    # The copies of one send call share one Deliver payload, which `Simulator.send` builds; a delivery reaches every
    # sink as a tuple, and only `trace.deliver_event` makes a Deliver event of one.
    found = [fn for path in sorted(PACKAGE.glob("*.py")) for fn in functions(path)]
    assert len(found) > 100
    payloads = [(file, name) for file, name, fn in found
                if any(isinstance(node, ast.Dict) and [getattr(k, "value", None) for k in node.keys] == ["src", "msg"]
                       for node in ast.walk(fn))]
    assert payloads == [("simnet.py", "Simulator.send")]
    builders = [(file, name) for file, name, fn in found
                if any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "TraceEvent"
                       and any(getattr(arg, "id", getattr(arg, "attr", None)) == "DELIVER" for arg in node.args)
                       for node in ast.walk(fn))]
    assert builders == [("trace.py", "deliver_event")]
    deliver = re.compile(r"TraceEvent\([^)]*\bDELIVER\b")
    texts = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: len(deliver.findall(text)) for name, text in texts.items() if deliver.search(text)} == {"trace.py": 1}


def test_the_simulator_calls_its_sink_only_in_emit_send_and_run_finally():
    # Every event goes through `emit`, and each of `emit` and `send` hands the pending run before its own call, so
    # the calls a sink gets stay in run order; `run()` hands what is left only in its `finally`.
    found = {name: fn for _file, name, fn in functions(PACKAGE / "simnet.py")}
    assert len(found) > 20

    def calls(node, method):
        return any(isinstance(n, ast.Attribute) and n.attr == method for n in ast.walk(node))

    assert [name for name, fn in found.items() if calls(fn, "event")] == ["Simulator.emit"]
    assert [name for name, fn in found.items() if calls(fn, "sends")] == ["Simulator.send"]
    assert [name for name, fn in found.items() if calls(fn, "deliver")] == ["Simulator.emit", "Simulator.send",
                                                                            "Simulator.run"]
    (loop,) = [node for node in ast.walk(found["Simulator.run"]) if isinstance(node, ast.Try)]
    assert not any(calls(node, "deliver") for node in loop.body) and calls(loop.finalbody[-1], "deliver")


def test_only_the_runner_hooks_the_sink():
    # One run path: the simulator's default sink keeps the trace, and only the runner points it elsewhere.
    assign = re.compile(r"\.sink\s*=(?!=)")
    texts = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert len(texts) > 10
    assert sorted(name for name, text in texts.items() if assign.search(text)) == ["runner.py", "simnet.py"]


def test_every_scenario_field_is_read_outside_the_parser():
    # A field the parser fills but no other module reads is a knob that changes nothing.
    texts = [path.read_text() for path in sorted(PACKAGE.glob("*.py")) if path.name != "scenario.py"]
    classes = [sc.Scenario, sc.NetworkConfig, sc.ClientSpec, sc.ServerFault, sc.BroadcastScript, sc.BlinkScriptEntry]
    fields = [(cls.__name__, name) for cls in classes for name in cls.__slots__]
    assert len(fields) > 25
    unread = [f"{owner}.{name}" for owner, name in fields
              if not any(re.search(rf"\.{name}\b", text) for text in texts)]
    assert unread == []


def test_every_behavior_param_is_set_by_a_bundled_scenario():
    # A param only tests set is a knob no run turns: it stays a constant of its behavior.
    uses: dict[str, list[dict]] = {name: [] for name in BEHAVIORS}
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario = sc.load_scenario(path)
        slots = [*scenario.server_faults.values(), *(c for c in scenario.clients if c.behavior is not None)]
        for slot in slots:
            uses[slot.behavior].append(slot.params)
    declared = [(name, param, kind) for name, cls in BEHAVIORS.items() for param, kind in cls.params.items()]
    assert len(declared) >= 4
    unset = []
    for name, param, kind in declared:
        values = [params[param] for params in uses[name] if param in params]
        if not values:
            unset.append(f"{name}.{param}")
        elif isinstance(kind, tuple):  # its first value is the default
            unset += [f"{name}.{param}={value}" for value in kind[1:] if value not in values]
    assert unset == []
