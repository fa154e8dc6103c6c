"""What a command imports: each CLI command loads only the modules it
runs, the package exports its names lazily, no module builds a
dataclass, the library loads nothing outside the standard library or
reads an environment variable, and no private module-level helper goes
unnamed in the package.

A command runs in a fresh interpreter, as a user runs it, and reports
the package modules it loaded. The lazy exports are checked against the
modules that bind them, and the bench's tracer, installed in process,
must still see the calls a command makes through its local imports.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import circulant_elgamal

from test_cli import run_cli
from test_tracing import load_tracing

# Runs `cli.main(argv)` (or only imports cli, without arguments) and
# prints, last, the exit code, the package modules loaded and whether
# the run loaded dataclasses.
PROBE = """
import json, sys
preloaded = "dataclasses" in sys.modules
from circulant_elgamal import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
prefix = "circulant_elgamal."
loaded = sorted(m[len(prefix):] for m in sys.modules if m.startswith(prefix))
print(json.dumps([code, loaded, not preloaded and "dataclasses" in sys.modules]))
"""

ON_DEMAND = {"elgamal", "dlp", "security"}


# Imports every module of the package and prints, last, the top-level
# names of the modules that were not loaded before it; the snapshot comes
# first, because `site` may preload third-party modules.
STDLIB_PROBE = """
import os, sys
before = set(sys.modules)
import importlib, json
import circulant_elgamal
for name in os.listdir(os.path.dirname(circulant_elgamal.__file__)):
    stem, ext = os.path.splitext(name)
    if ext == ".py" and stem != "__init__":
        importlib.import_module(f"circulant_elgamal.{stem}")
print(json.dumps(sorted({m.partition(".")[0] for m in set(sys.modules) - before})))
"""


def probe(*argv, script=PROBE):
    src = str(Path(circulant_elgamal.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """Files of one (3,11) pipeline, made in process."""
    root = tmp_path_factory.mktemp("desk")
    f = {k: str(root / k) for k in ("params", "priv", "pub", "plain", "ct")}
    Path(f["plain"]).write_bytes(b"circulant")
    for argv in (
        ["params", "gen", "--n", "3", "--d", "11", "--seed", "7", "--out", f["params"]],
        ["keygen", "--params", f["params"], "--out-priv", f["priv"],
         "--out-pub", f["pub"], "--seed", "8"],
        ["encrypt", "--pub", f["pub"], "--infile", f["plain"], "--out", f["ct"],
         "--seed", "9"],
    ):
        assert run_cli(argv)[0] == 0
    return root, f


COMMANDS = {
    "params gen": (
        lambda r, f: ["params", "gen", "--n", "3", "--d", "11", "--seed", "7",
                      "--out", str(r / "g.params")],
        set(),
    ),
    "params check": (lambda r, f: ["params", "check", f["params"]], set()),
    "keygen": (
        lambda r, f: ["keygen", "--params", f["params"], "--out-priv", str(r / "k"),
                      "--out-pub", str(r / "k.pub"), "--seed", "8"],
        {"elgamal"},
    ),
    "encrypt": (
        lambda r, f: ["encrypt", "--pub", f["pub"], "--infile", f["plain"],
                      "--out", str(r / "e.ct"), "--seed", "9"],
        {"elgamal"},
    ),
    "decrypt": (
        lambda r, f: ["decrypt", "--priv", f["priv"], "--in", f["ct"],
                      "--out", str(r / "d.bin")],
        {"elgamal"},
    ),
    "attack dlp": (
        lambda r, f: ["attack", "dlp", "--params", f["params"], "--pub", f["pub"]],
        {"elgamal", "dlp"},
    ),
    "security estimate": (
        lambda r, f: ["security", "estimate", "--n", "47", "--d", "11"],
        {"security"},
    ),
    "bench pow": (
        lambda r, f: ["bench", "pow", "--n", "3", "--d", "11", "--bits", "8",
                      "--trials", "2", "--seed", "1"],
        set(),
    ),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_what_it_runs(desk, command):
    argv, wanted = COMMANDS[command]
    code, loaded, dataclasses = probe(*argv(*desk))
    assert code == 0
    assert ON_DEMAND & set(loaded) == wanted
    assert not dataclasses


def test_cli_import_loads_no_arithmetic():
    code, loaded, dataclasses = probe()
    assert loaded == ["cli", "numtheory"]
    assert not dataclasses


def test_library_imports_only_the_standard_library():
    loaded = probe(script=STDLIB_PROBE)
    assert "circulant_elgamal" in loaded
    assert set(loaded) - {"circulant_elgamal"} <= sys.stdlib_module_names


def package_names():
    """The package's module-level functions and classes, as {"module.name":
    name}, and every name, attribute or import that its code refers to."""
    defined, used = {}, set()
    for path in Path(circulant_elgamal.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{path.stem}.{node.name}"] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return defined, used


def test_every_private_helper_is_referenced():
    # a module-level function or class named _x (one underscore) is dead
    # when no name, attribute or import anywhere in the package refers to it
    defined, used = package_names()
    dead = [
        where for where, name in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in used
    ]
    assert defined and not dead, dead


def test_every_public_name_is_referenced_exported_or_traced():
    """A public module-level function or class is dead unless the package
    refers to it, exports it in `_HOME`, or the bench's tracer names it in
    `TRACED`.

    Names are matched by name alone, not by binding: a public name passes
    when any name or attribute anywhere in the package is spelled the
    same, for example a method of the same name on another class.
    """
    defined, used = package_names()
    traced = {
        f"{module}.{name}"
        for module, names in load_tracing().TRACED.items()
        for name in names
    }
    home = {f"{module}.{name}" for name, module in circulant_elgamal._HOME.items()}
    dead = [
        where for where, name in defined.items()
        if not name.startswith("_")
        and name not in used
        and where not in home | traced
    ]
    assert defined and not dead, dead


def test_oracles_import_no_private_name():
    # an oracle that borrows a private helper checks the library against
    # itself; the shared oracles use the public API or their own code
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith("circulant_elgamal")
        for alias in node.names
    ]
    assert imported and not [n for n in imported if n.startswith("_")], imported


def test_library_reads_no_environment_variable():
    # options come from the command line alone; a variable inherited from
    # the shell would be a second source nobody sees
    _, used = package_names()
    assert not used & {"environ", "environb", "getenv", "getenvb", "putenv"}


def test_lazy_exports_resolve_to_their_home_modules():
    home = circulant_elgamal._HOME
    assert sorted(home) == sorted(circulant_elgamal.__all__)
    for name in circulant_elgamal.__all__:
        obj = getattr(circulant_elgamal, name)
        assert obj is getattr(
            importlib.import_module(f"circulant_elgamal.{home[name]}"), name
        )
        assert obj is getattr(sys.modules[obj.__module__], name)
    namespace = {}
    exec("from circulant_elgamal import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(circulant_elgamal.__all__)
    assert set(circulant_elgamal.__all__) <= set(dir(circulant_elgamal))
    with pytest.raises(AttributeError, match="no_such_name"):
        circulant_elgamal.no_such_name


def test_tracer_sees_calls_under_local_imports(desk):
    _, f = desk
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        code, stdout, _ = run_cli(
            ["attack", "dlp", "--params", f["params"], "--pub", f["pub"]]
        )
        traced = circulant_elgamal.solve_circulant_dlp
    finally:
        tracer.uninstall()
    assert code == 0 and "verified=true" in stdout
    names = {sid: (parent, name) for sid, parent, _, name, *_ in tracer.spans}
    (top,) = [sid for sid, (_, name) in names.items() if name == "cli.main.attack_dlp"]
    (solve,) = [p for p, name in names.values() if name == "dlp.solve_circulant_dlp"]
    assert solve == top
    # the package export follows the tracer in and out
    solver = importlib.import_module("circulant_elgamal.dlp").solve_circulant_dlp
    assert traced.__wrapped__ is solver
    assert circulant_elgamal.solve_circulant_dlp is solver
