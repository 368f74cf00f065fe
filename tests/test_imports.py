"""Import behaviour: a lazy package namespace and a CLI that loads only what it uses.

Every check that looks at ``sys.modules`` runs in a fresh interpreter, since
this test process has long since loaded the whole package.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cover_lattice
from cover_lattice import run_cli

SRC = Path(cover_lattice.__file__).parent
SUBMODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem not in ("__init__", "__main__"))

# Layers none of the cheap subcommands below may load, nor ``dataclasses``
# (which brings ``inspect``).
HEAVY = {f"cover_lattice.{m}" for m in ("planning", "star", "enumeration", "stipulations", "_kernel")}

# Runs ``python -m cover_lattice ARGV...`` the way ``-m`` does, then writes
# the names in ``sys.modules`` to the file named by the first argument.
PROBE = """
import runpy, sys
out, sys.argv = sys.argv[1], ["cover_lattice", *sys.argv[2:]]
try:
    runpy.run_module("cover_lattice", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    status = exc.code
sys.stdout.flush()
import json
with open(out, "w", encoding="utf-8") as fh:
    json.dump({"status": status, "modules": sorted(sys.modules)}, fh)
"""


def python(*args):
    """Run a fresh interpreter that imports this package from the tree under test."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env={**os.environ, "PYTHONPATH": path}
    )


@pytest.fixture()
def docs(tmp_path):
    paths = {}
    for name, doc in {
        "a": {"universe": ["1", "2", "3"], "cover": [["1", "2"], ["2", "3"]]},
        "b": {"universe": ["1", "2", "3"], "cover": [["1"], ["2", "3"]]},
        "u": {"universe": ["1", "2", "3"]},
        "junction": {
            "states": ["1", "2", "3", "4"],
            "actions": ["left", "right"],
            "transition": {
                "1": {"left": ["2"], "right": ["4"]},
                "2": {"left": ["2"], "right": ["2"]},
                "3": {"left": ["4"], "right": ["2"]},
                "4": {"left": ["4"], "right": ["4"]},
            },
            "initial": ["1", "3"],
            "goal": ["2"],
        },
        "pairs": {"universe": ["1", "2", "3", "4"], "cover": [["1", "4"], ["2", "3"]]},
    }.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize(
    "command, inputs",
    [("compare", "ab"), ("meet", "ab"), ("join", "ab"), ("validate", "au")],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cheap_subcommand_loads_no_heavy_layer(command, inputs, fmt, docs, tmp_path, capsys):
    argv = [command, "--format", fmt]
    for key in inputs:
        argv += ["--input", docs[key]]
    loaded = probe(argv, tmp_path, capsys)
    assert not loaded & HEAVY
    assert "dataclasses" not in loaded


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_loads_no_star(fmt, tmp_path, capsys):
    loaded = probe(["enumerate", "--max-n", "3", "--format", fmt], tmp_path, capsys)
    assert "cover_lattice.enumeration" in loaded
    assert "cover_lattice.star" not in loaded
    assert "dataclasses" not in loaded


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_hasse_by_subsumption_loads_no_star(fmt, docs, tmp_path, capsys):
    argv = ["hasse", "--input", docs["a"], "--input", docs["b"], "--format", fmt]
    loaded = probe(argv, tmp_path, capsys)
    assert "cover_lattice.enumeration" in loaded
    assert "cover_lattice.star" not in loaded


@pytest.mark.parametrize("command", ["solve", "policy"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_planning_loads_no_order_or_star(command, fmt, docs, tmp_path, capsys):
    argv = [command, "--input", docs["junction"], "--input", docs["pairs"], "--format", fmt]
    loaded = probe(argv, tmp_path, capsys)
    assert "cover_lattice.planning" in loaded
    assert not loaded & {"cover_lattice.order", "cover_lattice.star"}


def probe(argv, tmp_path, capsys) -> set[str]:
    """Run ``argv`` in a fresh interpreter, check it answers as ``run_cli`` does with
    exit 0, and return the modules it loaded."""
    record = tmp_path / "modules.json"
    proc = python("-c", PROBE, str(record), *argv)
    assert proc.stderr == b""
    seen = json.loads(record.read_text(encoding="utf-8"))
    status = run_cli(argv)
    assert seen["status"] == status == 0
    assert proc.stdout == capsys.readouterr().out.encode("utf-8")
    return set(seen["modules"])


def test_bare_import_loads_no_submodule():
    proc = python("-c", "import json, sys, cover_lattice; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr.decode()
    loaded = [m for m in json.loads(proc.stdout) if m.startswith("cover_lattice")]
    assert loaded == ["cover_lattice"]


LOADS = {
    "from cover_lattice import solvable, maximal_solvable_covers, make_problem, Policy, "
    "UnsolvableError": ["_kernel", "core", "errors", "planning"],
    "import cover_lattice; cover_lattice.Cover": ["core", "errors"],
    "import cover_lattice; cover_lattice.KERNEL_BACKEND": ["_kernel"],
    "import cover_lattice; cover_lattice.planning": SUBMODULES,
    "import cover_lattice; dir(cover_lattice)": SUBMODULES,
}


@pytest.mark.parametrize("code", sorted(LOADS))
def test_first_access_loads_only_its_layer(code):
    """A public name loads the layer that defines it; a submodule or ``dir()`` loads all."""
    proc = python("-c", f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr.decode()
    loaded = [m for m in json.loads(proc.stdout) if m.startswith("cover_lattice")]
    assert loaded == ["cover_lattice", *(f"cover_lattice.{m}" for m in LOADS[code])]


def test_exports_are_filed_under_their_defining_layer():
    """A name filed under another layer than the one defining it would load both.

    Names bound to objects from outside the package, such as the ``Belief``
    alias of ``frozenset``, load nothing more and are not checked.
    """
    layers = {f"cover_lattice.{m}" for m in SUBMODULES}
    misfiled = {
        name: home
        for layer, names in cover_lattice._EXPORTS.items()
        for name in names
        if (home := getattr(getattr(cover_lattice, name), "__module__", None)) in layers
        and home != f"cover_lattice.{layer}"
    }
    assert misfiled == {}


NAMESPACE_CHECKS = {
    "attributes": f"""
import cover_lattice
for name in cover_lattice.__all__ + {SUBMODULES!r}:
    getattr(cover_lattice, name)
assert cover_lattice.cli.run_cli is cover_lattice.run_cli
""",
    "star_import": """
import cover_lattice
namespace = {}
exec("from cover_lattice import *", namespace)
missing = set(cover_lattice.__all__) - set(namespace)
assert not missing, missing
""",
    "dir": """
import cover_lattice
missing = set(cover_lattice.__all__) - set(dir(cover_lattice))
assert not missing, missing
""",
    "unknown_name": """
import cover_lattice
try:
    cover_lattice.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("no AttributeError")
assert not hasattr(cover_lattice, "no_such_name")
""",
    "kernel_backend": """
import cover_lattice
assert cover_lattice.KERNEL_BACKEND == "pure", cover_lattice.KERNEL_BACKEND
""",
}


@pytest.mark.parametrize("check", sorted(NAMESPACE_CHECKS))
def test_namespace_after_bare_import(check):
    proc = python("-c", NAMESPACE_CHECKS[check])
    assert proc.returncode == 0, proc.stderr.decode()


def test_every_public_name_is_exported():
    check = """
import json, types, cover_lattice
dir(cover_lattice)
print(json.dumps(sorted(
    name for name, value in vars(cover_lattice).items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)))
"""
    proc = python("-c", check)
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == sorted(cover_lattice.__all__)


@pytest.mark.parametrize("module", [*SUBMODULES, "__main__"])
def test_module_imports_first_and_alone(module):
    """No import cycle hides behind an import order that another module sets up."""
    proc = python("-c", f"import cover_lattice.{module}")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b""


def test_no_relative_module_import():
    """``from . import m`` asks the package for ``m``, which loads the whole namespace
    in the middle of importing one layer."""
    pattern = re.compile(r"^\s*from \. import ", re.MULTILINE)
    offenders = [p.name for p in sorted(SRC.glob("*.py")) if pattern.search(p.read_text("utf-8"))]
    assert offenders == []
