"""Source and documentation hygiene.

No linter ships with the toolchain, so unused imports (in the package and
in the tests), public names that only tests use, defaulted parameters that
only tests set and imports of test-only packages, scipy among them, are
found by parsing each module with ast; the README's library sketch is run verbatim so it cannot
name functions the package no longer has.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from arphase import GainFunction, NegativePart
from arphase.cli import main

ROOT = Path(__file__).resolve().parents[1]
# The package's modules (its __init__ only re-exports) and every test module,
# mpref and conftest included.  No name appears in both directories.
PACKAGE = sorted(p for p in (ROOT / "src" / "arphase").glob("*.py") if p.name != "__init__.py")
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no Name node references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scan_flags_an_unused_import():
    source = "import math\nfrom os import path, sep as s\nprint(path)\n"
    assert unused_imports(source) == ["math (line 1)", "s (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def references(source: str) -> set[str]:
    """Names a module uses through Name, Attribute or ImportFrom nodes (an
    import ... as alias counts for the original name), leaving out what a
    top-level def or class says of itself."""
    names = set()
    for top in ast.parse(source).body:
        found = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                found |= {alias.name for alias in node.names}
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            found.discard(top.name)
        names |= found
    return names


def test_scan_skips_a_self_reference():
    source = "from m import a as b\ndef f(n):\n    return f(n.c)\nf(d)\n"
    assert references(source) == {"a", "n", "c", "f", "d"}
    assert "f" not in references(source.replace("f(d)", "d"))


# Kept until the next benchmark change: bench/test_bench.py pins
# arphase.montecarlo.cdf_vector, whose only use is this function.
UNUSED_ALLOWED = {"overshoot_given_phase"}


def test_every_public_name_is_used():
    """Each public top-level def or class of the package is used by the
    package or the benchmark; the package's re-exports and the tests do not
    count."""
    used = set()
    for path in PACKAGE + sorted((ROOT / "bench").glob("*.py")):
        used |= references(path.read_text(encoding="utf-8"))
    public = {
        node.name
        for path in PACKAGE
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert sorted(public - used - UNUSED_ALLOWED) == []


def defaulted_parameters(source: str) -> set[tuple]:
    """(callee, parameter, position) for every parameter with a default of
    every def, methods included.  The callee is the name calls use: the
    class name for __init__.  The position is the index of the argument a
    call passes it as (None when keyword-only), after a method's self or
    cls; the package has no staticmethod."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                args = child.args
                positional = args.posonlyargs + args.args
                shift = 1 if owner else 0
                callee = owner if child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                for index, arg in enumerate(positional[first:], start=first):
                    found.add((callee, arg.arg, index - shift))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.add((callee, arg.arg, None))
                visit(child, None)
            else:
                visit(child, owner)

    visit(ast.parse(source), None)
    return found


def passed_arguments(source: str) -> set[tuple]:
    """(callee, keyword) and (callee, number of positional arguments) for
    every call of a plain or attribute name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            found.add((callee, len(node.args)))
            found |= {(callee, kw.arg) for kw in node.keywords}
    return found


def unset_defaults(definitions: list[str], calls: list[str]) -> list[str]:
    """Defaulted parameters of the definitions' sources that no call in the
    calls' sources passes, as callee.parameter."""
    passed = set().union(*map(passed_arguments, calls))
    return sorted(
        f"{callee}.{name}"
        for callee, name, index in set().union(*map(defaulted_parameters, definitions))
        if (callee, name) not in passed
        and not any(c == callee and isinstance(n, int) and index is not None and n > index
                    for c, n in passed)
    )


def test_scan_flags_an_unset_default():
    definitions = ("def f(a, b=1, *, c=2):\n    pass\n"
                   "class K:\n    def __init__(self, d=3):\n        pass\n"
                   "    def g(self, e=4, h=5):\n        pass\n")
    assert unset_defaults([definitions], ["f(0)\nK()\n", "k.g()\n"]) == ["K.d", "f.b", "f.c", "g.e", "g.h"]
    assert unset_defaults([definitions], ["f(0, 1, c=2)\nK(3)\n", "k.g(4)\nk.g(h=5)\n"]) == []


def test_every_parameter_default_is_set():
    """Each defaulted parameter of the package is passed, by keyword or by
    position, by some call in the package or the benchmark; one that only
    tests set, or nothing sets, is a constant."""
    definitions = [p.read_text(encoding="utf-8") for p in PACKAGE]
    calls = [p.read_text(encoding="utf-8") for p in PACKAGE + sorted((ROOT / "bench").glob("*.py"))]
    unset = [name for name in unset_defaults(definitions, calls)
             if name.split(".")[0] not in UNUSED_ALLOWED]
    assert unset == []


def fresh_stdout(code: str) -> str:
    """What code prints when run in a new interpreter on this checkout's src/."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    return out.stdout


def run_without_scipy(runs: list[list[str]]) -> list[tuple[int, str]]:
    """Exit code and stdout of main(argv) for each argv, all in one fresh
    interpreter where scipy cannot be imported."""
    code = ("import contextlib, io, json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from arphase.cli import main\n"
            "results = []\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "        results.append([main(argv), out.getvalue()])\n"
            "print(json.dumps(results))\n")
    return [tuple(result) for result in json.loads(fresh_stdout(code))]


def assert_golden_without_scipy(names: list[str], tmp_path: Path) -> None:
    """Each named golden config exits 0 without scipy and prints and writes
    its golden bytes."""
    golden = ROOT / "tests" / "golden"
    runs = [[name.split("-")[0], "--config", str(golden / f"{name}.json"),
             "--out", str(tmp_path / f"{name}.out")] for name in names]
    results = run_without_scipy(runs)
    assert [exit_code for exit_code, _ in results] == [0] * len(runs)
    for name, (_, stdout) in zip(names, results):
        assert stdout.encode() == (golden / f"{name}.stdout").read_bytes(), name
        assert (tmp_path / f"{name}.out").read_bytes() == (golden / f"{name}.out").read_bytes(), name


def test_stop_and_validate_run_without_scipy(tmp_path, capsys):
    """With scipy unimportable, a fresh interpreter runs validate, which
    prints what it prints with scipy, stop on the m = 1 q-series route, and
    the three continuous-fit stop golden configs with their golden bytes."""
    m1 = tmp_path / "m1.json"
    model = {"lambda": 0.5, "rho": 0.5, "Q": [[-1.0]], "alpha": [1.0], "t": {"variant": "zero"}}
    m1.write_text(json.dumps({"model": model}), encoding="utf-8")
    results = run_without_scipy([["validate"], ["stop", "--config", str(m1)]])
    assert [exit_code for exit_code, _ in results] == [0, 0]
    assert main(["validate"]) == 0
    assert results[0][1] == capsys.readouterr().out
    assert_golden_without_scipy(["stop-chain2-point", "stop-m2-exp", "stop-m2-identity"], tmp_path)


def test_passage_and_simulate_run_without_scipy(tmp_path):
    """With scipy unimportable, a fresh interpreter runs passage (on both
    routes: passage-m2-lam0.99 takes the Nystrom one) and simulate on their
    golden configs and prints and writes the golden bytes."""
    assert_golden_without_scipy(["passage-m2-zero", "passage-m2-lam0.99", "simulate-m2-base"], tmp_path)


def test_benchmark_self_tests_pass():
    """bench/test_bench.py, run as its README says, passes: it pins the
    tracer's binding sites and counters, so a rename that breaks one fails
    here."""
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "test_bench.py")],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


def test_cli_import_builds_no_parser():
    """The argument parser is built on the first main call, not at import."""
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda *a, **k: built.append(1) or init(*a, **k)\n"
            "import arphase.cli\n"
            "print(len(built))\n")
    assert fresh_stdout(code) == "0\n"


# scipy included: the tests and the benchmark use it as a reference, the package never.
TEST_ONLY = {"mpmath", "hypothesis", "pytest", "scipy"}


def top_level_imports(source: str) -> set[str]:
    """Top-level package names of every absolute import."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_scan_flags_a_test_only_import():
    source = ("import mpmath.libmp\nfrom hypothesis import given\nfrom .errors import X\n"
              "def f():\n    from scipy import optimize\n")
    assert top_level_imports(source) & TEST_ONLY == {"mpmath", "hypothesis", "scipy"}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "arphase").glob("*.py")), ids=lambda p: p.name)
def test_no_test_only_dependency(path):
    assert top_level_imports(path.read_text(encoding="utf-8")) & TEST_ONLY == set()


def test_readme_library_sketch_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_lists_every_config_variant():
    """README § CLI lists each model.t and gain variant with its keys, the
    rows of NegativePart.PARAMS and GainFunction.PARAMS."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = {}
    rows = re.findall(r"^\| `(model\.t|gain)` \| `(\w+)` \| (.*) \|$", readme, re.M)
    for block, variant, keys in rows:
        listed.setdefault(block, {})[variant] = re.findall(r"`(\w+)`", keys)
    tables = {"model.t": NegativePart.PARAMS, "gain": GainFunction.PARAMS}
    assert listed == {block: {v: list(p) for v, p in t.items()} for block, t in tables.items()}
