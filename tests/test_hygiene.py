"""Source and documentation hygiene.

No linter ships with the toolchain, so unused imports (in the package and
in the tests), public names that only tests use and imports of test-only
packages are found by parsing each module with ast; the README's library
sketch is run verbatim so it cannot name functions the package no longer
has.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_cli_import_loads_no_scipy_solver():
    """scipy.optimize and scipy.special load on first use, not with the CLI."""
    code = "import sys, arphase.cli; print({'scipy.optimize', 'scipy.special'} & set(sys.modules))"
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert out.stdout == "set()\n"


TEST_ONLY = {"mpmath", "hypothesis", "pytest"}


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
    source = "import mpmath.libmp\nfrom hypothesis import given\nfrom .errors import X\n"
    assert top_level_imports(source) & TEST_ONLY == {"mpmath", "hypothesis"}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "arphase").glob("*.py")), ids=lambda p: p.name)
def test_no_test_only_dependency(path):
    assert top_level_imports(path.read_text(encoding="utf-8")) & TEST_ONLY == set()


def test_readme_library_sketch_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
