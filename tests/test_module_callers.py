"""Only code that runs: every module has a caller outside the tests.

A module whose public names are referenced only by its own unit tests
(and by its package ``__init__`` re-exporting them) models nothing any
figure, example, benchmark or script reaches. This guard fails on such a
module so it is deleted, or wired in, rather than kept alive by its tests.

A name counts as referenced when another program file loads it as a
name or an attribute, or imports it; comments, docstrings and
definitions do not count. The module's own package ``__init__`` counts
only where its code uses a name, not where it imports it to re-export.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: The program files whose references count (everything but ``tests/``).
CALLER_DIRS = ("src", "examples", "benchmarks", "bench", "scripts")


def _loads(tree):
    """Identifiers a file loads as a name or an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            found.add(node.attr)
    return found


def _imports(tree):
    """Identifiers a file imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            found.update(node.name.split("."))
    return found


def _public_names(tree):
    """``__all__`` when the module declares one, else its top-level
    public definitions and assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "__all__" in targets:
                return set(ast.literal_eval(node.value))
            names.update(targets)
        elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
    return {name for name in names if not name.startswith("_")}


def _program_files():
    for directory in CALLER_DIRS:
        yield from sorted((ROOT / directory).rglob("*.py"))


TREES = {path: ast.parse(path.read_text()) for path in _program_files()}
LOADS = {path: _loads(tree) for path, tree in TREES.items()}
REFERENCES = {path: LOADS[path] | _imports(tree)
              for path, tree in TREES.items()}

MODULES = sorted(
    path for path in SRC.rglob("*.py")
    if path.name not in ("__init__.py", "__main__.py"))


@pytest.mark.parametrize(
    "module", MODULES, ids=[m.relative_to(SRC).as_posix() for m in MODULES])
def test_module_has_a_caller_outside_the_tests(module):
    own_init = module.parent / "__init__.py"
    public = _public_names(ast.parse(module.read_text()))
    callers = sorted(
        path.relative_to(ROOT).as_posix()
        for path, names in REFERENCES.items()
        if path not in (module, own_init) and public & names)
    if public & LOADS[own_init]:
        callers.append(own_init.relative_to(ROOT).as_posix())
    assert callers, (
        f"no program file outside tests/ uses any of {sorted(public)}")
