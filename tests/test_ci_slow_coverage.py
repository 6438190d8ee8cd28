"""Every slow-marked test runs in CI.

Tier-1 deselects ``@pytest.mark.slow`` tests (``pyproject.toml`` sets
``-m "not slow"``), so a slow test runs only where a CI step names its
module, or a directory holding it, in a pytest command that re-enables
the mark (``-m ""`` or ``-m slow``). This test fails on a test module
with a slow-marked test that no such step names.
"""

import ast
import pathlib
import shlex

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
TEST_DIRS = ("tests", "benchmarks", "bench")


def _run_commands(text):
    """The shell text of every ``run:`` in a workflow, folded blocks
    (``run: >`` / ``run: |``) joined onto one line."""
    commands, lines = [], text.splitlines()
    for index, line in enumerate(lines):
        key, _, value = line.strip().partition(":")
        if key not in ("run", "- run"):
            continue
        value = value.strip()
        if value in (">", "|", ">-", "|-"):
            indent = len(line) - len(line.lstrip())
            block = []
            for follow in lines[index + 1:]:
                if follow.strip() and (len(follow) - len(follow.lstrip())
                                       <= indent):
                    break
                block.append(follow.strip())
            value = " ".join(block)
        commands.append(value)
    return commands


def slow_enabled_targets(text):
    """Paths named by pytest commands that run slow-marked tests."""
    targets = set()
    for command in _run_commands(text):
        for part in command.split("&&"):
            try:
                words = shlex.split(part)
            except ValueError:
                continue
            if "pytest" not in words:
                continue
            marks = [words[i + 1] for i, word in enumerate(words[:-1])
                     if word == "-m"]
            if not any(mark in ("", "slow") for mark in marks):
                continue
            targets.update(word.rstrip("/") for word in words
                           if word.startswith(TEST_DIRS))
    return targets


def _marks_slow(node):
    """A ``@pytest.mark.slow`` decorator, or a module-level
    ``pytestmark`` that includes the mark."""
    if (isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "pytestmark"
                    for t in node.targets)):
        return "mark.slow" in ast.unparse(node.value)
    return any(ast.unparse(d).endswith("mark.slow")
               for d in getattr(node, "decorator_list", ()))


def slow_modules():
    """Test modules holding at least one slow-marked test or class."""
    for directory in TEST_DIRS:
        for path in sorted((ROOT / directory).rglob("test_*.py")):
            if any(_marks_slow(node)
                   for node in ast.walk(ast.parse(path.read_text()))):
                yield path.relative_to(ROOT).as_posix()


def _covered(module, targets):
    return any(module == target or module.startswith(target + "/")
               for target in targets)


def test_every_slow_module_runs_in_ci():
    targets = slow_enabled_targets(WORKFLOW.read_text())
    missing = [module for module in slow_modules()
               if not _covered(module, targets)]
    assert not missing, (
        f"slow-marked tests in {missing} run in no CI job: name them in "
        f"a pytest step of {WORKFLOW.relative_to(ROOT)} with -m \"\"")


def test_the_scan_sees_slow_modules_and_steps():
    """A parser that finds nothing would pass the check above."""
    modules = list(slow_modules())
    assert "tests/sim/test_shard_speedup.py" in modules
    workflow = """
      - name: a
        run: python -m pytest tests/a.py -m ""
      - name: b
        run: >
          python -m pytest tests/b.py
          tests/c -m ""
      - name: c
        run: python -m pytest tests/d.py
    """
    targets = slow_enabled_targets(workflow)
    assert targets == {"tests/a.py", "tests/b.py", "tests/c"}
    assert _covered("tests/c/test_e.py", targets)
    assert not _covered("tests/d.py", targets)
