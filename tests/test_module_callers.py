"""Only code that runs: every module and every public name has a caller
outside the tests.

A module whose public names are referenced only by its own unit tests
(and by its package ``__init__`` re-exporting them) models nothing any
figure, example, benchmark or script reaches. The same holds one level
down: a public function, class, method or property that only tests call
is kept alive by its tests alone. These guards fail on either, so the
code is deleted, or wired in, rather than kept.

A name counts as referenced when a program file loads it as a name or an
attribute, or imports it; comments, docstrings and definitions do not
count. Program files are everything under ``CALLER_DIRS``: ``tests/``
and ``benchmarks/`` (pytest shape checks of the figures) are test code.
Imports in a package ``__init__`` are re-exports and do not count; its
code counts where it uses a name. References are matched by identifier,
so a method counts as used when any program file loads an attribute of
that name.

A few names are kept although no program calls them: read-only
accessors through which tests observe a run, reference code the tests
compare the program against, and the README knob-table generator.
``ALLOWED`` lists each with its reason; an entry fails the guard once its
name is gone or a program starts using it.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: The program files whose references count.
CALLER_DIRS = ("src", "examples", "bench", "scripts")

#: Public names no program calls, kept on purpose: ``Class.member`` or a
#: top-level name -> why it stays.
ALLOWED = {
    "Server.free_memory_mb":
        "accessor: tests observe a server's memory reservations",
    "FailureDetector.alive_count":
        "accessor: tests observe how many devices the detector holds live",
    "FieldWorld.item_count":
        "accessor: tests observe the items placed in the field",
    "FieldWorld.people_count":
        "accessor: tests observe the people walking the field",
    "InvariantChecker.ok":
        "accessor: tests read a run's invariant verdict",
    "RemoteMemoryFabric.object_count":
        "accessor: tests observe the objects the fabric holds",
    "RemoteMemoryFabric.resident_mb":
        "accessor: tests observe the fabric's resident megabytes",
    "NearestCentroidClassifier.centroid_estimate":
        "accessor: tests observe a learned centroid",
    "DeduplicationEngine.cluster_sizes":
        "accessor: tests observe the dedup clusters",
    "OnlineRecognizer.training_observations":
        "accessor: tests observe a device's retraining input",
    "ClusterNetwork.has_server":
        "accessor: tests observe which servers the fabric registered",
    "SpanTracer.traces":
        "accessor: tests observe the spans of a traced run by trace",
    "Region.area":
        "accessor: tests check that partitions conserve the field area",
    "Region.contains":
        "accessor: tests check that coverage routes stay in their region",
    "FunctionContainer.is_warm":
        "accessor: tests observe a container's keep-alive state",
    "CouchDB.has_document":
        "accessor: tests observe what a run persisted",
    "CouchDB.document_count":
        "accessor: tests observe how many documents a run persisted",
    "Invoker.warm_count":
        "accessor: tests observe an invoker's warm pool",
    "Event.ok":
        "accessor: tests observe whether a kernel event succeeded",
    "validate_cells":
        "reference: the mean-field tests compare against exact cells",
    "knob_table":
        "generator of the README knob table, which a test holds current",
}


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


def _definitions(tree):
    """``{qualified name: identifier}`` for the public top-level functions
    and classes, and the public methods and properties of public
    classes."""
    found = {}
    for node in tree.body:
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        found[node.name] = node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, ast.FunctionDef)
                        and not member.name.startswith("_")):
                    found[f"{node.name}.{member.name}"] = member.name
    return found


def _program_files():
    for directory in CALLER_DIRS:
        yield from sorted((ROOT / directory).rglob("*.py"))


TREES = {path: ast.parse(path.read_text()) for path in _program_files()}
LOADS = {path: _loads(tree) for path, tree in TREES.items()}
IMPORTS = {path: _imports(tree) for path, tree in TREES.items()}
REFERENCES = {path: LOADS[path] | IMPORTS[path] for path in TREES}
#: Every identifier the program uses; re-exports in ``__init__`` aside.
USED = set().union(*(
    LOADS[path] if path.name == "__init__.py" else REFERENCES[path]
    for path in TREES))

MODULES = sorted(
    path for path in SRC.rglob("*.py")
    if path.name not in ("__init__.py", "__main__.py"))
MODULE_IDS = [m.relative_to(SRC).as_posix() for m in MODULES]
DEFINITIONS = {module: _definitions(TREES[module]) for module in MODULES}


def test_caller_dirs_exist():
    """A renamed directory must not silently empty the caller set."""
    missing = [d for d in CALLER_DIRS if not (ROOT / d).is_dir()]
    assert not missing, f"CALLER_DIRS entries not found: {missing}"


@pytest.mark.parametrize("module", MODULES, ids=MODULE_IDS)
def test_module_has_a_caller_outside_the_tests(module):
    own_init = module.parent / "__init__.py"
    public = _public_names(TREES[module])
    callers = sorted(
        path.relative_to(ROOT).as_posix()
        for path, names in REFERENCES.items()
        if path not in (module, own_init) and public & names)
    if public & LOADS[own_init]:
        callers.append(own_init.relative_to(ROOT).as_posix())
    assert callers, (
        f"no program file outside tests/ uses any of {sorted(public)}")


@pytest.mark.parametrize("module", MODULES, ids=MODULE_IDS)
def test_names_have_a_caller_outside_the_tests(module):
    unused = sorted(
        qualified for qualified, name in DEFINITIONS[module].items()
        if name not in USED and qualified not in ALLOWED)
    assert not unused, (
        f"no program file outside tests/ uses {unused}: delete them, "
        f"or list them in ALLOWED with a reason")


@pytest.mark.parametrize("qualified", sorted(ALLOWED))
def test_allowed_name_is_current(qualified):
    defined = {q: name for names in DEFINITIONS.values()
               for q, name in names.items()}
    assert qualified in defined, (
        f"ALLOWED names {qualified}, which no module defines any more")
    used = defined[qualified] in USED
    assert not used, f"a program now uses {qualified}: drop it from ALLOWED"
