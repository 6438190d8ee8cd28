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

Two more guards work on values rather than names, over the same program
files:

- **Unset knobs.** A defaulted parameter of a ``src/repro`` function,
  method or constructor, or a defaulted dataclass/``NamedTuple`` field,
  that no program call sets is an option with one value in use: delete
  it and keep the value. A call sets it by keyword, by position, through
  ``*args``/``**kwargs``, ``functools.partial``, ``Process(target=...)``,
  ``cls(...)``, ``super().__init__(...)`` or ``dataclasses.replace``.
  A ``**`` splat whose keys are known sets only those keys: a dict
  literal, or a name its scope binds only to a row of a module-level
  table of dict literals (``shape = WORKER_LANES[lane]``). Callees match
  by identifier, as names do. A record field the program
  assigns after construction is state, not a knob.
- **Write-only state.** An attribute ``src/repro`` assigns, or a record
  field it declares, that no program file reads (as an attribute, a
  ``getattr`` name or through ``asdict(self)``) is state nothing uses.

A parameter only tests set, or an attribute only tests read, counts as
unset or unread. ``ALLOWED_KNOBS`` and ``ALLOWED_STATE`` keep the
exceptions with a reason: ``config.py``'s calibration tables, policy
tables tests vary, counters tests observe and values digest pins hash.
The harnesses ``EXPERIMENTS`` registers need no entry; tests shrink runs
through their parameters. A stale entry fails.
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


_TABLE = ("calibration table: paper-stated and calibrated constants, one "
          "value each, read by name where a model needs them")
_COUNTER = "counter: tests observe it"

#: Defaulted parameters and record fields no program call sets, kept on
#: purpose: ``module::Function(param)`` or ``module::Record.field``, or
#: ``module::Name`` for every unset knob of one function or record ->
#: why it stays. The harnesses ``EXPERIMENTS`` registers need no entry:
#: their parameters are the sweep sizes tests shrink runs through.
ALLOWED_KNOBS = {
    **{f"config.py::{table}": _TABLE for table in (
        "DroneConstants", "CarConstants", "ClusterConstants",
        "WirelessConstants", "ServerlessConstants",
        "AccelerationConstants", "ControlConstants", "PaperConstants")},
    "serving/admission.py::AdmissionConfig":
        "policy table: tests/serving/test_policies.py drives the gate "
        "through other bounds",
    "serving/autoscale.py::AutoscaleConfig":
        "policy table: the region pricing pins autoscale with other "
        "windows",
    "serving/__init__.py::ServingConfig.admission_enabled":
        "the region pricing pins serve a tenant with the gate off",
    "serving/load.py::generate_serving_calls(max_calls)":
        "tests hit the per-tenant backstop without a million-call stream",
    "edge/meanfield.py::validate_cells":
        "reference (see ALLOWED): the mean-field tests pick its grid",
    "sim/kernel.py::Environment.__init__(initial_time)":
        "kernel contract: tests start clocks away from zero",
    "sim/kernel.py::Environment.timeout(value)":
        "kernel contract: tests deliver values through pooled timeouts",
    "sim/kernel.py::Event.succeed(priority)":
        "kernel contract: the dispatch-order pin drives the urgent lane "
        "through it",
}

#: Attributes no program reads, kept on purpose: ``module::Owner.attr``
#: or ``module::Record`` for all its fields -> why it stays.
ALLOWED_STATE = {
    **{f"config.py::{table}": "calibration table: its unread constants "
       "record the paper's stated hardware and settings" for table in (
        "DroneConstants", "CarConstants", "WirelessConstants",
        "ServerlessConstants", "PaperConstants")},
    "edge/device.py::EdgeDevice.motion_s":
        "the flight pins (tests/edge/test_engine_parity.py) digest it",
    "edge/sensors.py::FrameBatch.total_mb":
        "the flight pins digest each batch's size",
    "edge/meanfield.py::MeanFieldCell.details":
        "the platform pins digest a cell's details",
    "network/rpc.py::RpcResult":
        "tests check an RPC's cost split against its total",
    "network/rpc.py::RpcTimeout.attempts": _COUNTER,
    "hardware/remote_memory.py::RemoteMemoryFabric.reads": _COUNTER,
    "hardware/remote_memory.py::RemoteMemoryFabric.writes": _COUNTER,
    "learning/classifier.py::DeduplicationEngine.observations": _COUNTER,
    "routing/maze.py::WallFollower.steps": _COUNTER,
    "serverless/couchdb.py::CouchDB.operations": _COUNTER,
    "serverless/kafka.py::KafkaBus.published": _COUNTER,
    "sim/kernel.py::Environment.dispatched": _COUNTER,
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


#: Callee key of ``dataclasses.replace(record, **fields)`` and
#: ``record._replace(**fields)``: sets record fields by keyword.
_REPLACE = "<replace>"


def _name_of(node):
    """The identifier an expression ends in: ``f`` for ``f`` and ``a.b.f``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _decorators(node):
    return {_name_of(d.func if isinstance(d, ast.Call) else d)
            for d in node.decorator_list}


def _is_record(cls):
    """A dataclass or ``NamedTuple``: its annotated class-body names are
    fields its constructor sets."""
    return ("dataclass" in _decorators(cls)
            or any(_name_of(base) == "NamedTuple" for base in cls.bases))


def _walk(tree):
    """Every node with its nearest enclosing class (or ``None``)."""
    stack = [(tree, None)]
    while stack:
        node, cls = stack.pop()
        yield node, cls
        inner = node if isinstance(node, ast.ClassDef) else cls
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))


def _classes(source):
    """``{name: ClassDef}`` and ``{base name: [subclass ClassDef]}``."""
    classes, children = {}, {}
    for tree in source.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node
                for base in node.bases:
                    children.setdefault(_name_of(base), []).append(node)
    return classes, children


def _fields(cls, classes):
    """A record's fields in constructor order, inherited ones first:
    ``[(name, has_default, is_init)]``. A ``default_factory`` is not a
    default here: it starts fresh per-record state (an empty ledger, the
    next id) that no call is meant to pass."""
    inherited = []
    for base in cls.bases:
        parent = classes.get(_name_of(base))
        if parent is not None and _is_record(parent):
            inherited = _fields(parent, classes)
    own = []
    for node in cls.body:
        if (not isinstance(node, ast.AnnAssign)
                or not isinstance(node.target, ast.Name)
                or "ClassVar" in ast.unparse(node.annotation)):
            continue
        value, init = node.value, True
        if isinstance(value, ast.Call) and _name_of(value.func) == "field":
            options = {k.arg: k.value for k in value.keywords}
            flag = options.get("init")
            init = not (isinstance(flag, ast.Constant) and flag.value is False)
            default = "default" in options
        else:
            default = value is not None
        own.append((node.target.id, default, init))
    return inherited + own


def _defines_init(cls):
    return _is_record(cls) or any(
        isinstance(node, ast.FunctionDef) and node.name == "__init__"
        for node in cls.body)


def _constructors(cls, children, record):
    """Names whose call runs ``cls``'s constructor: the class and the
    subclasses that inherit it (for a record, every subclass, since a
    derived record keeps the base fields' positions)."""
    found = {cls.name}
    for child in children.get(cls.name, ()):
        if record or not _defines_init(child):
            found |= _constructors(child, children, record)
    return found


def _knobs(tree, classes, children):
    """``(qualified, callees, position, parameter)`` for every defaulted
    parameter and record field a module defines; ``position`` is the
    positional slot a call fills it through, ``None`` for keyword-only."""
    for node, cls in _walk(tree):
        if isinstance(node, ast.ClassDef) and _is_record(node):
            callees = _constructors(node, children, True) | {_REPLACE}
            own = {n.target.id for n in node.body
                   if isinstance(n, ast.AnnAssign)
                   and isinstance(n.target, ast.Name)}
            fields = [f for f in _fields(node, classes) if f[2]]
            for index, (name, default, _) in enumerate(fields):
                if default and name in own:
                    yield f"{node.name}.{name}", callees, index, name
            continue
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        method = cls is not None and node in cls.body
        dunder = node.name.startswith("__") and node.name.endswith("__")
        if (dunder and node.name != "__init__") or "property" in _decorators(
                node):
            continue
        if node.name == "__init__" and method:
            callees = _constructors(cls, children, False)
        else:
            callees = {node.name}
        owner = f"{cls.name}.{node.name}" if method else node.name
        offset = int(method and "staticmethod" not in _decorators(node))
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], first):
            yield f"{owner}({arg.arg})", callees, index - offset, arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{owner}({arg.arg})", callees, None, arg.arg


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _literal_keys(node):
    """The keys of a dict literal whose keys are all strings, else None."""
    if isinstance(node, ast.Dict) and all(
            isinstance(key, ast.Constant) and isinstance(key.value, str)
            for key in node.keys):
        return {key.value for key in node.keys}
    return None


def _tables(tree):
    """``{name: keys}`` for each module-level dict whose values are all
    dict literals: the union of those literals' keys."""
    tables = {}
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        if not isinstance(getattr(node, "value", None), ast.Dict):
            continue
        rows = [_literal_keys(value) for value in node.value.values]
        if rows and None not in rows:
            for target in targets:
                if isinstance(target, ast.Name):
                    tables[target.id] = set().union(*rows)
    return tables


def _own_nodes(scope):
    """The nodes of ``scope`` outside the functions and classes nested in
    it (those nodes themselves included)."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*_SCOPES, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _bindings(scope, tables):
    """``{name: keys}`` for the names ``scope`` binds: the keys of a
    ``tables`` row when every binding is ``name = TABLE[...]``, else
    None."""
    found = {}
    if isinstance(scope, _SCOPES):
        args = scope.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                    args.vararg, args.kwarg):
            if arg is not None:
                found[arg.arg] = None
    rows = {}
    for node in _own_nodes(scope):
        if (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Subscript)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in tables):
            for target in node.targets:
                rows[id(target)] = tables[node.value.value.id]
    for node in _own_nodes(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            keys = rows.get(id(node))
            if node.id in found:
                keys = (None if keys is None or found[node.id] is None
                        else found[node.id] | keys)
            found[node.id] = keys
    return found


def _splats(tree):
    """``{id(value): keys}`` for each ``**value`` splat whose keys are
    known: a dict literal's, or for a name the innermost scope binding it
    assigns from a subscript of a module-level table, that table's."""
    tables = _tables(tree)
    known = {}

    def visit(scope, enclosing):
        bindings = [_bindings(scope, tables), *enclosing]
        # A class body does not enclose its methods.
        inner = enclosing if isinstance(scope, ast.ClassDef) else bindings
        for node in _own_nodes(scope):
            if isinstance(node, (*_SCOPES, ast.ClassDef)):
                visit(node, inner)
            elif isinstance(node, ast.Call):
                for value in (k.value for k in node.keywords
                              if k.arg is None):
                    keys = _literal_keys(value)
                    if isinstance(value, ast.Name):
                        keys = next((names[value.id] for names in bindings
                                     if value.id in names), None)
                    if keys is not None:
                        known[id(value)] = keys

    visit(tree, [])
    return known


def _call_sites(tree):
    """``{callee: [(positional count, keywords, open)]}`` for every call in
    a file; ``open`` when ``*args`` or ``**kwargs`` may fill any slot.
    A ``**`` splat whose keys :func:`_splats` knows sets only those
    keys. ``functools.partial(f, ...)`` and ``Process(target=f,
    args=...)`` call ``f``; ``cls(...)`` and ``type(self)(...)`` call the
    enclosing class; ``super().__init__(...)`` calls its bases."""
    sites = {}
    splats = _splats(tree)
    for node, cls in _walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        options = {k.arg: k.value for k in node.keywords}
        if _name_of(func) == "partial" and args:
            func, args = args[0], args[1:]
        elif "target" in options:
            func = options["target"]
            packed = options.get("args")
            args = (packed.elts if isinstance(packed, ast.Tuple)
                    else [ast.Starred(packed)] if packed else [])
        name = _name_of(func)
        if (cls is not None and name == "__init__"
                and isinstance(func.value, ast.Call)
                and _name_of(func.value.func) == "super"):
            callees = {_name_of(base) for base in cls.bases}
        elif cls is not None and (name == "cls" or (
                isinstance(func, ast.Call) and _name_of(func.func) == "type")):
            callees = {cls.name}
        elif name in ("replace", "_replace"):
            callees = {_REPLACE}
        else:
            callees = {name}
        keywords = {k.arg for k in node.keywords if k.arg}
        for k in node.keywords:
            if k.arg is None:
                keywords |= splats.get(id(k.value), set())
        site = (sum(not isinstance(a, ast.Starred) for a in args),
                keywords,
                any(isinstance(a, ast.Starred) for a in args)
                or any(k.arg is None and id(k.value) not in splats
                       for k in node.keywords))
        for callee in callees:
            sites.setdefault(callee, []).append(site)
    return sites


def unset_knobs(program, source):
    """``{module: {qualified}}``: the defaulted parameters and record
    fields of ``source`` modules that no call in ``program`` sets."""
    sites = {}
    for tree in program.values():
        for callee, found in _call_sites(tree).items():
            sites.setdefault(callee, []).extend(found)
    classes, children = _classes(source)
    # A record field the program assigns after construction is state, and
    # its default only its initial value: a store on ``self`` in the
    # record's own class, or on any other object by that field name.
    assigned = set()
    for tree in source.values():
        for qualified, name in _assignments(tree).items():
            owner = qualified[:-len(name) - 1]
            assigned.add(qualified if owner in classes else name)
    unset = {}
    for path, tree in source.items():
        for qualified, callees, position, name in _knobs(
                tree, classes, children):
            if _REPLACE in callees and (
                    name in assigned or qualified in assigned):
                continue
            if not any(
                    name in keywords or opened or (
                        position is not None and callee != _REPLACE
                        and count > position)
                    for callee in callees
                    for count, keywords, opened in sites.get(callee, ())):
                unset.setdefault(path, set()).add(qualified)
    return unset


def _assignments(tree):
    """``{qualified: attribute}`` for every attribute a file assigns; a
    store on ``self`` is qualified by its class."""
    found = {}
    for node, cls in _walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)):
            owner = ast.unparse(node.value)
            if owner == "self" and cls is not None:
                owner = cls.name
            found[f"{owner}.{node.attr}"] = node.attr
    return found


def _stores(tree, classes):
    """``{qualified: attribute}`` for every attribute a file assigns and
    every record field it declares."""
    found = _assignments(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_record(node):
            for name, _, _ in _fields(node, classes):
                found[f"{node.name}.{name}"] = name
    return found


def _attribute_reads(tree, classes):
    """Attribute names a file reads: attribute loads, identifier strings
    (``getattr`` names, ``attrgetter`` tables) and, for ``asdict(self)``,
    every field of the enclosing record."""
    found = set()
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant)}
    for node, cls in _walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in docstrings):
            found.add(node.value)
        elif (isinstance(node, ast.Call) and cls is not None
              and _name_of(node.func) in ("asdict", "astuple")
              and [ast.unparse(a) for a in node.args] == ["self"]):
            found.update(name for name, _, _ in _fields(cls, classes))
    return found


def write_only_state(program, source):
    """``{module: {qualified}}``: the attributes ``source`` modules store
    that no file in ``program`` reads."""
    classes, _ = _classes(source)
    read = set().union(*(_attribute_reads(tree, classes)
                         for tree in program.values()))
    unread = {}
    for path, tree in source.items():
        for qualified, name in _stores(tree, classes).items():
            if name not in read:
                unread.setdefault(path, set()).add(qualified)
    return unread


SOURCE = {path: TREES[path] for path in SRC.rglob("*.py")}
UNSET = unset_knobs(TREES, SOURCE)
UNREAD = write_only_state(TREES, SOURCE)


def _harnesses():
    """``{(module, function)}`` for every harness ``EXPERIMENTS`` maps."""
    registry = SRC / "experiments" / "registry.py"
    for node in TREES[registry].body:
        if (isinstance(node, ast.AnnAssign)
                and _name_of(node.target) == "EXPERIMENTS"):
            return {(registry.with_name(f"{value.value.id}.py"), value.attr)
                    for value in node.value.values}
    raise AssertionError("registry.py defines no EXPERIMENTS table")


HARNESSES = _harnesses()


def _unexplained(module, found, allowed):
    """``found`` minus what ``allowed`` names for ``module``."""
    prefix = module.relative_to(SRC).as_posix() + "::"
    return sorted(
        item for item in found
        if not any(item == key[len(prefix):]
                   or item.startswith(key[len(prefix):] + "(")
                   or item.startswith(key[len(prefix):] + ".")
                   for key in allowed if key.startswith(prefix)))


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


@pytest.mark.parametrize("module", sorted(SOURCE),
                         ids=[m.relative_to(SRC).as_posix()
                              for m in sorted(SOURCE)])
def test_defaults_are_set_by_a_program_call(module):
    found = {knob for knob in UNSET.get(module, ())
             if (module, knob.split("(")[0]) not in HARNESSES}
    unset = _unexplained(module, found, ALLOWED_KNOBS)
    assert not unset, (
        f"no program call sets {unset}: delete the option and keep its "
        f"one value, or list it in ALLOWED_KNOBS with a reason")


@pytest.mark.parametrize("module", sorted(SOURCE),
                         ids=[m.relative_to(SRC).as_posix()
                              for m in sorted(SOURCE)])
def test_stored_attributes_are_read(module):
    unread = _unexplained(module, UNREAD.get(module, ()), ALLOWED_STATE)
    assert not unread, (
        f"no program file reads {unread}: delete the state, or list it "
        f"in ALLOWED_STATE with a reason")


@pytest.mark.parametrize("allowed,found", [
    *((key, UNSET) for key in sorted(ALLOWED_KNOBS)),
    *((key, UNREAD) for key in sorted(ALLOWED_STATE))],
    ids=[*sorted(ALLOWED_KNOBS), *(f"state:{key}"
                                  for key in sorted(ALLOWED_STATE))])
def test_allowed_value_is_current(allowed, found):
    module = SRC / allowed.split("::")[0]
    assert module in SOURCE, f"{allowed} names no module under src/repro"
    items = found.get(module, set())
    assert _unexplained(module, items, {allowed: ""}) != sorted(items), (
        f"{allowed} matches nothing the guard finds: drop it")


_SYNTHETIC_SOURCE = '''
from dataclasses import dataclass


def by_keyword(x, knob=1):
    return x


def by_position(x, knob=1):
    return x


def by_kwargs(x, knob=1):
    return x


def by_args(x, knob=1):
    return x


def by_partial(x, knob=1):
    return x


def by_target(x, knob=1):
    return x


def by_literal(x, knob=1, other=1):
    return x


def by_table(x, knob=1, other=1):
    return x


def by_rebound(x, knob=1, other=1):
    return x


def never(x, knob=1):
    return x


class Thing:
    def __init__(self):
        self.read = 1
        self.unread = 2

    def method(self, knob=1):
        return knob


class ByCls:
    def __init__(self, knob=1):
        self.knob = knob

    @classmethod
    def make(cls):
        return cls(knob=2)


class ViaSuper:
    def __init__(self, knob=1):
        self.knob = knob


class Sub(ViaSuper):
    def __init__(self, other=1):
        super().__init__(2)
        self.other = other


@dataclass
class Record:
    name: str
    knob: int = 1
    unset: int = 2
'''

_SYNTHETIC_CALLER = '''
import functools
import multiprocessing

LANES = {"a": {"knob": 2}, "b": {"knob": 3}}


def main(options, values, lane):
    by_keyword(1, knob=2)
    by_position(1, 2)
    by_kwargs(1, **options)
    by_args(*values)
    functools.partial(by_partial, 1, 2)()
    multiprocessing.Process(target=by_target, args=(1, 2)).start()
    by_literal(1, **{"knob": 2})
    shape = LANES[lane]

    def inner():
        by_table(1, **shape)

    inner()
    rebound = LANES[lane]
    rebound = options
    by_rebound(1, **rebound)
    Thing().method(3)
    Sub(other=3)
    record = Record("a", knob=3)
    return Thing().read, ByCls.make().knob, record.name, record.knob
'''


def test_value_guards_flag_exactly_the_planted_cases():
    """On a small synthetic tree the guards flag the unset default and
    the write-only attribute, and none of the ways a call can set a
    parameter: keyword, position, ``**kwargs``, ``*args``,
    ``functools.partial``, ``Process(target=...)``, ``cls(...)`` and
    ``super().__init__(...)``. A ``**`` splat of a dict literal, or of a
    name bound only to a row of a module-level table of dict literals,
    sets only those keys; any other splat sets every parameter. A guard
    that passed everything fails here."""
    source = {pathlib.Path("mod.py"): ast.parse(_SYNTHETIC_SOURCE)}
    program = {**source,
               pathlib.Path("main.py"): ast.parse(_SYNTHETIC_CALLER)}
    unset = unset_knobs(program, source)
    assert unset == {pathlib.Path("mod.py"): {
        "never(knob)", "by_literal(other)", "by_table(other)",
        "Record.unset"}}
    unread = write_only_state(program, source)
    assert unread == {pathlib.Path("mod.py"): {
        "Thing.unread", "Sub.other", "Record.unset"}}
