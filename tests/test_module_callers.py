"""Only code that runs: every module and every public name has a caller
outside the tests.

A module whose public names are referenced only by its own unit tests
(and by its package ``__init__`` re-exporting them) models nothing any
figure, example, benchmark or script reaches. The same holds one level
down: a public function, class, method or property that only tests call
is kept alive by its tests alone. These guards fail on either, so the
code is deleted, or wired in, rather than kept.

A top-level name counts as referenced when a program file loads or
imports it; comments, docstrings and definitions do not count, and
neither does a load that sees a local or parameter of the same name. Program
files are everything under ``CALLER_DIRS``: ``tests/`` and
``benchmarks/`` (pytest shape checks of the figures) are test code.
Imports in a package ``__init__`` are re-exports and do not count; its
code counts where it uses a name. A method or property counts as used
only where an attribute load's receiver may be an instance of its class,
as far as :class:`Resolver` reads the receiver's type from the AST:
``self`` and ``cls`` are their class, and a name, attribute or record
field is typed by its annotation, else by the constructor calls and
annotated calls bound to it, and an item of an annotated sequence or
mapping by the container's annotation. A receiver of one class credits
that class, its bases and its subclasses. A builtin container, string
or number, or an imported non-program module (``np``, ``json``), credits
no class, and a bare-name load credits no method. A receiver the AST
does not type credits every class that defines the name, so the guard
never flags a name some program may reach.

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
  table of dict literals (``shape = WORKER_LANES[lane]``). A method is
  called where the receiver may be an instance of its class, resolved as
  for names; functions and constructors are called by name. A record
  field the program assigns after construction is state, not a knob.
- **Write-only state.** An attribute ``src/repro`` assigns, or a record
  field it declares, that no program file reads (as an attribute, a
  ``getattr`` name or through ``asdict(self)``) is state nothing uses.
  A store is the attribute of the classes its receiver is typed as,
  and an attribute load reads it only where its receiver may be an
  instance of that class, both resolved as for names. An untyped
  receiver, a ``getattr``/``attrgetter`` string and ``asdict(self)``
  read the name on every class.

A parameter only tests set, or an attribute only tests read, counts as
unset or unread. ``ALLOWED_KNOBS`` and ``ALLOWED_STATE`` keep the
exceptions with a reason: ``config.py``'s calibration tables, policy
tables tests vary, counters tests observe and values digest pins hash.
The harnesses ``EXPERIMENTS`` registers need no entry; tests shrink runs
through their parameters. A stale entry fails.
"""

import ast
import builtins
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
    "Server.busy_cores":
        "accessor: tests observe that a crash releases a server's cores",
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
        "kernel contract: tests deliver values through timeouts",
    "sim/kernel.py::Event.succeed(priority)":
        "kernel contract: the dispatch-order pin succeeds events at "
        "URGENT priority through it",
}

#: Attributes no program reads, kept on purpose: ``module::Owner.attr``
#: or ``module::Record`` for all its fields -> why it stays.
ALLOWED_STATE = {
    "edge/device.py::EdgeDevice.motion_s":
        "the flight pins (tests/edge/test_engine_parity.py) digest it",
    "edge/sensors.py::FrameBatch.total_mb":
        "the flight pins digest each batch's size",
    "edge/meanfield.py::MeanFieldCell.details":
        "the platform pins digest a cell's details",
    "edge/sensors.py::FrameBatch.position":
        "the flight pins digest each batch's position",
    "network/rpc.py::RpcTimeout.attempts": _COUNTER,
    "hardware/remote_memory.py::RemoteMemoryFabric.reads": _COUNTER,
    "hardware/remote_memory.py::RemoteMemoryFabric.writes": _COUNTER,
    "learning/classifier.py::DeduplicationEngine.observations": _COUNTER,
    "routing/maze.py::WallFollower.steps": _COUNTER,
    "serverless/kafka.py::KafkaBus.published": _COUNTER,
    **{f"serverless/{module}::Invocation.failures":
       "tests check that an invoker's respawns sum its invocations' "
       "failures" for module in ("function.py", "invoker.py")},
}


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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(scope):
    """The nodes of ``scope`` outside the functions and classes nested in
    it (those nodes themselves included)."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*_SCOPES, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


#: Owner tokens of a typed receiver besides class names: a program module
#: (its attributes are top-level names) and a builtin or an imported
#: non-program module or something one builds (it owns no program member).
_MODULE, _FOREIGN = "<module>", "<foreign>"
#: The type of a number, a string, a flag or ``None``: it owns nothing.
_NOTHING = frozenset()
_BUILTINS = frozenset(dir(builtins))

#: Annotation names of sequences and mappings; their items are typed.
_SEQUENCES = frozenset({
    "List", "Sequence", "Iterable", "Iterator", "Set", "FrozenSet",
    "AbstractSet", "Collection", "Deque", "MutableSequence", "list", "set",
    "frozenset", "deque"})
_MAPPINGS = frozenset({
    "Dict", "Mapping", "MutableMapping", "DefaultDict", "OrderedDict",
    "dict", "defaultdict"})
_SCALARS = frozenset({"str", "int", "float", "bool", "bytes", "complex"})
#: Builtins that return a number, a string or a flag.
_SCALAR_CALLS = frozenset({
    "abs", "all", "any", "bin", "bool", "callable", "chr", "divmod",
    "float", "format", "hash", "hex", "id", "int", "isinstance",
    "issubclass", "len", "ord", "pow", "print", "repr", "round", "str",
    "sum"})
#: Builtins that return a sequence of their argument's items.
_SEQUENCE_CALLS = frozenset({
    "iter", "frozenset", "list", "reversed", "set", "sorted", "tuple"})


def _union(types):
    """Every type of ``types`` together; unknown if any one is."""
    types = list(types)
    if any(t is None for t in types):
        return None
    return frozenset().union(*types)


def _seq(item):
    return frozenset({("seq", item)})


def _map(key, value):
    return frozenset({("map", key, value)})


class _Scope:
    """The names one module, class, function or lambda body binds. A name
    bound more than once has the union of its bindings' types, and its
    annotations replace its inferred bindings when it has any."""

    def __init__(self, resolver, node, parent):
        self.resolver, self.node = resolver, node
        self.outer = (parent.outer if isinstance(getattr(parent, "node", None),
                                                 ast.ClassDef) else parent)
        self.cls = node if isinstance(node, ast.ClassDef) else getattr(
            parent, "cls", None)
        self.self_name = getattr(parent, "self_name", None)
        self.nodes = list(_own_nodes(node))
        #: ``{name: ([declared], [inferred])}``, each a thunk of a type.
        self.bindings = {}
        self._types = {}
        #: The scope a ``global`` or ``nonlocal`` name binds in.
        self.owner = {}
        for child in self.nodes:
            if isinstance(child, (ast.Global, ast.Nonlocal)):
                for name in child.names:
                    scope = self.outer
                    while isinstance(child, ast.Global) and scope.outer:
                        scope = scope.outer
                    self.owner[name] = scope.where(name) or scope
        if isinstance(node, _SCOPES):
            self._parameters(node, parent)
        for child in self.nodes:
            self._collect(child)

    def _parameters(self, node, parent):
        args = node.args
        positional = args.posonlyargs + args.args
        method = (isinstance(parent.node, ast.ClassDef)
                  and not isinstance(node, ast.Lambda)
                  and "staticmethod" not in _decorators(node))
        self.self_name = positional[0].arg if method and positional else (
            None if isinstance(parent.node, ast.ClassDef) else self.self_name)
        annotation = self.resolver.annotation
        for index, arg in enumerate(positional + args.kwonlyargs):
            if method and index == 0:
                cls = frozenset({self.cls.name})
                self._bind(arg.arg, lambda cls=cls: cls, declared=True)
            elif arg.annotation is not None:
                self._bind(arg.arg, lambda a=arg.annotation: annotation(a),
                           declared=True)
            else:
                self._bind(arg.arg, lambda: None)
        if args.vararg is not None:
            self._bind(args.vararg.arg, lambda a=args.vararg.annotation: _seq(
                None if a is None else annotation(a)), declared=True)
        if args.kwarg is not None:
            self._bind(args.kwarg.arg, lambda: _map(_NOTHING, None))

    def _bind(self, name, thunk, declared=False):
        self.bindings.setdefault(name, ([], []))[not declared].append(thunk)

    def _collect(self, node):
        """Record the bindings ``node`` makes in this scope."""
        resolver, type_of = self.resolver, self.resolver.type_of
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._store(target, lambda v=node.value: type_of(v, self))
        elif isinstance(node, ast.AnnAssign):
            self._store(node.target,
                        lambda a=node.annotation: resolver.annotation(a),
                        declared=True)
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            self._store(node.target, lambda it=node.iter: resolver.element(
                type_of(it, self)))
        elif isinstance(node, ast.NamedExpr):
            self._store(node.target, lambda v=node.value: type_of(v, self))
        elif isinstance(node, ast.withitem) and node.optional_vars:
            self._store(node.optional_vars, lambda: None)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            self._bind(node.name, lambda t=node.type: resolver.caught(
                type_of(t, self)))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._bind(node.name, lambda n=node.name: frozenset({("def", n)}))
        elif isinstance(node, ast.ClassDef):
            self._bind(node.name, lambda n=node.name: frozenset({n}))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                kind = _MODULE if top in resolver.modules else _FOREIGN
                self._bind(alias.asname or top,
                           lambda kind=kind: frozenset({kind}))
        elif isinstance(node, ast.ImportFrom):
            program = node.level or (
                node.module.split(".")[0] in resolver.modules)
            for alias in node.names:
                self._bind(alias.asname or alias.name,
                           lambda n=alias.name: resolver.member(n) if program
                           else frozenset({_FOREIGN}))

    def _store(self, target, thunk, declared=False):
        """Bind an assignment target: a name, an attribute of the method's
        own instance (a field of its class), an attribute of another
        receiver (a store every class's field of that name may see) or a
        tuple unpacked item by item."""
        fields = self.resolver.fields
        if isinstance(target, ast.Name):
            scope = self.owner.get(target.id, self)
            scope._bind(target.id, thunk, declared)
            if isinstance(scope.node, ast.Module):
                self.resolver.globals.setdefault(target.id, []).append(thunk)
            elif isinstance(scope.node, ast.ClassDef):
                fields.setdefault(scope.node.name, {}).setdefault(
                    target.id, ([], []))[not declared].append(thunk)
        elif isinstance(target, ast.Attribute):
            if (self.cls is not None and isinstance(target.value, ast.Name)
                    and target.value.id == self.self_name):
                fields.setdefault(self.cls.name, {}).setdefault(
                    target.attr, ([], []))[not declared].append(thunk)
            else:
                self.resolver.stores.setdefault(target.attr, []).append(thunk)
        elif isinstance(target, (ast.Tuple, ast.List)):
            count = len(target.elts)
            starred = any(isinstance(e, ast.Starred) for e in target.elts)
            for index, elt in enumerate(target.elts):
                self._store(elt, lambda i=index: None if starred else
                            self.resolver.unpack(thunk(), i, count))
        elif isinstance(target, ast.Starred):
            self._store(target.value, lambda: _seq(None))

    def where(self, name):
        """The scope whose binding of ``name`` a load here sees, if any."""
        scope = self
        while scope is not None and name not in scope.bindings:
            scope = scope.outer
        return scope

    def lookup(self, name):
        scope = self.where(name)
        if scope is None:
            return frozenset({_FOREIGN}) if name in _BUILTINS else None
        if name not in scope._types:
            scope._types[name] = None  # a cyclic binding is unknown
            declared, inferred = scope.bindings[name]
            scope._types[name] = _union(
                thunk() for thunk in (declared or inferred))
        return scope._types[name]


class Resolver:
    """Types the receivers of a set of program files as far as the AST
    shows them, so an attribute load credits only the classes it can
    reach.

    A type is ``None`` (unknown) or a frozenset of what the value may be:
    a class name (an instance or the class itself), :data:`_MODULE`,
    :data:`_FOREIGN`, a program function ``("def", name)``, a sequence
    ``("seq", item)``, a mapping ``("map", key, value)`` or a tuple
    ``("tuple", items)``. Names are typed from their parameter and
    variable annotations, else from every value bound to them: a
    constructor call, a call whose return annotation names a class, an
    item of a typed sequence or mapping. ``self`` and ``cls`` are their
    method's class, and an attribute of a class is typed from its
    annotated fields, properties and every value stored to it."""

    def __init__(self, program):
        self.program = program
        self.classes, self.children = _classes(program)
        self.bases = {}
        self.methods = {}
        self.functions = {}
        for tree in program.values():
            for node, cls in _walk(tree):
                if isinstance(node, ast.ClassDef):
                    self.bases.setdefault(node.name, set()).update(
                        _name_of(base) for base in node.bases)
                elif isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    if cls is not None and node in cls.body:
                        self.methods.setdefault(cls.name, {}).setdefault(
                            node.name, []).append(node)
                    else:
                        self.functions.setdefault(node.name, []).append(node)
        self.modules = {
            part for path in program for part in (
                path.relative_to(ROOT) if path.is_absolute() else path
            ).with_suffix("").parts}
        self.subclasses = {parent: {child.name for child in children}
                           for parent, children in self.children.items()}
        #: ``{class: {attribute: ([declared], [inferred])}}``,
        #: ``{attribute: [inferred]}`` for stores on other receivers and
        #: ``{name: [inferred]}`` for module-level variables.
        self.fields, self.stores, self.globals = {}, {}, {}
        self.scopes = {}
        for path, tree in program.items():
            self.scopes[path] = found = [_Scope(self, tree, None)]
            for scope in found:
                found.extend(_Scope(self, child, scope)
                             for child in scope.nodes
                             if isinstance(child, (*_SCOPES, ast.ClassDef)))
        self._types, self._fields, self._family = {}, {}, {}
        #: ``{path: (names, members)}``: what each file's loads credit.
        self.credits = {path: self._credits(path) for path in program}

    def family(self, name):
        """A class, its bases and its subclasses: the classes whose
        members an attribute of one of its instances may reach."""
        if name not in self._family:
            found = {name}
            for edges in (self.bases, self.subclasses):
                seen, stack = {name}, [name]
                while stack:
                    fresh = edges.get(stack.pop(), set()) - seen
                    seen |= fresh
                    stack.extend(fresh)
                found |= seen
            self._family[name] = frozenset(found)
        return self._family[name]

    def owners(self, t):
        """The classes, and :data:`_MODULE`, an attribute of ``t`` credits;
        ``None`` when ``t`` is unknown."""
        if t is None:
            return None
        found = set()
        for item in t:
            if item == _MODULE:
                found.add(_MODULE)
            elif isinstance(item, str) and item != _FOREIGN:
                found |= self.family(item)
        return found

    def annotation(self, node):
        """The type an annotation names."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                return self.annotation(ast.parse(node.value, mode="eval").body)
            return _NOTHING
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return _union([self.annotation(node.left),
                           self.annotation(node.right)])
        if isinstance(node, ast.Subscript):
            base = _name_of(node.value)
            args = (node.slice.elts if isinstance(node.slice, ast.Tuple)
                    else [node.slice])
            if base in ("Optional", "Union", "ClassVar", "Final", "Type"):
                return _union(self.annotation(arg) for arg in args)
            if base in _SEQUENCES:
                return _seq(self.annotation(args[0]))
            if base in _MAPPINGS and len(args) == 2:
                return _map(*(self.annotation(arg) for arg in args))
            if base in ("Tuple", "tuple"):
                if (len(args) == 2 and isinstance(args[1], ast.Constant)
                        and args[1].value is Ellipsis):
                    return _seq(self.annotation(args[0]))
                return frozenset({("tuple", tuple(
                    self.annotation(arg) for arg in args))})
            return None
        name = _name_of(node)
        if name in self.classes:
            return frozenset({name})
        if name in _SCALARS:
            return _NOTHING
        if name in _SEQUENCES:
            return _seq(None)
        if name in _MAPPINGS:
            return _map(None, None)
        return None

    def member(self, name):
        """The type of top-level ``name`` of a program module."""
        found = []
        if name in self.classes:
            found.append(frozenset({name}))
        if name in self.functions:
            found.append(frozenset({("def", name)}))
        if name in self.modules:
            found.append(frozenset({_MODULE}))
        found.extend(thunk() for thunk in self.globals.get(name, ()))
        return _union(found) if found else None

    def field(self, cls, name):
        """The type of attribute ``name`` of an instance of ``cls``: per
        class of its family, the annotations and properties of that name
        or else every value stored to it, together with every store of
        that name on another receiver once any class infers it."""
        key = (cls, name)
        if key not in self._fields:
            self._fields[key] = None  # a cyclic binding is unknown
            thunks, inferring = [], False
            for member in self.family(cls):
                declared, inferred = self.fields.get(member, {}).get(
                    name, ([], []))
                declared = declared + [
                    lambda m=method: self.returns([m])
                    for method in self.methods.get(member, {}).get(name, ())
                    if "property" in _decorators(method)]
                thunks += declared or inferred
                inferring = inferring or bool(inferred and not declared)
            if inferring:
                thunks += self.stores.get(name, [])
            if thunks:
                self._fields[key] = _union(thunk() for thunk in thunks)
        return self._fields[key]

    def caught(self, t):
        """The type an ``except`` clause binds: the program exception
        classes it names, unknown when it names a builtin one (a program
        exception may derive from it)."""
        t = self.element(t) if t and all(
            isinstance(item, tuple) for item in t) else t
        return None if t is None or _FOREIGN in t else t

    def returns(self, functions):
        """The union of what ``functions`` return per their annotations."""
        return _union(None if f.returns is None else self.annotation(f.returns)
                      for f in functions) if functions else None

    def element(self, t):
        """The type of an item ``t`` iterates over."""
        found = []
        for item in t or ():
            if isinstance(item, tuple) and item[0] in ("seq", "map"):
                found.append(item[1])
            elif isinstance(item, tuple) and item[0] == "tuple":
                found.append(_union(item[1]))
            else:
                found.append(None)
        return _union(found) if found else None

    def unpack(self, t, index, count):
        """The type of slot ``index`` when ``t`` unpacks into ``count``."""
        found = []
        for item in t or ():
            if (isinstance(item, tuple) and item[0] == "tuple"
                    and len(item[1]) == count):
                found.append(item[1][index])
            else:
                found.append(self.element(frozenset({item})))
        return _union(found) if found else None

    def type_of(self, node, scope):
        key = id(node)
        if key not in self._types:
            self._types[key] = None  # a cyclic binding is unknown
            self._types[key] = self._infer(node, scope)
        return self._types[key]

    def _infer(self, node, scope):
        if isinstance(node, ast.Name):
            return scope.lookup(node.id)
        if isinstance(node, (ast.Constant, ast.JoinedStr, ast.Compare)):
            return _NOTHING
        if isinstance(node, (ast.List, ast.Set, ast.ListComp, ast.SetComp,
                             ast.GeneratorExp)):
            return _seq(None)
        if isinstance(node, (ast.Dict, ast.DictComp)):
            return _map(None, None)
        if isinstance(node, ast.Tuple):
            if any(isinstance(elt, ast.Starred) for elt in node.elts):
                return _seq(None)
            return frozenset({("tuple", tuple(
                self.type_of(elt, scope) for elt in node.elts))})
        if isinstance(node, ast.BoolOp):
            return _union(self.type_of(v, scope) for v in node.values)
        if isinstance(node, ast.IfExp):
            return _union([self.type_of(node.body, scope),
                           self.type_of(node.orelse, scope)])
        if isinstance(node, ast.NamedExpr):
            return self.type_of(node.value, scope)
        if isinstance(node, ast.Attribute):
            return self.attribute(self.type_of(node.value, scope), node.attr)
        if isinstance(node, ast.Subscript):
            return self._subscript(self.type_of(node.value, scope), node.slice)
        if isinstance(node, ast.Call):
            return self._call(node, scope)
        return None

    def attribute(self, t, name):
        """The type of attribute ``name`` of a ``t`` value."""
        found = []
        for item in t or ():
            if item == _FOREIGN:
                found.append(t)
            elif item == _MODULE:
                found.append(self.member(name))
            elif isinstance(item, str):
                found.append(self.field(item, name))
            else:
                found.append(None)
        return _union(found) if found else None

    def _subscript(self, t, index):
        found = []
        for item in t or ():
            kind = item[0] if isinstance(item, tuple) else None
            if kind == "seq":
                found.append(frozenset({item}) if isinstance(index, ast.Slice)
                             else item[1])
            elif kind == "map":
                found.append(item[2])
            elif (kind == "tuple" and isinstance(index, ast.Constant)
                    and isinstance(index.value, int)
                    and -len(item[1]) <= index.value < len(item[1])):
                found.append(item[1][index.value])
            else:
                found.append(None)
        return _union(found) if found else None

    def _call(self, node, scope):
        """The type a call returns."""
        func, args = node.func, node.args
        if isinstance(func, ast.Name):
            if func.id == "super" and scope.cls is not None:
                return frozenset({scope.cls.name})
            if scope.where(func.id) is None and func.id in _BUILTINS:
                return self._builtin(func.id, node, scope)
            callee = scope.lookup(func.id)
            name = func.id
            if name == "replace" and callee == {_FOREIGN} and args:
                return self.type_of(args[0], scope)
        elif isinstance(func, ast.Attribute):
            receiver = self.type_of(func.value, scope)
            name = func.attr
            if name == "_replace":
                return receiver
            found = []
            for item in receiver or ():
                if isinstance(item, tuple) and item[0] != "def":
                    found.append(self._container_call(item, name, node, scope))
                elif item in (_FOREIGN, _MODULE):
                    found.append(self._invoke(
                        self.attribute(frozenset({item}), name), name))
                elif isinstance(item, str):
                    found.append(self.returns([
                        method for member in self.family(item)
                        for method in self.methods.get(member, {}).get(
                            name, ())]))
                else:
                    found.append(None)
            return _union(found) if found else None
        else:
            return None
        return self._invoke(callee, name)

    def _invoke(self, callee, name):
        """The type a call of a ``callee`` value named ``name`` returns:
        a class builds an instance, a program function returns its
        annotation and a capitalized foreign callable builds a foreign
        object."""
        found = []
        for item in callee or ():
            if item == _FOREIGN:
                found.append(
                    _seq(None) if name == "deque"
                    else _map(None, None) if name in _MAPPINGS
                    else frozenset({_FOREIGN}) if name[:1].isupper()
                    else None)
            elif isinstance(item, tuple) and item[0] == "def":
                found.append(self.returns(self.functions.get(item[1], ())))
            elif isinstance(item, str) and item != _MODULE:
                found.append(frozenset({item}))
            else:
                found.append(None)
        return _union(found) if found else None

    def _container_call(self, item, name, node, scope):
        kind = item[0]
        if name in ("count", "index"):
            return _NOTHING
        if name == "copy":
            return frozenset({item})
        if kind == "seq" and name == "pop":
            return item[1]
        if kind == "map":
            key, value = item[1], item[2]
            if name == "values":
                return _seq(value)
            if name == "keys":
                return _seq(key)
            if name == "items":
                return _seq(frozenset({("tuple", (key, value))}))
            if name in ("get", "pop", "setdefault"):
                return _union([value, *(self.type_of(arg, scope)
                                        for arg in node.args[1:])])
        return None

    def _builtin(self, name, node, scope):
        args = [self.type_of(arg, scope) for arg in node.args]
        if name in _SCALAR_CALLS:
            return _NOTHING
        if name in _SEQUENCE_CALLS:
            return _seq(self.element(args[0]) if args else None)
        if name == "range":
            return _seq(_NOTHING)
        if name in ("dict", "vars"):
            return _map(None, None)
        if name == "enumerate" and args:
            return _seq(frozenset({("tuple", (_NOTHING,
                                              self.element(args[0])))}))
        if name == "zip":
            return _seq(frozenset({("tuple", tuple(
                self.element(arg) for arg in args))}))
        if name in ("min", "max", "next") and args:
            default = [self.type_of(k.value, scope) for k in node.keywords
                       if k.arg == "default"]
            items = ([self.element(args[0]), *args[1:]]
                     if name == "next" or len(args) == 1 else args)
            return _union(items + default)
        if name == "type" and args:
            return args[0]
        return None

    def _credits(self, path):
        """``(names, members)`` a file's loads credit: the identifiers of
        its name loads that see a module-level binding or none (a local
        or parameter of the same name hides a top-level name) and of the
        attributes it loads from a program module or an unknown
        receiver, and ``(class, attribute)`` for each attribute load,
        with class ``None`` for an unknown receiver."""
        names, members = set(), set()
        for scope in self.scopes[path]:
            for node in scope.nodes:
                if not isinstance(getattr(node, "ctx", None), ast.Load):
                    continue
                if isinstance(node, ast.Name):
                    binder = scope.where(node.id)
                    if binder is None or isinstance(binder.node, ast.Module):
                        names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    owners = self.owners(self.type_of(node.value, scope))
                    if owners is None or _MODULE in owners:
                        names.add(node.attr)
                    members.update((owner, node.attr) for owner in (
                        {None} if owners is None else owners - {_MODULE}))
        return names, members


def unused_names(resolver, source):
    """``{module: {qualified}}``: the public names of ``source`` modules
    that no program file uses. A top-level name is used where a program
    file loads or imports it (imports in a package ``__init__`` are
    re-exports and do not count); a method or property where an
    attribute load's receiver may be an instance of its class."""
    names, members = set(), set()
    for path, tree in resolver.program.items():
        loaded, reached = resolver.credits[path]
        names |= loaded if path.name == "__init__.py" else (
            loaded | _imports(tree))
        members |= reached
    unused = {}
    for path, tree in source.items():
        for qualified, name in _definitions(tree).items():
            owner, _, _ = qualified.rpartition(".")
            if not ((None, name) in members or (owner, name) in members
                    if owner else name in names):
                unused.setdefault(path, set()).add(qualified)
    return unused


#: Callee key of ``dataclasses.replace(record, **fields)`` and
#: ``record._replace(**fields)``: sets record fields by keyword.
_REPLACE = "<replace>"


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
    """``(qualified, callees, owner, position, parameter)`` for every
    defaulted parameter and record field a module defines: a call sets it
    when it names one of ``callees`` on a receiver that may be ``owner``
    (a method's class, else :data:`_MODULE`); ``position`` is the
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
                    yield (f"{node.name}.{name}", callees, _MODULE, index,
                           name)
            continue
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        method = cls is not None and node in cls.body
        dunder = node.name.startswith("__") and node.name.endswith("__")
        if (dunder and node.name != "__init__") or "property" in _decorators(
                node):
            continue
        receiver = _MODULE
        if node.name == "__init__" and method:
            callees = _constructors(cls, children, False)
        else:
            callees = {node.name}
            receiver = cls.name if method else _MODULE
        owner = f"{cls.name}.{node.name}" if method else node.name
        offset = int(method and "staticmethod" not in _decorators(node))
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], first):
            yield (f"{owner}({arg.arg})", callees, receiver, index - offset,
                   arg.arg)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{owner}({arg.arg})", callees, receiver, None, arg.arg


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


def _call_sites(resolver, path):
    """``{callee: [(owners, positional count, keywords, open)]}`` for every
    call in a file: ``owners`` are what :meth:`Resolver.owners` credits
    for the callee's receiver (:data:`_MODULE` for a bare name), and
    ``open`` when ``*args`` or ``**kwargs`` may fill any slot. A ``**``
    splat whose keys :func:`_splats` knows sets only those keys.
    ``functools.partial(f, ...)`` and ``Process(target=f, args=...)``
    call ``f``; ``cls(...)`` and ``type(self)(...)`` call the enclosing
    class; ``super().__init__(...)`` calls its bases."""
    sites = {}
    splats = _splats(resolver.program[path])
    calls = ((node, scope) for scope in resolver.scopes[path]
             for node in scope.nodes if isinstance(node, ast.Call))
    for node, scope in calls:
        cls = scope.cls
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
        owners = {_MODULE}
        if (cls is not None and name == "__init__"
                and isinstance(func.value, ast.Call)
                and _name_of(func.value.func) == "super"):
            callees = {_name_of(base) for base in cls.bases}
        elif cls is not None and (name == "cls" or (
                isinstance(func, ast.Call) and _name_of(func.func) == "type")):
            callees = {cls.name}
        elif name in ("replace", "_replace"):
            callees, owners = {_REPLACE}, None
        else:
            callees = {name}
            if isinstance(func, ast.Attribute):
                owners = resolver.owners(resolver.type_of(func.value, scope))
        keywords = {k.arg for k in node.keywords if k.arg}
        for k in node.keywords:
            if k.arg is None:
                keywords |= splats.get(id(k.value), set())
        site = (owners, sum(not isinstance(a, ast.Starred) for a in args),
                keywords,
                any(isinstance(a, ast.Starred) for a in args)
                or any(k.arg is None and id(k.value) not in splats
                       for k in node.keywords))
        for callee in callees:
            sites.setdefault(callee, []).append(site)
    return sites


def unset_knobs(resolver, source):
    """``{module: {qualified}}``: the defaulted parameters and record
    fields of ``source`` modules that no call in the resolver's program
    sets."""
    sites = {}
    for path in resolver.program:
        for callee, found in _call_sites(resolver, path).items():
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
        for qualified, callees, receiver, position, name in _knobs(
                tree, classes, children):
            if _REPLACE in callees and (
                    name in assigned or qualified in assigned):
                continue
            if not any(
                    (owners is None or receiver in owners) and (
                        name in keywords or opened or (
                            position is not None and callee != _REPLACE
                            and count > position))
                    for callee in callees
                    for owners, count, keywords, opened in sites.get(
                        callee, ())):
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


def _stores(resolver, path, classes):
    """``{qualified: (owner, attribute)}`` for every attribute a file
    assigns and every record field it declares. A store is qualified by
    each class :class:`Resolver` types its receiver as (``self`` is its
    class); a store on a receiver it cannot type keeps its source text
    and owner ``None``."""
    found = {}
    for scope in resolver.scopes[path]:
        for node in scope.nodes:
            if not (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)):
                continue
            owners = {item for item in resolver.type_of(node.value, scope)
                      or () if isinstance(item, str)
                      and item not in (_MODULE, _FOREIGN)}
            if not owners:
                found[f"{ast.unparse(node.value)}.{node.attr}"] = (
                    None, node.attr)
            for owner in owners:
                found[f"{owner}.{node.attr}"] = (owner, node.attr)
    for node in ast.walk(resolver.program[path]):
        if isinstance(node, ast.ClassDef) and _is_record(node):
            for name, _, _ in _fields(node, classes):
                found[f"{node.name}.{name}"] = (node.name, name)
    return found


#: Calls whose string arguments name the attributes they read.
_BY_NAME = ("getattr", "hasattr", "setattr", "attrgetter")


def _attribute_reads(resolver, path, classes):
    """``(class, attribute)`` pairs a file reads. An attribute load
    credits the classes its receiver's type reaches, as for methods, and
    ``None`` for a receiver :class:`Resolver` cannot type; the string
    arguments of ``getattr``, ``hasattr``, ``setattr`` and
    ``attrgetter`` and, for ``asdict(self)``, every field of the
    enclosing record are read by name (class ``None``). Other strings
    (``__slots__`` entries, dict keys) read nothing."""
    tree = resolver.program[path]
    found = set(resolver.credits[path][1])
    for node, cls in _walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = _name_of(node.func)
        if callee in _BY_NAME:
            found.update((None, arg.value) for arg in node.args
                         if isinstance(arg, ast.Constant)
                         and isinstance(arg.value, str))
        elif (cls is not None and callee in ("asdict", "astuple")
              and [ast.unparse(a) for a in node.args] == ["self"]):
            found.update((None, name) for name, _, _ in _fields(cls, classes))
    return found


def write_only_state(resolver, source):
    """``{module: {qualified}}``: the attributes ``source`` modules store
    that no file in the resolver's program reads on a receiver that may
    be an instance of the storing class."""
    classes, _ = _classes(source)
    read = set().union(*(_attribute_reads(resolver, path, classes)
                         for path in resolver.program))
    by_name = {name for _, name in read}
    unread = {}
    for path in source:
        for qualified, (owner, name) in _stores(
                resolver, path, classes).items():
            if (None, name) in read or (
                    name in by_name if owner is None
                    else (owner, name) in read):
                continue
            unread.setdefault(path, set()).add(qualified)
    return unread


TREES = {path: ast.parse(path.read_text()) for path in _program_files()}
RESOLVER = Resolver(TREES)
#: The identifiers each file references, its imports included.
REFERENCES = {path: RESOLVER.credits[path][0] | _imports(tree)
              for path, tree in TREES.items()}

MODULES = sorted(
    path for path in SRC.rglob("*.py")
    if path.name not in ("__init__.py", "__main__.py"))
MODULE_IDS = [m.relative_to(SRC).as_posix() for m in MODULES]

SOURCE = {path: TREES[path] for path in SRC.rglob("*.py")}
UNUSED = unused_names(RESOLVER, SOURCE)
UNSET = unset_knobs(RESOLVER, SOURCE)
UNREAD = write_only_state(RESOLVER, SOURCE)


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
    if public & RESOLVER.credits[own_init][0]:
        callers.append(own_init.relative_to(ROOT).as_posix())
    assert callers, (
        f"no program file outside tests/ uses any of {sorted(public)}")


@pytest.mark.parametrize("module", MODULES, ids=MODULE_IDS)
def test_names_have_a_caller_outside_the_tests(module):
    unused = sorted(UNUSED.get(module, set()) - set(ALLOWED))
    assert not unused, (
        f"no program file outside tests/ uses {unused}: delete them, "
        f"or list them in ALLOWED with a reason")


@pytest.mark.parametrize("qualified", sorted(ALLOWED))
def test_allowed_name_is_current(qualified):
    assert any(qualified in _definitions(TREES[module]) for module in MODULES), (
        f"ALLOWED names {qualified}, which no module defines any more")
    used = not any(qualified in names for names in UNUSED.values())
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
from typing import Dict


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
        self.shared = 3
        self.common = 4

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


class Other:
    def __init__(self):
        self.shared = 1
        self.common = 2

    def method(self, knob=1):
        return knob


class Process:
    def kill(self):
        return 1


class Pool:
    def __init__(self):
        self.workers: Dict[str, Process] = {}
        self.gauge = Gauge()
        self.gauge.level = 0

    def kill(self):
        for worker in self.workers.values():
            worker.kill()


class Table:
    def column(self):
        return []


class Series:
    def maximum(self):
        return 0.0


class Log:
    def count(self):
        return 0


class Base:
    def helper(self):
        return 1


class Child(Base):
    def work(self):
        return self.helper()


class Widget:
    def ping(self):
        return 1

    def spin(self):
        return 2


def make_widget() -> Widget:
    return Widget()


class Gauge:
    def read_out(self):
        return 1.0


class Opaque:
    def anything(self):
        return None


class Slotted:
    __slots__ = ("slotted", "named")

    def __init__(self):
        self.slotted = 1
        self.named = 2


def hidden():
    return 1


def reached():
    return 2
'''

_SYNTHETIC_CALLER = '''
import functools
import multiprocessing

import numpy as np

from mod import (ByCls, Child, Gauge, Log, Opaque, Other, Pool, Process,
                 Record, Series, Slotted, Sub, Table, Thing, Widget, by_args,
                 by_keyword, by_kwargs, by_literal, by_partial, by_position,
                 by_rebound, by_table, by_target, make_widget)

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
    Other().method()
    return (Thing().read, Thing().shared, ByCls.make().knob, record.name,
            record.knob, getattr(Slotted(), "named"), {"slotted": 1})


def collisions(options, gauge: Gauge):
    pool = Pool()
    column = len(pool.workers)
    kinds = [column, 2]
    local = Widget()
    return (kinds.count(2), np.maximum(1, 2), Child().work(), local.ping(),
            make_widget().spin(), gauge.read_out(), options.anything(),
            options.common, Table, Series, Log, Opaque, Process)


def shadows(hidden):
    def nested():
        return hidden, reached

    return hidden, nested
'''


def _synthetic():
    source = {pathlib.Path("mod.py"): ast.parse(_SYNTHETIC_SOURCE)}
    program = {**source,
               pathlib.Path("main.py"): ast.parse(_SYNTHETIC_CALLER)}
    return Resolver(program), source


def test_name_guard_flags_exactly_the_planted_cases():
    """On a small synthetic tree the name guard flags the methods an
    identifier match would credit through a same-named method of another
    class (``Pool.kill`` calls only ``Process.kill``), a local variable
    (``column``), a foreign module's function (``np.maximum``) or a
    builtin container's method (``list.count``), and a top-level
    function loaded only through a same-named parameter (``hidden``,
    also from a nested function). A bare name bound in no enclosing
    scope credits the top-level name (``reached``). It credits a ``self``
    call from a subclass, a constructor-bound local, an annotated
    parameter, a loop over an annotated ``Dict[str, C].values()``, a
    return-annotated call and an unknown receiver."""
    resolver, source = _synthetic()
    assert unused_names(resolver, source) == {pathlib.Path("mod.py"): {
        "never", "Pool.kill", "Table.column", "Series.maximum",
        "Log.count", "hidden"}}


def test_value_guards_flag_exactly_the_planted_cases():
    """On a small synthetic tree the guards flag the unset default and
    the write-only attribute, and none of the ways a call can set a
    parameter: keyword, position, ``**kwargs``, ``*args``,
    ``functools.partial``, ``Process(target=...)``, ``cls(...)`` and
    ``super().__init__(...)``. A ``**`` splat of a dict literal, or of a
    name bound only to a row of a module-level table of dict literals,
    sets only those keys; any other splat sets every parameter. A guard
    that passed everything fails here, and so does one that matched a
    method's callers or an attribute's readers by name alone:
    ``Thing().method(3)`` does not set ``Other.method(knob)``, and
    ``Thing().shared`` does not read ``Other.shared``. The untyped
    ``options.common`` reads both classes' ``common``, and the store
    through ``self.gauge`` is ``Gauge.level``, not its source text. A
    ``getattr`` name reads its attribute; a ``__slots__`` entry or a
    dict key reads nothing (``Slotted.slotted``)."""
    resolver, source = _synthetic()
    unset = unset_knobs(resolver, source)
    assert unset == {pathlib.Path("mod.py"): {
        "never(knob)", "by_literal(other)", "by_table(other)",
        "Record.unset", "Other.method(knob)"}}
    unread = write_only_state(resolver, source)
    assert unread == {pathlib.Path("mod.py"): {
        "Thing.unread", "Sub.other", "Record.unset", "Other.shared",
        "Gauge.level", "Slotted.slotted"}}
