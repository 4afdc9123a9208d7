"""No option nobody varies, no name nobody references.

An option is a value a caller needs.  This ``ast`` walk reads every public
function, method and constructor of every module under ``src/repro`` (a
public dataclass's constructor is its fields) against every call in
``src/``, ``examples/``, ``benchmarks/`` and ``tools/`` and every ``>>>``
line of a ``src/`` docstring: a defaulted parameter or field to which those
callers give fewer than two values is a constant, not an option.  A call
that omits it uses the default; a literal (what ``ast.literal_eval`` reads)
passes its value; any other expression passes any number of values.  The
examples and the doctests count because CI runs them as the documented use
of the API.  A test is not such a caller: an option only ``tests/`` varies
exists for the test, and the test reaches the value it needs through a seam
(``monkeypatch``, a private method, a subclass) instead.  An option comes
back only together with the caller that needs it.  A quantity the paper
names (Δ, δ, BurstTime) is a module constant citing its section, not an
allow-list entry.

A record's defaulted field is state, not an option, when code (tests
included) writes it after construction: assigns or augments it, assigns an
item of it or hands it to a mutating call (``append``, ``next``).
``replace(record, field=...)`` constructs, so it passes the field.

A call counts for every callable of its name unless the walk can tell which
one it reaches: ``self.name(...)`` reaches the enclosing class's method or a
base's, and a contract entry point is called through a transaction, not a
Python call: ``Command("market", "buy", {...})`` passes the keys of its dict
to the market contract's ``buy`` alone, and a ``**`` in that dict passes
every key, as a ``**`` in a call does.  A test helper that forwards
``**kwargs`` hides which options its callers set, so helpers spell out the
options they forward.

The second half is the zero-reference end of the same idea: every public
``def`` / ``class`` under ``src/repro/`` is named somewhere other than its own
definition, and every public attribute a constructor assigns is read
somewhere, not only written and appended to.  There a test does count: a name
or attribute only a test uses is tested code, not dead code.
"""

from __future__ import annotations

import ast
import collections
import doctest
import functools
import pathlib
import re

import repro

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = pathlib.Path(repro.__file__).parent
CALLERS = ("src", "tests", "examples", "benchmarks", "tools")
# The callers that can make a defaulted parameter an option: every one but tests/.
OPTION_CALLERS = ("src", "examples", "benchmarks", "tools")

# The paper's own knobs: ``(callable, option) -> one line of reason`` for a
# default nobody overrides *yet*, kept because the paper names the quantity.
# At most ten.  Empty today: every option that is left has its caller.
ALLOWED: dict[tuple[str, str], str] = {}


def _called_name(call: ast.Call) -> str | None:
    function = call.func
    if isinstance(function, ast.Name):
        return function.id
    return function.attr if isinstance(function, ast.Attribute) else None


# What a non-literal argument passes: any number of values.
MANY = object()


def _value(node: ast.expr) -> object:
    """What an argument passes: a literal's ``repr`` (``ast.literal_eval``
    reads it), else :data:`MANY`."""
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError, SyntaxError):
        return MANY


def _default(node: ast.expr) -> str:
    """A default is one value, literal or not: it is evaluated once."""
    value = _value(node)
    return value if isinstance(value, str) else ast.unparse(node)


def _defaulted(function: ast.FunctionDef, bound: bool) -> tuple[list[str], dict[str, str]]:
    """``(positional parameter names, defaulted parameter -> its default)``;
    a method's ``self`` is not a parameter a caller passes."""
    arguments = function.args
    positional = [a.arg for a in arguments.posonlyargs + arguments.args]
    defaults = dict(zip(
        positional[len(positional) - len(arguments.defaults):], map(_default, arguments.defaults)
    ))
    defaults.update(
        (a.arg, _default(default))
        for a, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
        if default is not None
    )
    return positional[1:] if bound else positional, defaults


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any("dataclass" in ast.unparse(decorator) for decorator in node.decorator_list)


def _fields(node: ast.ClassDef, classes: dict) -> tuple[list[str], dict[str, str]]:
    """A dataclass's generated constructor as :func:`_defaulted` reads a
    ``def``: its fields in order, a base dataclass's first."""
    positional, defaults = [], {}
    for base in node.bases:
        parent = classes.get(ast.unparse(base).rpartition(".")[2])
        if parent is not None and _is_dataclass(parent):
            inherited, inherited_defaults = _fields(parent, classes)
            positional += inherited
            defaults.update(inherited_defaults)
    for statement in node.body:
        if not (isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(statement.annotation):
            continue
        value = statement.value
        spec = (
            {keyword.arg: keyword.value for keyword in value.keywords}
            if isinstance(value, ast.Call) and _called_name(value) == "field" else {}
        )
        if "init" in spec:  # ``field(init=False)``: no caller passes it
            continue
        positional.append(statement.target.id)
        if value is not None:
            defaults[statement.target.id] = _default(spec.get("default", value))
    return positional, defaults


def _audited_callables(
    trees, written=frozenset()
) -> dict[str, list[tuple[str, list[str], dict[str, str]]]]:
    """Name a call site uses -> ``(qualified name, positional parameters,
    defaulted parameter -> default)`` of every audited callable with that
    name: module-level functions, public methods, and constructors under
    their class's name.  ``AdmissionController.open_auction`` and
    ``AsService.open_auction`` are two entries under one name, not one
    overwriting the other.  A public dataclass's constructor is its fields;
    a defaulted field in ``written`` is state, not an option."""
    classes = {
        node.name: node for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)
    }
    found = collections.defaultdict(list)
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found[node.name].append((node.name, *_defaulted(node, bound=False)))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
                if _is_dataclass(node) and "__init__" not in {m.name for m in methods}:
                    positional, defaults = _fields(node, classes)
                    found[node.name].append((f"{node.name}.__init__", positional, {
                        field: default for field, default in defaults.items()
                        if field not in written and not field.startswith("_")
                    }))
                for method in methods:
                    static = any(
                        ast.unparse(d) == "staticmethod" for d in method.decorator_list
                    )
                    qualified = f"{node.name}.{method.name}"
                    if method.name == "__init__":
                        found[node.name].append(
                            (qualified, *_defaulted(method, bound=True))
                        )
                    elif not method.name.startswith("_"):
                        found[method.name].append(
                            (qualified, *_defaulted(method, bound=not static))
                        )
    return found


# Receiver-only uses: ``self.log.append(x)`` and ``self.table[key] = x`` write.
MUTATORS = {"append", "extend", "add", "update", "setdefault", "pop", "clear", "remove"}
# Calls that change the object a field holds: its methods, or a function's first argument.
MUTATING_CALLS = MUTATORS | {"next"}


def _written(trees) -> set[str]:
    """Every attribute some code writes after construction: assigns, augments,
    item-assigns or deletes, or hands to a mutating call, anywhere but in an
    ``__init__`` / ``__post_init__``."""
    written = set()
    pending = list(trees)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.FunctionDef) and node.name in ("__init__", "__post_init__"):
            continue
        pending.extend(ast.iter_child_nodes(node))
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and _called_name(node) in MUTATING_CALLS:
            function = node.func
            is_method = isinstance(function, ast.Attribute)
            targets = [function.value] if is_method else node.args[:1]
        else:
            continue
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
            elif isinstance(target, (ast.Subscript, ast.Starred)):
                targets.append(target.value)
            elif isinstance(target, ast.Attribute):
                written.add(target.attr)
    return written


def _tuple_sizes(tree: ast.Module) -> dict[str, int]:
    """Length of every tuple literal the file assigns to a plain name."""
    return {
        target.id: len(node.value.elts)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def _passed(call: ast.Call, positional: list[str], sizes: dict[str, int]) -> dict | None:
    """Parameter -> the value ``call`` passes it; ``None`` when a ``**``
    may pass anything.  ``*WINDOW`` fills as many parameters as the tuple
    literal the file assigns to that name; a star that cannot be sized fills
    every positional one, whatever keywords follow (the audit errs towards
    "set")."""
    passed, index = {}, 0
    for argument in call.args:
        if not isinstance(argument, ast.Starred):
            passed.update({name: _value(argument) for name in positional[index:index + 1]})
            index += 1
            continue
        star = argument.value
        width = len(positional)
        if isinstance(star, ast.Name):
            width = sizes.get(star.id, width)
        passed.update((name, MANY) for name in positional[index:index + width])
        index += width
    for keyword in call.keywords:
        if keyword.arg is None:
            return None
        passed.setdefault(keyword.arg, _value(keyword.value))
    return passed


def _contract_call(call: ast.Call) -> tuple[str | None, str, ast.Dict] | None:
    """``Command("market", "buy", {...})`` -> ``("market", "buy", the dict)``;
    the contract is ``None`` when the call does not spell it."""
    if _called_name(call) != "Command" or len(call.args) < 3:
        return None
    contract, function, arguments = call.args[:3]
    if isinstance(function, ast.Constant) and isinstance(arguments, ast.Dict):
        spelled = contract.value if isinstance(contract, ast.Constant) else None
        return spelled, function.value, arguments
    return None


def _calls(tree: ast.AST, owner: str | None = None):
    """Every call in ``tree`` with the name of the class whose code makes it."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.Call):
            yield child, owner
        yield from _calls(child, child.name if isinstance(child, ast.ClassDef) else owner)


def _constant_options(audited, callers, written=frozenset()) -> dict[str, list[str]]:
    """Qualified name -> the defaulted parameters of that audited callable to
    which the calls in ``callers`` (parsed modules) give fewer than two values:
    a default counts as used by every call that omits it, a literal as its
    value, anything else as many values.  A field in ``written`` (see
    :func:`_written`) is state, not an option."""
    functions = _audited_callables(audited, written)
    classes = {
        node.name: node
        for tree in [*audited, *callers]
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    contracts = collections.defaultdict(set)  # "market" -> {"MarketContract"}
    for node in classes.values():
        for statement in node.body:
            if (
                isinstance(statement, ast.Assign)
                and ast.unparse(statement.targets[0]) == "name"
                and isinstance(statement.value, ast.Constant)
            ):
                contracts[statement.value.value].add(node.name)

    def lineage(name: str) -> set[str]:
        """A class and, transitively, every base the walk can name."""
        bases = classes[name].bases if name in classes else ()
        return {name}.union(*(lineage(ast.unparse(b).rpartition(".")[2]) for b in bases))

    values = collections.defaultdict(lambda: collections.defaultdict(set))

    def credit(entries, passed) -> None:
        for qualified, positional, defaults in entries:
            given = passed(positional)
            for option, default in defaults.items():
                value = MANY if given is None else given.get(option, default)
                values[qualified][option].add(value)

    for tree in callers:
        sizes = _tuple_sizes(tree)
        for node, owner in _calls(tree):
            name = _called_name(node)
            entries = functions.get(name, ())
            # ``self.name(...)`` is the enclosing class's method or a base's;
            # any other call counts for every callable of that name.
            receiver = getattr(node.func, "value", None)
            if owner is not None and isinstance(receiver, ast.Name) and receiver.id == "self":
                mine = lineage(owner)
                entries = [e for e in entries if e[0].rpartition(".")[0] in mine]
            credit(entries, lambda positional: _passed(node, positional, sizes))
            contract = _contract_call(node)
            if contract:
                owners, function, arguments = contract
                given = None if None in arguments.keys else {
                    key.value: _value(value)
                    for key, value in zip(arguments.keys, arguments.values)
                    if isinstance(key, ast.Constant)
                }
                credit(
                    [
                        entry for entry in functions.get(function, ())
                        if owners is None or entry[0].rpartition(".")[0] in contracts[owners]
                    ],
                    lambda positional: given,
                )
            # ``replace(record, field=...)`` builds a record: it passes the
            # fields it names to every constructor that has them.
            if name == "replace":
                for keyword in node.keywords:
                    for entries in functions.values():
                        for qualified, _, defaults in entries:
                            if qualified.endswith(".__init__") and keyword.arg in defaults:
                                values[qualified][keyword.arg].add(_value(keyword.value))
            # ``deploy_market(reclamation={...})`` splats its keys into
            # ``enable_reclamation``: a dict a call site spells out — literal,
            # ``dict(...)`` or ``.setdefault("key", ...)`` — sets them.
            splatted = values["AsService.enable_reclamation"]
            if name == "dict":
                for keyword in node.keywords:
                    splatted[keyword.arg].add(MANY)
            elif name == "setdefault" and isinstance(node.args[0], ast.Constant):
                splatted[node.args[0].value].add(MANY)
            for keyword in node.keywords:
                if keyword.arg == "reclamation" and isinstance(keyword.value, ast.Dict):
                    for key in keyword.value.keys:
                        if isinstance(key, ast.Constant):
                            splatted[key.value].add(MANY)
    return {
        qualified: [
            option for option in defaults
            if MANY not in values[qualified][option] and len(values[qualified][option]) < 2
        ]
        for entries in functions.values()
        for qualified, _, defaults in entries
    }


def _examples(tree: ast.Module) -> ast.Module:
    """The ``>>>`` lines of a module's docstrings, as one module: the doctest
    job runs them, so they call what they name as an example does."""
    parser = doctest.DocTestParser()
    return ast.parse("".join(
        example.source
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node)
        for example in parser.get_examples(ast.get_docstring(node))
    ))


def _option_callers(trees) -> list[ast.Module]:
    """The parsed modules of ``(path, tree)`` pairs under :data:`OPTION_CALLERS`,
    and the docstring examples of those under ``src/``."""
    found = []
    for path, tree in trees:
        top = path.relative_to(ROOT).parts[0]
        if top in OPTION_CALLERS:
            found.append(tree)
        if top == "src":
            found.append(_examples(tree))
    return found


@functools.cache
def _parsed(path: pathlib.Path) -> ast.Module:
    """Every file is parsed once per session; no audit changes a tree."""
    return ast.parse(path.read_text())


@functools.cache
def _trees() -> tuple[tuple[pathlib.Path, ast.Module], ...]:
    return tuple(
        (path, _parsed(path)) for top in CALLERS for path in sorted((ROOT / top).rglob("*.py"))
    )


def _package_trees() -> list[ast.Module]:
    return [_parsed(path) for path in sorted(PACKAGE.rglob("*.py"))]


def test_every_option_has_a_caller_that_sets_it():
    audited = _package_trees()
    functions = _audited_callables(audited)
    experiments = [name for name in functions if name.endswith("_experiment")]
    assert len(experiments) == 7 and "build_path_simulation" in functions
    assert {"deploy_market", "AsService", "HostClient", "purchase_path",
            "HummingbirdRouter", "Committee", "buy", "run_beaconing"} <= set(functions)

    # ``RouterStats.drop_reasons``, ``Ledger.contracts``, ``PathSimulation.nodes``
    # and ``AutonomousSystem.interfaces`` are state by their writes, not by a list
    written = _written(tree for _, tree in _trees())
    assert {"drop_reasons", "contracts", "nodes", "interfaces"} <= written

    constants = _constant_options(audited, _option_callers(_trees()), written)
    flagged = {
        qualified: [option for option in options if (qualified, option) not in ALLOWED]
        for qualified, options in constants.items()
    }
    assert not any(flagged.values()), {n: o for n, o in flagged.items() if o}
    assert len(ALLOWED) <= 10
    stale = [key for key in ALLOWED if key[1] not in constants.get(key[0], ())]
    assert not stale, f"allow-listed but set by a caller: {stale}"


def test_the_walk_sees_through_helpers_only_where_they_spell_options_out():
    """The shape that hid the router's ``burst_time`` / ``max_packet_age`` /
    ``clock_skew``: a test helper forwarding ``**kwargs`` counted as setting
    every option.  A helper that names what it forwards leaves the rest
    flagged; a contract call sets its dict's keys, or all of them through
    ``**``."""
    audited = [ast.parse(
        "class Router:\n"
        "    def __init__(self, key, duplicate_filter=None, burst_time=0.05,\n"
        "                 max_packet_age=2.0, clock_skew=1.0): ...\n"
        "class Market:\n"
        "    name = 'market'\n"
        "    def buy(self, ctx, listing, budget=None, note=None): ...\n"
    )]
    explicit = ast.parse(
        "def routers_for(keys, duplicate_filter=None):\n"
        "    return [Router(k, duplicate_filter=duplicate_filter) for k in keys]\n"
        "Command('market', 'buy', {'listing': 1, 'budget': budget})\n"
    )
    assert _constant_options(audited, [explicit]) == {
        "Router.__init__": ["burst_time", "max_packet_age", "clock_skew"],
        "Market.buy": ["note"],
    }
    forwarding = ast.parse(
        "def routers_for(keys, **kwargs):\n"
        "    return [Router(k, **kwargs) for k in keys]\n"
        "Command('market', 'buy', {'listing': 1, **extra})\n"
    )
    assert _constant_options(audited, [forwarding]) == {
        "Router.__init__": [], "Market.buy": [],
    }


def test_a_test_is_not_a_caller_that_makes_an_option():
    """An option set only by a file under ``tests/`` is flagged; one an
    example sets is not, because CI runs the examples as the documented use
    of the API."""
    audited = [ast.parse(
        "class Router:\n"
        "    def __init__(self, key, duplicate_filter=None, policing_capacity=100): ...\n"
    )]
    callers = [
        (ROOT / "tests" / "test_router.py", ast.parse("Router(k, policing_capacity=capacity)")),
        (ROOT / "examples" / "dos.py", ast.parse("Router(k, duplicate_filter=f)")),
    ]
    assert _constant_options(audited, _option_callers(callers)) == {
        "Router.__init__": ["policing_capacity"],
    }
    assert _constant_options(audited, [tree for _, tree in callers]) == {
        "Router.__init__": [],
    }


def test_a_record_field_is_an_option_unless_code_writes_it():
    """A dataclass's defaulted field is a constructor option like any
    defaulted parameter, unless code writes it after construction: assigns
    it, augments it, assigns an item of it or hands it to a mutating call.
    ``replace(record, field=...)`` constructs, so it sets the field."""
    audited = [ast.parse(
        "@dataclass(frozen=True)\n"
        "class Query:\n"
        "    start: int\n"
        "    flex_start: int = 0\n"
        "    budget: int | None = None\n"
        "    exact: bool = False\n"
        "    hits: dict = field(default_factory=dict)\n"
        "    count: int = 0\n"
        "    log: list = field(default_factory=list)\n"
        "    serials: Iterator = field(default_factory=itertools.count)\n"
        "    cache: dict = field(default_factory=dict, init=False)\n"
    )]
    callers = [ast.parse(
        "query = Query(now, exact=wanted)\n"
        "cheaper = replace(query, budget=limit)\n"
        "query.hits[key] = 1\n"
        "query.count += 1\n"
        "query.log.append(event)\n"
        "serial = next(query.serials)\n"
    )]
    assert _constant_options(audited, callers, _written(callers)) == {
        "Query.__init__": ["flex_start"],
    }


def test_a_command_or_a_self_call_credits_only_its_own_method():
    """``Command("market", name, {...})`` sets the keys of its dict on the
    market contract's entry point only, not on the client method of the same
    name that submits it; ``self.name(...)`` sets the enclosing class's
    method or a base's, not a same-named method of another class."""
    source = ast.parse(
        "class MarketContract(Contract):\n"
        "    name = 'market'\n"
        "    def contribute_leg(self, ctx, auction, granularity=60): ...\n"
        "class AsService:\n"
        "    def contribute_leg(self, auction, granularity=60, minimum=100):\n"
        "        self.submit(Command('market', 'contribute_leg',\n"
        "                            {'auction': auction, 'granularity': granularity}))\n"
        "    def submit(self, command, gas=None): ...\n"
        "    def finish(self, strict=False): ...\n"
        "class RelayService(AsService):\n"
        "    def relay(self, command):\n"
        "        self.submit(command, gas=budget)\n"
        "        self.finish(strict=checked)\n"
        "class Pool:\n"
        "    def finish(self, strict=False): ...\n"
    )
    assert _constant_options([source], [source]) == {
        "MarketContract.contribute_leg": [],
        "AsService.contribute_leg": ["granularity", "minimum"],
        "AsService.submit": [],
        "AsService.finish": [],
        "RelayService.relay": [],
        "Pool.finish": ["strict"],
    }


def test_an_option_every_caller_gives_one_value_is_a_constant():
    """A parameter whose callers all pass one literal, or omit it for its
    default, is a constant; a non-literal argument is any number of values.
    A ``>>>`` line of a ``src/`` docstring is a caller: CI runs it."""
    audited = ast.parse(
        "def find_paths(src, dst, max_paths=8, strict=False, width=8): ...\n"
        "def resolve_hop(hop, sync=True):\n"
        "    \"\"\">>> resolve_hop(1)\n"
        "    2\n"
        "    \"\"\"\n"
    )
    caller = ast.parse(
        "find_paths(a, b)\n"
        "find_paths(a, b, max_paths=8, strict=True)\n"
        "find_paths(a, b, width=w)\n"
        "resolve_hop(h, sync=False)\n"
    )
    tool = (ROOT / "tools" / "probe.py", caller)
    assert _constant_options([audited], _option_callers([tool])) == {
        "find_paths": ["max_paths"], "resolve_hop": ["sync"],
    }
    module = (ROOT / "src" / "repro" / "paths.py", audited)
    assert _constant_options([audited], _option_callers([tool, module])) == {
        "find_paths": ["max_paths"], "resolve_hop": [],
    }


def test_every_public_name_is_referenced_outside_its_definition():
    """A public ``def`` / ``class`` (module level or method) under ``src/repro``
    is named by code somewhere — an identifier, or a string handed to a call
    (``Command("market", "buy", ...)``, a tracer boundary) in ``src/``, tests,
    examples, benchmarks or tools; a docstring or an ``__all__`` entry is not a
    use — or by the docs.  Otherwise it is dead."""
    defined = collections.Counter()
    for tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] += 1
    word = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
    named = collections.Counter()
    for _, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Name)):
                named[node.name if hasattr(node, "name") else node.id] += 1
            elif isinstance(node, ast.Attribute):
                named[node.attr] += 1
            elif isinstance(node, ast.alias):
                named[node.name.rpartition(".")[2]] += 1
            elif isinstance(node, ast.Call):
                named.update(keyword.arg for keyword in node.keywords)
                for argument in node.args:
                    if isinstance(argument, ast.Constant) and isinstance(argument.value, str):
                        named.update(word.findall(argument.value))
    for path in [*ROOT.glob("docs/*.md"), ROOT / "README.md"]:
        named.update(word.findall(path.read_text()))
    # every definition is one occurrence of its own name
    dead = sorted(name for name, count in defined.items() if named[name] <= count)
    assert not dead, dead


def test_every_public_instance_attribute_is_read_somewhere():
    """``AsService.settlements`` / ``path_settlements`` were assigned in
    ``__init__``, appended to at every settle and read by nothing (the settle
    methods *return* the records).  A public ``self.x`` a constructor under
    ``src/repro`` assigns has a reader: a load of ``.x`` in ``src/``, tests,
    examples, benchmarks or tools that is not just the receiver of a mutating
    call or of an item assignment — or the docs name it in a code span."""
    assigned = set()
    for tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                assigned.update(
                    target.attr
                    for statement in ast.walk(node)
                    if isinstance(statement, (ast.Assign, ast.AnnAssign))
                    for target in getattr(statement, "targets", None) or [statement.target]
                    if isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and not target.attr.startswith("_")
                )
    assert {"open_auctions", "undecryptable", "events_applied", "policer"} <= assigned

    read = set()
    for _, tree in _trees():
        parents = {
            child: parent for parent in ast.walk(tree) for child in ast.iter_child_nodes(parent)
        }
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                continue
            parent = parents.get(node)
            mutated = (
                isinstance(parent, ast.Attribute)
                and parent.attr in MUTATORS
                and isinstance(parents.get(parent), ast.Call)
                and parents[parent].func is parent
            ) or (
                isinstance(parent, ast.Subscript)
                and parent.value is node
                and not isinstance(parent.ctx, ast.Load)
            )
            if not mutated:
                read.add(node.attr)
    word = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
    for path in [*ROOT.glob("docs/*.md"), ROOT / "README.md"]:
        for span in re.findall(r"`[^`\n]+`", path.read_text()):
            read.update(word.findall(span))
    assert not sorted(assigned - read), sorted(assigned - read)
