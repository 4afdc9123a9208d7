"""No option nobody varies, no name nobody references.

An option is a value a caller needs.  This ``ast`` walk reads every public
function, method and constructor of every module under ``src/repro`` (a
public dataclass's constructor is its fields) against every call in
``src/``, ``examples/``, ``benchmarks/`` and ``tools/`` and every ``>>>``
line of a ``src/`` docstring: a defaulted parameter or field to which those
callers give fewer than two values is a constant, not an option.  The
examples and the doctests count because CI runs them as the documented use
of the API.  A test is not such a caller: an option only ``tests/`` varies
exists for the test, and the test reaches the value it needs through a seam
(``monkeypatch``, a private method, a subclass) instead.  An option comes
back only together with the caller that needs it.  A quantity the paper
names (Δ, δ, BurstTime) is a module constant citing its section, not an
allow-list entry.

Arguments bind as Python binds them; where the walk cannot tell, it errs
towards "set":

* An omitted argument passes the default.
* A literal (what ``ast.literal_eval`` reads) passes its value.
* A name its module binds once, at module level, to a literal passes that literal.
* So does ``module.NAME`` when every binding of ``module`` in the caller's file
  imports one ``repro`` module whole and that module binds ``NAME`` so.
* Any other expression passes any number of values.
* A ``*`` of a sized tuple fills that many parameters: a name or ``self.``
  attribute every assignment gives an n-tuple literal, or a call to a
  function whose every ``return`` is one.
* Any other ``*`` fills at most the parameters before the first one a keyword names.
* A ``**kwargs`` a function hands on whole passes the keywords its callers gave it.
* Any other ``**`` passes every key.

A record's defaulted field is state, not an option, when code outside
``tests/`` writes it after construction: assigns or augments it, assigns an
item of it or hands it to a mutating call (``append``, ``next``).  A test
that rewrites a field reaches past the constructor, as a ``monkeypatch``
does.  ``replace(record, field=...)`` constructs, so it passes the field.

A call counts for every callable of its name unless the walk can tell which
one it reaches: ``self.name(...)`` reaches the enclosing class's method or a
base's, and a contract entry point is called through a transaction, not a
Python call: ``Command("market", "buy", {...})`` passes the keys of its dict
to the market contract's ``buy`` alone, and a ``**`` in that dict passes
every key, as a ``**`` in a call does.

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
from typing import NamedTuple

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


def _value(node: ast.expr, constants: dict[str, str] | None = None) -> object:
    """What an argument passes: a literal's ``repr`` (``ast.literal_eval``
    reads it), a module constant's, read bare or as ``module.NAME`` (see
    :func:`_module_constants` and :func:`_imported_modules`), else
    :data:`MANY`."""
    if isinstance(node, (ast.Name, ast.Attribute)) and constants:
        spelled = ast.unparse(node)
        if spelled in constants:
            return constants[spelled]
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError, SyntaxError):
        return MANY


def _default(node: ast.expr, constants: dict[str, str]) -> str:
    """A default is one value, literal or not: it is evaluated once."""
    value = _value(node, constants)
    return value if isinstance(value, str) else ast.unparse(node)


def _own(scope: ast.AST):
    """The nodes of a module's or function's body, not of the functions,
    lambdas or classes in it."""
    pending = list(ast.iter_child_nodes(scope))
    while pending:
        node = pending.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            pending.extend(ast.iter_child_nodes(node))


def _binding(node: ast.AST) -> str | None:
    """The name ``node`` binds, if any: a parameter, an assignment, ``del``
    or loop target, an import or a definition."""
    if isinstance(node, ast.arg):
        return node.arg
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.alias):
        return (node.asname or node.name).partition(".")[0]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    return None


def _module_constants(tree: ast.Module) -> dict[str, str]:
    """Name -> the literal's ``repr``, for every name ``tree`` binds once, at
    module level, to a literal, and no function rebinds as ``global``."""
    bindings = collections.Counter(map(_binding, _own(tree)))
    rebound = {name for node in ast.walk(tree) if isinstance(node, ast.Global) for name in node.names}
    constants = {}
    for statement in tree.body:
        if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
            target = statement.targets[0]
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            target = statement.target
        else:
            continue
        if isinstance(target, ast.Name) and bindings[target.id] == 1 and target.id not in rebound:
            value = _value(statement.value)
            if value is not MANY:
                constants[target.id] = value
    return constants


def _imported_modules(tree: ast.Module, modules) -> dict[str, str]:
    """Name -> the module of ``modules`` it stands for, when every binding of
    the name in ``tree`` (function-local ones too) imports that one module
    whole: ``import repro.reclaim as reclaim`` or ``from repro import reclaim``."""
    imports = collections.defaultdict(set)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[(alias.asname or alias.name).partition(".")[0]].add(
                    alias.name if alias.asname else None  # a bare import binds the top package
                )
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                whole = f"{node.module}.{alias.name}" if node.level == 0 else None
                imports[alias.asname or alias.name].add(whole)
        elif not isinstance(node, ast.alias) and _binding(node) is not None:
            imports[_binding(node)].add(None)
    return {
        name: module
        for name, (module,) in ((n, tuple(m)) for n, m in imports.items() if len(m) == 1)
        if module in modules
    }


def _defaulted(
    function: ast.FunctionDef, bound: bool, constants: dict[str, str]
) -> tuple[list[str], dict[str, str]]:
    """``(positional parameter names, defaulted parameter -> its default)``;
    a method's ``self`` is not a parameter a caller passes."""
    arguments = function.args
    positional = [a.arg for a in arguments.posonlyargs + arguments.args]
    defaults = dict(zip(
        positional[len(positional) - len(arguments.defaults):],
        (_default(default, constants) for default in arguments.defaults),
    ))
    defaults.update(
        (a.arg, _default(default, constants))
        for a, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
        if default is not None
    )
    return positional[1:] if bound else positional, defaults


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any("dataclass" in ast.unparse(decorator) for decorator in node.decorator_list)


def _fields(node: ast.ClassDef, classes: dict) -> tuple[list[str], dict[str, str]]:
    """A dataclass's generated constructor as :func:`_defaulted` reads a
    ``def``: its fields in order, a base dataclass's first.  ``classes`` maps
    a class's name to its node and its module's constants."""
    positional, defaults = [], {}
    for base in node.bases:
        parent, _ = classes.get(ast.unparse(base).rpartition(".")[2], (None, None))
        if parent is not None and _is_dataclass(parent):
            inherited, inherited_defaults = _fields(parent, classes)
            positional += inherited
            defaults.update(inherited_defaults)
    constants = classes[node.name][1]
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
            defaults[statement.target.id] = _default(spec.get("default", value), constants)
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
    scopes = [(tree, _module_constants(tree)) for tree in trees]
    classes = {
        node.name: (node, constants)
        for tree, constants in scopes for node in tree.body if isinstance(node, ast.ClassDef)
    }
    found = collections.defaultdict(list)
    for tree, constants in scopes:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found[node.name].append((node.name, *_defaulted(node, False, constants)))
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
                            (qualified, *_defaulted(method, True, constants))
                        )
                    elif not method.name.startswith("_"):
                        found[method.name].append(
                            (qualified, *_defaulted(method, not static, constants))
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


def _spread(node: ast.expr) -> str | None:
    """What a ``*`` spreads, as :func:`_tuple_sizes` and
    :func:`_return_sizes` key it: ``name``, ``self.name`` or ``name()``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "self":
        return f"self.{node.attr}"
    if isinstance(node, ast.Call) and _called_name(node):
        return f"{_called_name(node)}()"
    return None


def _length(node: ast.expr | None) -> int | None:
    """The length of a tuple literal, else ``None``."""
    if isinstance(node, ast.Tuple) and not any(isinstance(e, ast.Starred) for e in node.elts):
        return len(node.elts)
    return None


def _one_length(lengths: dict[str, set]) -> dict[str, int]:
    return {key: found.pop() for key, found in lengths.items() if len(found) == 1 and None not in found}


def _tuple_sizes(tree: ast.Module) -> dict[str, int]:
    """Name or ``self.`` attribute -> n, when every binding of it in the file
    assigns an n-tuple literal (a parameter or import of the name is a
    binding of unknown length)."""
    assigned = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            assigned.update((target, node.value) for target in node.targets)
        elif isinstance(node, ast.AnnAssign):
            assigned[node.target] = node.value
    lengths = collections.defaultdict(set)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and not isinstance(node.ctx, ast.Load):
            if _spread(node) is not None:
                lengths[_spread(node)].add(_length(assigned.get(node)))
        elif _binding(node) is not None:
            lengths[_binding(node)].add(None)
    return _one_length(lengths)


def _return_sizes(trees) -> dict[str, int]:
    """``name()`` -> n, when every function of that name ends in a
    ``return`` and every ``return`` it makes is of an n-tuple literal."""
    lengths = collections.defaultdict(set)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found = lengths[f"{node.name}()"]
                if not isinstance(node.body[-1], ast.Return):
                    found.add(None)
                for inner in _own(node):
                    if isinstance(inner, (ast.Yield, ast.YieldFrom)):
                        found.add(None)
                    elif isinstance(inner, ast.Return):
                        found.add(_length(inner.value))
    return _one_length(lengths)


def _bound(scope: ast.AST) -> set[str]:
    """Every name a function, lambda or class binds anywhere inside it (more
    than Python's scoping shadows, so a module constant is read only where
    nothing around the call could rebind it)."""
    return set(map(_binding, ast.walk(scope))) - {None}


def _calls(tree: ast.AST, owner=None, function=None, bound=frozenset()):
    """Every call in ``tree`` with the name of the class whose code makes it,
    the innermost ``def`` around it and the names the scopes around it bind."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.Call):
            yield child, owner, function, bound
        if isinstance(child, ast.ClassDef):
            yield from _calls(child, child.name, function, bound | _bound(child))
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls(child, owner, child, bound | _bound(child))
        elif isinstance(child, ast.Lambda):
            yield from _calls(child, owner, function, bound | _bound(child))
        else:
            yield from _calls(child, owner, function, bound)


@functools.cache
def _forwarded(function: ast.FunctionDef | None) -> str | None:
    """The name of the ``**kwargs`` ``function`` hands on whole — used only
    as some call's ``**`` — else ``None``."""
    kwargs = function.args.kwarg if function is not None else None
    if kwargs is None:
        return None
    splats = {
        id(node.value) for node in ast.walk(function)
        if isinstance(node, ast.keyword) and node.arg is None
    }
    uses = [node for node in ast.walk(function) if isinstance(node, ast.Name) and node.id == kwargs.arg]
    return kwargs.arg if all(id(use) in splats for use in uses) else None


class _Star(NamedTuple):
    """A ``*`` argument: how many parameters it fills, ``None`` if unknown."""

    width: int | None


class _Arguments(NamedTuple):
    """What one call passes: a value or :class:`_Star` per positional
    argument, keyword -> value, and whether a ``**`` may pass any key."""

    positional: list
    keywords: dict
    splat: bool


def _passed(arguments: _Arguments, positional: list[str]) -> dict | None:
    """Parameter -> the value ``arguments`` pass it; ``None`` when a ``**``
    may pass anything.  An unsized ``*`` fills every parameter up to the
    first one a keyword names: Python refuses a second value for it."""
    if arguments.splat:
        return None
    passed, index = {}, 0
    for argument in arguments.positional:
        if not isinstance(argument, _Star):
            passed.update({name: argument for name in positional[index:index + 1]})
            index += 1
        elif argument.width is not None:
            passed.update((name, MANY) for name in positional[index:index + argument.width])
            index += argument.width
        else:
            named = [i for i, name in enumerate(positional) if i >= index and name in arguments.keywords]
            passed.update((name, MANY) for name in positional[index:min(named, default=None)])
            index = len(positional)  # what follows lands among the star's
    passed.update(arguments.keywords)
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


class _Site(NamedTuple):
    """One call as the audit credits it."""

    name: str | None
    owner: str | None  # the class whose ``self.name(...)`` it is, else None
    arguments: _Arguments


def _constant_options(audited, callers, modules=None) -> dict[str, list[str]]:
    """Qualified name -> the defaulted parameters of that audited callable to
    which the calls in ``callers`` (parsed modules) give fewer than two values,
    binding arguments as the module docstring says.  A field that ``callers``
    write (see :func:`_written`) is state, not an option, and so is a
    constant of ``modules`` (dotted module name -> its constants; the
    ``repro`` package's by default) that they write as ``module.NAME``."""
    written = _written(callers)
    functions = _audited_callables(audited, written)
    modules = _package_constants() if modules is None else modules
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

    returns = _return_sizes([*audited, *callers])
    sites = []
    # forwarder name -> (its parameters, a call that hands its **kwargs on)
    forwarders = collections.defaultdict(list)
    for tree in callers:
        sizes = {**returns, **_tuple_sizes(tree)}
        module = _module_constants(tree)
        # ``reclaim.GRACE_SECONDS``: no scope rebinds ``reclaim`` but to the module
        dotted = {
            f"{alias}.{name}": value
            for alias, imported in _imported_modules(tree, modules).items()
            for name, value in modules[imported].items()
            if name not in written
        }
        for node, owner, function, bound in _calls(tree):
            constants = {name: value for name, value in module.items() if name not in bound}
            constants.update(dotted)
            splats = [keyword.value for keyword in node.keywords if keyword.arg is None]
            forwards = [
                s for s in splats if isinstance(s, ast.Name) and s.id == _forwarded(function)
            ]
            arguments = _Arguments(
                [
                    _Star(sizes.get(_spread(a.value))) if isinstance(a, ast.Starred)
                    else _value(a, constants)
                    for a in node.args
                ],
                {k.arg: _value(k.value, constants) for k in node.keywords if k.arg is not None},
                len(forwards) < len(splats),  # a ``**`` not handed on whole
            )
            # ``self.name(...)`` is the enclosing class's method or a base's;
            # any other call counts for every callable of that name.
            receiver = getattr(node.func, "value", None)
            mine = owner if isinstance(receiver, ast.Name) and receiver.id == "self" else None
            site = _Site(_called_name(node), mine, arguments)
            if forwards:
                own = function.args
                parameters = {a.arg for a in own.posonlyargs + own.args + own.kwonlyargs}
                forwarders[function.name].append((parameters, site))
            else:
                sites.append(site)
            contract = _contract_call(node)
            if contract:
                owners, entry, spelled = contract
                given = None if None in spelled.keys else {
                    key.value: _value(value, constants)
                    for key, value in zip(spelled.keys, spelled.values)
                    if isinstance(key, ast.Constant)
                }
                credit(
                    [
                        e for e in functions.get(entry, ())
                        if owners is None or e[0].rpartition(".")[0] in contracts[owners]
                    ],
                    lambda positional: given,
                )
            # ``replace(record, field=...)`` builds a record: it passes the
            # fields it names to every constructor that has them.
            if site.name == "replace":
                for keyword in node.keywords:
                    for entries in functions.values():
                        for qualified, _, defaults in entries:
                            if qualified.endswith(".__init__") and keyword.arg in defaults:
                                values[qualified][keyword.arg].add(_value(keyword.value, constants))

    def visit(site: _Site, depth: int = 0) -> None:
        entries = functions.get(site.name, ())
        if site.owner is not None:
            mine = lineage(site.owner)
            entries = [e for e in entries if e[0].rpartition(".")[0] in mine]
        credit(entries, lambda positional: _passed(site.arguments, positional))
        if depth == 10:  # a helper that hands its ``**kwargs`` on to itself
            return
        # a forwarder's ``**kwargs`` holds the keywords its own parameters do not take
        for parameters, inner in forwarders.get(site.name, ()):
            given = site.arguments
            extra = {k: v for k, v in given.keywords.items() if k not in parameters}
            visit(inner._replace(arguments=inner.arguments._replace(
                keywords={**inner.arguments.keywords, **extra},
                splat=inner.arguments.splat or given.splat,
            )), depth + 1)

    for site in sites:
        visit(site)
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


@functools.cache
def _package_constants() -> dict[str, dict[str, str]]:
    """Dotted module name -> its constants (see :func:`_module_constants`),
    for every module of the ``repro`` package."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        found[name] = _module_constants(_parsed(path))
    return found


def test_every_option_has_a_caller_that_sets_it():
    audited = _package_trees()
    functions = _audited_callables(audited)
    experiments = [name for name in functions if name.endswith("_experiment")]
    assert len(experiments) == 7 and "build_path_simulation" in functions
    assert {"deploy_market", "AsService", "HostClient", "purchase_path",
            "HummingbirdRouter", "Committee", "buy", "run_beaconing"} <= set(functions)

    # ``RouterStats.drop_reasons``, ``Ledger.contracts``, ``PathSimulation.nodes``
    # and ``AutonomousSystem.interfaces`` are state by their writes, not by a list
    callers = _option_callers(_trees())
    assert {"drop_reasons", "contracts", "nodes", "interfaces"} <= _written(callers)

    constants = _constant_options(audited, callers)
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
    ``**``, and so does a helper that edits its ``**kwargs`` before handing
    them on."""
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
    edited = ast.parse(
        "def routers_for(keys, **kwargs):\n"
        "    kwargs.setdefault('burst_time', 0.1)\n"
        "    return [Router(k, **kwargs) for k in keys]\n"
        "routers_for(keys, clock_skew=2.0)\n"
        "Command('market', 'buy', {'listing': 1, **extra})\n"
    )
    assert _constant_options(audited, [edited]) == {
        "Router.__init__": [], "Market.buy": [],
    }


def test_a_star_fills_as_many_parameters_as_its_tuple_holds():
    """``*self.window`` fills two parameters when every assignment gives
    ``self.window`` a 2-tuple literal, and ``*linear_path(4)`` two when every
    ``return`` of ``linear_path`` is one: the defaulted parameters after them
    stay unset."""
    audited = ast.parse(
        "def open_auction(market, interface, start, expiry, reserve,\n"
        "                 granularity=60, minimum=100): ...\n"
        "def congestion(topology, path, protected, duration=3.0): ...\n"
    )
    caller = ast.parse(
        "class Workload:\n"
        "    def setup(self, now):\n"
        "        self.window = (now, now + 600)\n"
        "    def run(self, market):\n"
        "        open_auction(market, 1, *self.window, 50)\n"
        "def linear_path(num_ases):\n"
        "    return topology, path\n"
        "congestion(*linear_path(4), True)\n"
    )
    assert _constant_options([audited], [caller]) == {
        "open_auction": ["granularity", "minimum"], "congestion": ["duration"],
    }


def test_a_star_of_unknown_length_stops_at_the_first_keyword():
    """Python refuses a second value for a parameter, so a ``*`` the walk
    cannot size fills at most the parameters before the first one a keyword
    of the same call names."""
    audited = ast.parse(
        "def contention(topology, path, num_buyers=8, per_buyer_kbps=2000,\n"
        "               duration=1.5): ...\n"
    )
    caller = ast.parse(
        "run = lambda chain, buyers, seconds: contention(\n"
        "    *chain, num_buyers=buyers, duration=seconds)\n"
    )
    assert _constant_options([audited], [caller]) == {"contention": ["per_buyer_kbps"]}


def test_a_forwarded_kwargs_passes_the_keywords_its_callers_gave():
    """A ``**market`` that a helper hands on whole passes exactly the
    keywords the helper's callers gave it and its own parameters did not
    take, through any number of helpers."""
    audited = ast.parse(
        "def deploy_market(topology, seed=7, asset_duration=3600,\n"
        "                  policer_of=None, pricer=None): ...\n"
    )
    caller = ast.parse(
        "def _market(topology, path, reclaims=False, **market):\n"
        "    return deploy_market(topology, seed=1, policer_of=reclaims and path, **market)\n"
        "def _contended(topology, path, end, **market):\n"
        "    return _market(topology, path, asset_duration=end, **market)\n"
        "def deploy(chain, seed, **options):\n"
        "    return deploy_market(chain, seed=seed, **options)\n"
        "_contended(t, p, 600, reclaims=True)\n"
        "deploy(chain, 12, asset_duration=14_400)\n"
    )
    assert _constant_options([audited], [caller]) == {"deploy_market": ["pricer"]}


def test_a_module_constant_passes_its_literal():
    """A name its module binds once, at module level, to a literal passes
    that literal; bound twice, or shadowed by a local, it passes any value."""
    audited = ast.parse(
        "class CallContext:\n"
        "    def take_shared(self, object_id, type_tag=None): ...\n"
        "def auction(topology, seed=1, rounds=3, budget=10): ...\n"
    )
    caller = ast.parse(
        "MARKETPLACE = 'market::Marketplace'\n"
        "SEED = 1\n"
        "ROUNDS = 3\n"
        "ROUNDS = 4\n"
        "BUDGET = 10\n"
        "def buy(ctx, market):\n"
        "    ctx.take_shared(market, MARKETPLACE)\n"
        "def sweep(BUDGET):\n"
        "    auction(t, seed=SEED, rounds=ROUNDS, budget=BUDGET)\n"
    )
    assert _constant_options([audited], [caller]) == {
        "CallContext.take_shared": ["type_tag"], "auction": ["seed"],
    }


def test_a_constant_read_through_its_module_passes_its_literal():
    """``reclaim.THRESHOLD`` passes the literal ``repro.reclaim`` binds once
    when every binding of ``reclaim`` in the caller's file imports that module
    whole, in a function or at module level.  A constant the module binds
    twice, one code writes, or a module name the file also binds otherwise
    passes any value."""
    audited = ast.parse(
        "class Engine:\n"
        "    def __init__(self, controller, grace=0.5, threshold=0.5,\n"
        "                 headroom=1.5, floor=1, period=0.25): ...\n"
    )
    modules = {
        "repro.reclaim": _module_constants(ast.parse(
            "GRACE = 0.4\nTHRESHOLD = 0.5\nHEADROOM = 1.5\nFLOOR = 1\nFLOOR = 2\n"
        )),
        "repro.clock": {"PERIOD": "0.25"},
    }
    caller = ast.parse(
        "import repro.clock as clock\n"
        "def arm(controller):\n"
        "    from repro import reclaim\n"
        "    return Engine(controller, grace=reclaim.GRACE, threshold=reclaim.THRESHOLD,\n"
        "                  headroom=reclaim.HEADROOM, floor=reclaim.FLOOR,\n"
        "                  period=clock.PERIOD)\n"
        "def tick(clock):\n"
        "    return clock\n"
        "Engine(controller, grace=0.5)\n"
    )
    assert _constant_options([audited], [caller], modules) == {
        "Engine.__init__": ["threshold", "headroom"],
    }
    tuned = ast.parse("from repro import reclaim\nreclaim.HEADROOM = 2.0\n")
    assert _constant_options([audited], [caller, tuned], modules) == {
        "Engine.__init__": ["threshold"],
    }


def test_a_write_only_a_test_makes_leaves_a_field_an_option():
    """A field is state when code outside ``tests/`` writes it after
    construction; a test that rewrites one (a key rotation) reaches past the
    constructor, as a ``monkeypatch`` does."""
    audited = [ast.parse(
        "@dataclass\n"
        "class AutonomousSystem:\n"
        "    isd_as: str\n"
        "    forwarding_key: bytes = b''\n"
        "    interfaces: dict = field(default_factory=dict)\n"
    )]
    callers = [
        (ROOT / "tests" / "test_rotation.py", ast.parse("asys.forwarding_key = rotated")),
        (ROOT / "src" / "repro" / "topology.py", ast.parse("asys.interfaces[7] = link")),
    ]
    assert _constant_options(audited, _option_callers(callers)) == {
        "AutonomousSystem.__init__": ["forwarding_key"],
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
    assert _constant_options(audited, callers) == {
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
