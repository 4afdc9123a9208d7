"""No option nobody sets, no name nobody references.

PR 20 turned every netsim experiment option that no call site in the
repository passed into a named constant.  This is that ``ast`` walk, run over
every public function, method and constructor of every module under
``src/repro``: a defaulted parameter that no call in ``src/``, ``examples/``,
``benchmarks/`` or ``tools/`` passes is a constant, not an option.  A test is
not such a caller: an option only ``tests/`` sets exists for the test, and
the test reaches the path it needs through a seam (``monkeypatch``, a private
method) instead.  The examples count, because CI runs each one as the
documented use of the API.  An option comes back only together with the
caller that needs it.  A quantity the paper names (Δ, δ, BurstTime) is a
module constant citing its section, not an allow-list entry.  When the walk
stopped counting tests, the 27 options only a test set and the three their
removal left with no other caller became constants: its defaulted
parameters went 204 → 174.

A contract entry point is called through a transaction, not a Python call:
``Command("market", "buy", {...})`` sets the keys of its dict, and a ``**`` in
that dict sets every key, as a ``**`` in a call does.  A test helper that
forwards ``**kwargs`` hides which options its callers set, so helpers spell
out the options they forward.

The second half is the zero-reference end of the same idea: every public
``def`` / ``class`` under ``src/repro/`` is named somewhere other than its own
definition, and every public attribute a constructor assigns is read
somewhere, not only written and appended to.  There a test does count: a name
or attribute only a test uses is tested code, not dead code.
"""

from __future__ import annotations

import ast
import collections
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


def _defaulted(function: ast.FunctionDef, bound: bool) -> tuple[list[str], list[str]]:
    """``(positional parameter names, names of parameters with a default)``;
    a method's ``self`` is not a parameter a caller passes."""
    arguments = function.args
    positional = [a.arg for a in arguments.posonlyargs + arguments.args]
    defaulted = positional[len(positional) - len(arguments.defaults):]
    defaulted += [
        a.arg
        for a, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
        if default is not None
    ]
    return positional[1:] if bound else positional, defaulted


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any("dataclass" in ast.unparse(decorator) for decorator in node.decorator_list)


def _audited_callables(trees) -> dict[str, list[tuple[str, list[str], list[str]]]]:
    """Name a call site uses -> ``(qualified name, positional parameters,
    defaulted parameters)`` of every audited callable with that name:
    module-level functions, public methods, and constructors under their
    class's name.  ``AdmissionController.open_auction`` and
    ``AsService.open_auction`` are two entries under one name, not one
    overwriting the other.  A dataclass's fields are state, not options."""
    found = collections.defaultdict(list)
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found[node.name].append((node.name, *_defaulted(node, bound=False)))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for method in node.body:
                    if not isinstance(method, ast.FunctionDef):
                        continue
                    static = any(
                        ast.unparse(d) == "staticmethod" for d in method.decorator_list
                    )
                    qualified = f"{node.name}.{method.name}"
                    if method.name == "__init__" and not _is_dataclass(node):
                        found[node.name].append(
                            (qualified, *_defaulted(method, bound=True))
                        )
                    elif not method.name.startswith("_"):
                        found[method.name].append(
                            (qualified, *_defaulted(method, bound=not static))
                        )
    return found


def _tuple_sizes(tree: ast.Module) -> dict[str, int]:
    """Length of every tuple literal the file assigns to a plain name."""
    return {
        target.id: len(node.value.elts)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def _positional_count(call: ast.Call, sizes: dict[str, int]) -> int:
    """How many positional parameters a call fills.  ``*WINDOW`` counts for the
    length of the tuple literal the file assigns to that name; a star that
    cannot be sized fills every parameter (the audit errs towards "set")."""
    count = 0
    for argument in call.args:
        if not isinstance(argument, ast.Starred):
            count += 1
        elif isinstance(argument.value, ast.Name) and argument.value.id in sizes:
            count += sizes[argument.value.id]
        else:
            return 10**6
    return count


def _contract_call(call: ast.Call) -> tuple[str, ast.Dict] | None:
    """``Command("market", "buy", {...})`` -> ``("buy", the dict)``."""
    if _called_name(call) != "Command" or len(call.args) < 3:
        return None
    function, arguments = call.args[1], call.args[2]
    if isinstance(function, ast.Constant) and isinstance(arguments, ast.Dict):
        return function.value, arguments
    return None


def _unset_options(audited, callers) -> dict[str, list[str]]:
    """Qualified name -> the defaulted parameters of that audited callable
    that no call in ``callers`` (parsed modules) sets."""
    functions = _audited_callables(audited)
    passed = collections.defaultdict(set)
    for tree in callers:
        sizes = _tuple_sizes(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            # A call counts for every callable of that name (a keyword only
            # ever sets a parameter the callable has).
            for qualified, positional, defaulted in functions.get(name, ()):
                passed[qualified].update(positional[: _positional_count(node, sizes)])
                passed[qualified].update(keyword.arg for keyword in node.keywords)
                if any(keyword.arg is None for keyword in node.keywords):
                    passed[qualified].update(defaulted)  # ``**options``: anything
            contract = _contract_call(node)
            if contract:
                function, arguments = contract
                for qualified, _, defaulted in functions.get(function, ()):
                    passed[qualified].update(
                        key.value for key in arguments.keys if isinstance(key, ast.Constant)
                    )
                    if None in arguments.keys:
                        passed[qualified].update(defaulted)  # ``{**extra}``: anything
            # ``deploy_market(reclamation={...})`` splats its keys into
            # ``enable_reclamation``: a dict a call site spells out — literal,
            # ``dict(...)`` or ``.setdefault("key", ...)`` — sets them.
            splatted = passed["AsService.enable_reclamation"]
            if name == "dict":
                splatted.update(k.arg for k in node.keywords)
            elif name == "setdefault" and isinstance(node.args[0], ast.Constant):
                splatted.add(node.args[0].value)
            for keyword in node.keywords:
                if keyword.arg == "reclamation" and isinstance(keyword.value, ast.Dict):
                    splatted.update(
                        key.value for key in keyword.value.keys
                        if isinstance(key, ast.Constant)
                    )
    return {
        qualified: [option for option in defaulted if option not in passed[qualified]]
        for entries in functions.values()
        for qualified, _, defaulted in entries
    }


def _option_callers(trees) -> list[ast.Module]:
    """The parsed modules of ``(path, tree)`` pairs under :data:`OPTION_CALLERS`."""
    return [
        tree for path, tree in trees if path.relative_to(ROOT).parts[0] in OPTION_CALLERS
    ]


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

    unset = _unset_options(audited, _option_callers(_trees()))
    flagged = {
        qualified: [option for option in options if (qualified, option) not in ALLOWED]
        for qualified, options in unset.items()
    }
    assert not any(flagged.values()), {n: o for n, o in flagged.items() if o}
    assert len(ALLOWED) <= 10
    stale = [key for key in ALLOWED if key[1] not in unset.get(key[0], ())]
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
        "    def buy(self, ctx, listing, budget=None, note=None): ...\n"
    )]
    explicit = ast.parse(
        "def routers_for(keys, duplicate_filter=None):\n"
        "    return [Router(k, duplicate_filter=duplicate_filter) for k in keys]\n"
        "Command('market', 'buy', {'listing': 1, 'budget': 2})\n"
    )
    assert _unset_options(audited, [explicit]) == {
        "Router.__init__": ["burst_time", "max_packet_age", "clock_skew"],
        "Market.buy": ["note"],
    }
    forwarding = ast.parse(
        "def routers_for(keys, **kwargs):\n"
        "    return [Router(k, **kwargs) for k in keys]\n"
        "Command('market', 'buy', {'listing': 1, **extra})\n"
    )
    assert _unset_options(audited, [forwarding]) == {
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
        (ROOT / "tests" / "test_router.py", ast.parse("Router(k, policing_capacity=64)")),
        (ROOT / "examples" / "dos.py", ast.parse("Router(k, duplicate_filter=f)")),
    ]
    assert _unset_options(audited, _option_callers(callers)) == {
        "Router.__init__": ["policing_capacity"],
    }
    assert _unset_options(audited, [tree for _, tree in callers]) == {
        "Router.__init__": [],
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


# Receiver-only uses: ``self.log.append(x)`` and ``self.table[key] = x`` write.
MUTATORS = {"append", "extend", "add", "update", "setdefault", "pop", "clear", "remove"}


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
