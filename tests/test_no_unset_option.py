"""No option nobody sets, no name nobody references.

PR 20 turned every netsim experiment option that no call site in the
repository passed into a named constant and left a test behind
(``tests/netsim/test_one_harness.py``) that fails on a defaulted experiment
parameter without a caller.  This is that ``ast`` walk, lifted to cover every
public function, method and constructor of ``repro.admission``,
``repro.controlplane``, ``repro.marketdata``, ``repro.pathadm``,
``repro.reclaim``, ``repro.telemetry`` and ``repro.transfers`` as well: an
option comes back only together with the caller that needs it; the paper's own
knobs are allow-listed with the reason each stays.

The second half is the zero-reference end of the same idea: every public
``def`` / ``class`` under ``src/repro/`` is named somewhere other than its own
definition, and every public attribute a constructor of those seven packages
assigns is read somewhere, not only written and appended to.
"""

from __future__ import annotations

import ast
import collections
import pathlib
import re

import repro

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = pathlib.Path(repro.__file__).parent
CALLERS = ("src", "tests", "examples", "benchmarks", "tools")

# Where options and constructors' public attributes are audited: every public
# callable of these packages (and the netsim experiments), every public
# attribute their constructors assign.
AUDITED_PACKAGES = (
    "admission", "controlplane", "marketdata", "pathadm", "reclaim", "telemetry",
    "transfers",
)
AUDITED = [
    *sorted(
        path for package in AUDITED_PACKAGES for path in (PACKAGE / package).glob("*.py")
    ),
    PACKAGE / "netsim" / "scenarios.py",
    PACKAGE / "netsim" / "deadline.py",
]

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


def _audited_callables() -> dict[str, list[tuple[str, list[str], list[str]]]]:
    """Name a call site uses -> ``(qualified name, positional parameters,
    defaulted parameters)`` of every audited callable with that name:
    module-level functions, public methods, and constructors under their
    class's name.  ``AdmissionController.open_auction`` and
    ``AsService.open_auction`` are two entries under one name, not one
    overwriting the other.  A dataclass's fields are state, not options."""
    found = collections.defaultdict(list)
    for path in AUDITED:
        for node in ast.parse(path.read_text()).body:
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


def _trees():
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text())


def test_every_option_has_a_caller_that_sets_it():
    functions = _audited_callables()
    experiments = [name for name in functions if name.endswith("_experiment")]
    assert len(experiments) == 7 and "build_path_simulation" in functions
    assert {"deploy_market", "AsService", "HostClient", "purchase_path",
            "ReclamationEngine", "AdaptiveOverbooking"} <= set(functions)

    passed = collections.defaultdict(set)
    for _, tree in _trees():
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

    unset = {
        qualified: [
            option for option in defaulted
            if option not in passed[qualified] and (qualified, option) not in ALLOWED
        ]
        for entries in functions.values()
        for qualified, _, defaulted in entries
    }
    assert not any(unset.values()), {n: o for n, o in unset.items() if o}
    assert len(ALLOWED) <= 10
    stale = [key for key in ALLOWED if key[1] in passed[key[0]]]
    assert not stale, f"allow-listed but set by a caller: {stale}"


def test_every_public_name_is_referenced_outside_its_definition():
    """A public ``def`` / ``class`` (module level or method) under ``src/repro``
    is named by code somewhere — an identifier, or a string handed to a call
    (``Command("market", "buy", ...)``, a tracer boundary) in ``src/``, tests,
    examples, benchmarks or tools; a docstring or an ``__all__`` entry is not a
    use — or by the docs.  Otherwise it is dead."""
    defined = collections.Counter()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
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
    ``admission/``, ``controlplane/``, ``marketdata/``, ``pathadm/``,
    ``reclaim/``, ``telemetry/`` or ``transfers/`` assigns has a reader: a load
    of ``.x`` in ``src/``, tests, examples, benchmarks or tools that is not just
    the receiver of a mutating call or of an item assignment — or the docs name
    it in a code span."""
    assigned = set()
    for package in AUDITED_PACKAGES:
        for path in sorted((PACKAGE / package).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
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
    assert {"open_auctions", "undeliverable", "events_applied"} <= assigned

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
