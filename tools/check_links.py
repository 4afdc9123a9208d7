#!/usr/bin/env python3
"""Markdown link and name checker for the docs job.

Verifies, for every ``[text](target)`` link in the given markdown files:

* relative file targets exist (resolved against the linking file);
* ``#anchor`` fragments — bare or after a file target — resolve to a
  heading in the target file, using GitHub's slugging rules (lowercase,
  spaces to dashes, punctuation dropped);
* external ``http(s)://`` targets are NOT fetched (CI must not depend on
  the network); they are only syntax-checked.

and, for every inline code span outside fenced blocks, that what it names
exists in the tree:

* a dotted ``repro.…`` name imports (the longest importable module
  prefix, then attributes);
* a ``Class.member`` whose class is defined under ``src/repro`` has that
  member — a class attribute, a dataclass field, a slot, or an attribute
  one of its methods assigns on ``self``, looked up through the MRO (a
  trailing ``(...)`` is ignored; any other class is written
  module-qualified, so a bare ``Class.member`` naming no class of the
  tree is a stale name too); a slash list, ``Class.a / b / c``, has every
  member it lists, whether or not the span wraps across lines;
* a repo path (one ending in a file suffix or ``/``, or whose first part
  is a directory) exists from the root, under ``src/`` or under
  ``src/repro/``.

A span qualified by a module relative to ``repro`` (``ledger.submit``,
``crypto.self_s``) is not checked: most are metric, trace-event or
instance-method names, not importable ones.

A ``file.py:N`` line citation is refused anywhere outside fenced blocks:
docs cite by name, which the checks above keep true.

Exits non-zero listing every problem, so docs/ cross-references, README
pointers and the names they cite cannot rot silently.  The only package
it imports beyond the standard library is ``repro``.

Run:  PYTHONPATH=src python tools/check_links.py README.md docs/*.md
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import pathlib
import pkgutil
import re
import sys
import textwrap

import repro

REPO = pathlib.Path(__file__).resolve().parents[1]

LINK = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)
CODE_SPAN = re.compile(r"(?<!`)`([^`]+)`(?!`)")
LINE_CITATION = re.compile(r"[\w./-]+\.(?:py|md|json|txt|yml|yaml|toml):\d+")
CALL = re.compile(r"\(.*\)$")
REPRO_NAME = re.compile(r"repro(?:\.\w+)+")
CLASS_MEMBER = re.compile(r"([A-Z]\w*)\.(\w+(?:\s*/\s*\w+)*)")
SLASH = re.compile(r"\s*/\s*")
PATH = re.compile(r"[\w.-]+(?:/[\w.-]*)*")
FILE_SUFFIX = re.compile(r"\.(?:py|md|json|txt|yml|yaml|toml|cfg|ini|sh)$")
PATH_ROOTS = (REPO, REPO / "src", REPO / "src" / "repro")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, strip punctuation, spaces to dashes."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path: pathlib.Path) -> set[str]:
    text = CODE_FENCE.sub("", path.read_text(encoding="utf-8"))
    return {github_slug(m.group(1)) for m in HEADING.finditer(text)}


def check_links(path: pathlib.Path, text: str) -> list[str]:
    problems = []
    for match in LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        base, _, fragment = target.partition("#")
        if base:
            resolved = (path.parent / base).resolve()
            if not resolved.exists():
                problems.append(f"{path}: broken link -> {target} (missing {base})")
                continue
        else:
            resolved = path.resolve()
        if fragment:
            if resolved.suffix != ".md":
                continue  # anchors into non-markdown files are not checked
            if github_slug(fragment) not in anchors_of(resolved):
                problems.append(
                    f"{path}: broken anchor -> {target} "
                    f"(no heading #{fragment} in {resolved.name})"
                )
    return problems


@functools.cache
def repro_classes() -> dict[str, list[type]]:
    """Every class defined at module level under ``src/repro``, by name."""
    classes: dict[str, list[type]] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == info.name:
                classes.setdefault(value.__name__, []).append(value)
    return classes


@functools.cache
def self_assigned(cls: type) -> frozenset[str]:
    """Attributes the methods of ``cls`` (not its bases) assign on ``self``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    return frozenset(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def has_member(cls: type, name: str) -> bool:
    """A class attribute (slots included), a dataclass field, or an
    attribute a method of the class or of a base under ``src/repro``
    assigns on ``self``."""
    if hasattr(cls, name) or name in getattr(cls, "__dataclass_fields__", {}):
        return True
    return any(
        klass.__module__.startswith("repro") and name in self_assigned(klass)
        for klass in cls.__mro__
    )


def resolves_repro_name(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            value = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(value, attribute):
                return False
            value = getattr(value, attribute)
        return True
    return False


def is_path(span: str) -> bool:
    if not PATH.fullmatch(span):
        return False
    if FILE_SUFFIX.search(span) or span.endswith("/"):
        return True
    head, slash, _ = span.partition("/")
    return bool(slash) and any((root / head).is_dir() for root in PATH_ROOTS)


def unresolved(span: str) -> str | None:
    """Why the name or path in one code span does not resolve, or None."""
    name = CALL.sub("", span.strip())
    if REPRO_NAME.fullmatch(name):
        return None if resolves_repro_name(name) else "no such name"
    if is_path(name):
        exists = any((root / name).exists() for root in PATH_ROOTS)
        return None if exists else "no such path"
    member = CLASS_MEMBER.fullmatch(name)
    if member:
        classes = repro_classes().get(member.group(1))
        if not classes:
            return "no such class under src/repro"
        missing = [
            name
            for name in SLASH.split(member.group(2))
            if not any(has_member(cls, name) for cls in classes)
        ]
        if missing:
            return f"no such member: {', '.join(missing)}"
    return None


def check_names(path: pathlib.Path, text: str) -> list[str]:
    problems = [
        f"{path}: line citation {match.group(0)} (cite by name)"
        for match in LINE_CITATION.finditer(text)
    ]
    for match in CODE_SPAN.finditer(text):
        reason = unresolved(match.group(1))
        if reason:
            problems.append(f"{path}: stale name `{match.group(1)}` ({reason})")
    return problems


def check_file(path: pathlib.Path) -> list[str]:
    text = CODE_FENCE.sub("", path.read_text(encoding="utf-8"))
    return check_links(path, text) + check_names(path, text)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: check_links.py FILE.md [FILE.md ...]", file=sys.stderr)
        return 2
    problems: list[str] = []
    checked = 0
    for pattern in argv:
        path = pathlib.Path(pattern)
        if not path.exists():
            problems.append(f"{path}: file does not exist")
            continue
        checked += 1
        problems.extend(check_file(path))
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"checked {checked} files: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
