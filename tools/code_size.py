"""Physical lines and ``ast`` node count of Python source, per package.

    python tools/code_size.py                    # every package under src/repro
    python tools/code_size.py src/repro/netsim   # these paths only

The size figures in ROADMAP.md / CHANGES.md come from here.  Lines reward
reformatting and stripped comments; nodes do not, so a shrinking PR quotes
both.
"""

from __future__ import annotations

import ast
import pathlib
import sys


def measure(root: pathlib.Path) -> tuple[int, int]:
    """``(physical lines, ast nodes)`` over one file or every ``*.py`` under a directory."""
    lines = nodes = 0
    for path in [root] if root.is_file() else sorted(root.rglob("*.py")):
        text = path.read_text()
        lines += len(text.splitlines())
        nodes += sum(1 for _ in ast.walk(ast.parse(text)))
    return lines, nodes


def main(arguments: list[str]) -> None:
    source = pathlib.Path("src/repro")  # run from the repository root, like the tests
    roots = [pathlib.Path(a) for a in arguments] or [*sorted(source.iterdir()), source.parent]
    for root in roots:
        if root.suffix == ".py" or root.is_dir() and root.name != "__pycache__":
            lines, nodes = measure(root)
            print(f"{str(root):<28} {lines:>7} lines {nodes:>8} nodes")


if __name__ == "__main__":
    main(sys.argv[1:])
