"""The reachability probe itself, run on a small package in a temporary tree.

``tools/reach.py`` profiles every user path in a subprocess and lists each
function no path entered.  These tests point it at a toy source tree and
toy paths, so the probe's keying (decorated functions, same-named functions
in two files), its merging of dumps across processes, its handling of a
failing path, the reason vocabulary and ``--check`` are checked in a second
instead of the minutes the real probe takes.
"""

import contextlib
import io
import pathlib
import sys
import textwrap

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import reach  # noqa: E402

TOY = {
    "__init__.py": "",
    "calls.py": """\
        import functools


        def deco(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return fn(*args, **kwargs)
            return wrapper


        @deco
        def decorated():
            return 1


        def uncalled():
            return 2


        def in_child():
            return 3


        def before_exit():
            return 4
        """,
    "left.py": """\
        def same():
            return 1
        """,
    "right.py": """\
        def same():
            return 1
        """,
    "kinds.py": """\
        from typing import Protocol


        class Shape:
            def __repr__(self):
                return "shape"

            def area(self):
                ...

            def refuse(self):
                raise ValueError("no shape")

            def plain(self):
                return 0

            def decided(self):
                return 0


        class NullShape:
            def area(self):
                return 0


        class Sized(Protocol):
            def size(self) -> int:
                return 0
        """,
}

CHILD = "import toy.calls; toy.calls.in_child()"
PATHS = [
    ("direct", ["-c", "import toy.calls, toy.left; toy.calls.decorated(); toy.left.same()"]),
    ("parent", ["-c", f"import subprocess, sys; subprocess.run([sys.executable, '-c', {CHILD!r}], check=True)"]),
    ("failing", ["-c", "import sys, toy.calls; toy.calls.before_exit(); print('early words');"
                 " print('last words'); sys.exit(3)"]),
    ("scored", ["-c", "print('| a row | **FAIL** |'); print('| a row | pass |');"
                " raise SystemExit(1)"]),
]


def point_at(patch, root):
    """Make ``reach`` see the toy tree at ``root`` and the toy paths."""
    patch.setattr(reach, "REPO_ROOT", root)
    patch.setattr(reach, "SOURCE", root / "src" / "toy")
    patch.setattr(reach, "LISTING", root / "results" / "unreached.txt")
    patch.setattr(reach, "LISTED", {"src/toy/kinds.py:Shape.decided": "item-17"})
    patch.setattr(
        reach, "user_paths", lambda: [(label, [sys.executable, *argv]) for label, argv in PATHS]
    )


@pytest.fixture(scope="module")
def probed(tmp_path_factory):
    """One probe of the toy tree: ``(root, hits, listing, probe output)``."""
    root = tmp_path_factory.mktemp("toy")
    package = root / "src" / "toy"
    package.mkdir(parents=True)
    for name, text in TOY.items():
        (package / name).write_text(textwrap.dedent(text))
    with pytest.MonkeyPatch.context() as patch:
        point_at(patch, root)
        output = io.StringIO()
        with contextlib.redirect_stdout(output):
            hits = reach.probe()
        listing = dict(line.split("  ") for line in reach.unreached(hits))
    return root, hits, listing, output.getvalue()


@pytest.fixture
def toy(probed, monkeypatch):
    root, hits, listing, output = probed
    point_at(monkeypatch, root)
    return hits, listing, output


def test_a_decorated_function_is_keyed_by_its_first_decorator_line(toy):
    _, listing, _ = toy
    assert "src/toy/calls.py:decorated" not in listing
    assert "src/toy/calls.py:deco.<locals>.wrapper" not in listing
    assert listing["src/toy/calls.py:uncalled"] == "unexplained"


def test_same_name_on_the_same_line_of_two_files_is_told_apart(toy):
    _, listing, _ = toy
    assert "src/toy/left.py:same" not in listing
    assert "src/toy/right.py:same" in listing


def test_a_subprocess_of_a_path_is_counted(toy):
    _, listing, _ = toy
    assert "src/toy/calls.py:in_child" not in listing


def test_a_failing_path_is_reported_and_its_calls_count(toy):
    _, listing, output = toy
    assert "src/toy/calls.py:before_exit" not in listing
    assert "failing  exit 3: last words" in output and "early words" not in output
    assert "direct" in output and "direct  exit" not in output


def test_a_failing_path_is_reported_by_its_failing_rows(toy):
    """The scoreboard's last line can be a passing row: the note names the
    rows that failed instead."""
    _, _, output = toy
    assert "scored  exit 1: | a row | **FAIL** |" in output
    assert "| a row | pass |" not in output


@pytest.mark.parametrize(
    ("label", "expected"),
    [
        ("src/toy/kinds.py:Shape.__repr__", "dunder"),
        ("src/toy/kinds.py:Shape.area", "protocol"),
        ("src/toy/kinds.py:Sized.size", "protocol"),
        ("src/toy/kinds.py:NullShape.area", "unexplained"),  # a Null name earns no reason
        ("src/toy/kinds.py:Shape.refuse", "error-path"),
        ("src/toy/kinds.py:Shape.decided", "item-17"),
        ("src/toy/kinds.py:Shape.plain", "unexplained"),
    ],
)
def test_each_unreached_function_gets_its_reason(toy, label, expected):
    _, listing, _ = toy
    assert listing[label] == expected


@pytest.mark.parametrize(
    ("edit", "status"),
    [
        (lambda lines: lines, 0),
        (lambda lines: lines[1:], 1),  # an uncalled function not in the committed list
        (lambda lines: [*lines, "src/toy/calls.py:decorated  protocol"], 1),  # listed, now called
    ],
    ids=["same", "new-unreached", "listed-is-reached"],
)
def test_check_fails_on_any_difference_from_the_committed_list(toy, edit, status, monkeypatch):
    hits, listing, _ = toy
    # Let the probe have reached every unexplained function, so that the
    # list it finds is one the check can accept.
    hits = hits | {
        key for label, _, _, key in reach.definitions() if listing.get(label) == "unexplained"
    }
    lines = sorted(f"{label}  {why}" for label, why in listing.items() if why != "unexplained")
    reach.LISTING.parent.mkdir(exist_ok=True)
    reach.LISTING.write_text("".join(f"{line}\n" for line in edit(lines)))
    monkeypatch.setattr(reach, "probe", lambda: hits)
    with contextlib.redirect_stdout(io.StringIO()):
        assert reach.main(["--check"]) == status


def test_check_refuses_an_unexplained_entry_even_when_committed(toy, monkeypatch):
    hits, listing, _ = toy
    reach.LISTING.parent.mkdir(exist_ok=True)
    reach.LISTING.write_text("".join(f"{label}  {why}\n" for label, why in sorted(listing.items())))
    monkeypatch.setattr(reach, "probe", lambda: hits)
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        assert reach.main(["--check"]) == 1
    assert output.getvalue().count("no reason: ") == list(listing.values()).count("unexplained")
    assert "no reason: src/toy/calls.py:uncalled  unexplained" in output.getvalue()


def test_the_write_mode_writes_the_sorted_listing(toy, monkeypatch):
    hits, listing, _ = toy
    reach.LISTING.unlink(missing_ok=True)
    monkeypatch.setattr(reach, "probe", lambda: hits)
    with contextlib.redirect_stdout(io.StringIO()):
        assert reach.main([]) == 0
    lines = reach.LISTING.read_text().splitlines()
    assert lines == sorted(f"{label}  {why}" for label, why in listing.items())


def test_every_user_path_is_probed():
    labels = [label for label, _ in reach.user_paths()]
    examples = sorted((REPO / "examples").glob("*.py"))
    benches = sorted((REPO / "benchmarks").glob("bench_*.py"))
    assert [f"example {p.name}" for p in examples] == labels[: len(examples)]
    assert "recorded experiments" in labels and "e2e smoke" in labels and "scoreboard" in labels
    assert sum(label.startswith("report ") for label in labels) == 5
    assert [f"script {p.name}" for p in benches] == labels[-len(benches):]
    assert len(labels) == len(examples) + 1 + 5 + 1 + 1 + len(benches)
