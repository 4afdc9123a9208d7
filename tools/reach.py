"""Which functions under ``src/repro`` does no user path call?

    python tools/reach.py           # run every user path, write results/unreached.txt
    python tools/reach.py --check   # same run; exit 1 if it differs from the committed file

A user path is something a user of the repository runs: the examples, the
recorded netsim experiments, ``tools/report_experiment.py --run`` for every
scenario, the e2e benchmark at smoke scale, ``tools/paper_scoreboard.py``, and
every per-layer ``benchmarks/bench_*.py`` run as a script (its one
measurement, at the size ``tools/perf_guard.py`` gates).  Each runs in a
subprocess with a ``sitecustomize.py`` first on ``PYTHONPATH`` that profiles
the whole interpreter with ``cProfile`` and dumps the code it saw at exit, so
the subprocesses a path starts (e2e's per-workload runs) are counted too.
Tests are not a user path.

Every function definition under ``src/repro`` that no path entered is one
sorted line of ``results/unreached.txt``::

    src/repro/<file>:<qualname>  <reason>

and the reason comes from a closed vocabulary (``REASONS``).  A function
with no reason is written as ``unexplained``; ``--check`` and
``tests/test_unreached.py`` refuse it.  So code no one calls cannot come
back unnoticed, and code that gains a caller leaves the list.

A path that exits non-zero is reported with the lines of its output that
carry ``FAIL`` (the scoreboard's failing rows), or its last line when none
does, and does not fail the run: the calls made before the exit still count.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = REPO_ROOT / "src" / "repro"
LISTING = REPO_ROOT / "results" / "unreached.txt"

REASONS = {
    "item-17": "a wire codec the byte routers of ROADMAP item 17 will call",
    "e2e-boundary": "named as a tracer boundary by benchmarks/e2e/trace.py",
    "recorded": "an entry point transaction_equivalence.json pins",
    "error-path": "runs only when an input is refused or an operation fails",
    "protocol": "an interface method that implementations override",
    "dunder": "called by the language, not by name",
}

# Reasons that are a decision, not a property of the code: label -> reason.
LISTED = {
    # The router takes packet objects, so no byte is parsed outside a test.
    **{f"src/repro/hummingbird/pathtype.py:{name}": "item-17" for name in (
        "HummingbirdPath.curr_hf_units", "HummingbirdPath.seg_len_units",
        "_decode_hopfield", "_encode_hopfield",
        "decode_hummingbird_path", "encode_hummingbird_path",
    )},
    **{f"src/repro/scion/packet.py:{name}": "item-17" for name in (
        "_decode_standard_hopfield", "_decode_standard_path",
        "_encode_standard_hopfield", "_encode_standard_path", "decode_packet", "encode_packet",
    )},
    **{f"src/repro/scion/addresses.py:{name}": "item-17" for name in (
        "HostAddr.pack", "HostAddr.unpack", "IsdAs.pack", "IsdAs.unpack",
    )},
    **{f"src/repro/wire/bitfields.py:{name}": "item-17" for name in (
        "BitPacker.bit_length", "BitPacker.put", "BitPacker.to_bytes",
        "BitUnpacker.take", "out_of_range",
    )},
    "src/repro/admission/auction.py:WindowAuction.clear": "e2e-boundary",
    # The router polices through the ingress's array itself; the e2e
    # tracer keeps this one-packet entry as its policing boundary.
    "src/repro/hummingbird/policing.py:PerInterfacePolicer.monitor": "e2e-boundary",
    "src/repro/controlplane/hostclient.py:HostClient.consolidate_coins": "recorded",
    "src/repro/contracts/coin.py:CoinContract.merge": "recorded",
    "src/repro/contracts/market.py:MarketContract.cancel_listing": "recorded",
    "src/repro/controlplane/asclient.py:AsService.cancel_listing": "recorded",
    # A delivery that fails after its ResID was allocated hands the ID back.
    "src/repro/hummingbird/resid.py:ResIdAllocator.release": "error-path",
    "src/repro/hummingbird/resid.py:FirstFitColoring.release": "error-path",
}

SITECUSTOMIZE = '''\
import atexit, cProfile, os, uuid

_profile = cProfile.Profile()


def _dump():
    _profile.disable()
    hits = {
        (entry.code.co_filename, entry.code.co_firstlineno, entry.code.co_name)
        for entry in _profile.getstats()
        if not isinstance(entry.code, str)
    }
    path = os.path.join(os.environ["REACH_DUMPS"], uuid.uuid4().hex)
    with open(path, "w") as out:
        out.writelines(f"{f}\\t{line}\\t{name}\\n" for f, line, name in hits)


atexit.register(_dump)
_profile.enable()
'''


def user_paths() -> list[tuple[str, list[str]]]:
    """``(label, argv)`` of every user path, each run from the repository root."""
    python = sys.executable
    paths = [(f"example {p.name}", [python, str(p)]) for p in sorted((REPO_ROOT / "examples").glob("*.py"))]
    paths.append((
        "recorded experiments",
        [python, "-c", "import sys; sys.path[:0] = ['tests/netsim']\n"
         "from test_experiment_equivalence import ExperimentRuns, run_experiments\n"
         "run_experiments(ExperimentRuns())"],
    ))
    for scenario in ("contention", "flex_market", "auction", "path"):
        paths.append((f"report {scenario}", [
            python, "tools/report_experiment.py", "--run", scenario, "--duration", "0.3",
        ]))
    # at the report's default second, a scan follows the first reclaim
    paths.append(("report reclamation", [
        python, "tools/report_experiment.py", "--run", "reclamation",
    ]))
    paths.append(("e2e smoke", [python, "benchmarks/e2e/run.py", "--smoke"]))
    paths.append(("scoreboard", [python, "tools/paper_scoreboard.py"]))
    for bench in sorted((REPO_ROOT / "benchmarks").glob("bench_*.py")):
        paths.append((f"script {bench.name}", [python, str(bench)]))
    return paths


def probe() -> set[tuple[str, int, str]]:
    """Run every user path under the profiler: the ``(file, first line, name)`` it entered."""
    with tempfile.TemporaryDirectory() as scratch:
        hook, dumps = pathlib.Path(scratch, "hook"), pathlib.Path(scratch, "dumps")
        hook.mkdir()
        dumps.mkdir()
        (hook / "sitecustomize.py").write_text(SITECUSTOMIZE)
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(hook), str(REPO_ROOT / "src"), str(REPO_ROOT)]),
            "REACH_DUMPS": str(dumps),
        }
        for label, argv in user_paths():
            began = time.perf_counter()
            finished = subprocess.run(
                argv, cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, timeout=1800,
            )
            note = ""
            if finished.returncode:
                lines = finished.stdout.strip().splitlines() or ["(no output)"]
                failed = [line for line in lines if "FAIL" in line] or lines[-1:]
                note = f"  exit {finished.returncode}: " + "\n    ".join(failed)
            print(f"{time.perf_counter() - began:7.1f} s  {label}{note}", flush=True)
        hits = set()
        for dump in dumps.iterdir():
            for row in dump.read_text().splitlines():
                filename, line, name = row.split("\t")
                hits.add((os.path.realpath(filename), int(line), name))
        return hits


def definitions() -> list[tuple[str, ast.AST, list[ast.AST], tuple[str, int, str]]]:
    """Every function under ``src/repro``: ``(label, node, enclosing nodes, probe key)``.

    The key is what a code object reports: a decorated function's first line
    is its first decorator's.  Code objects compare equal across files, so
    the file is part of the key.
    """
    found = []

    def walk(node, path, label, scope, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = ".".join([*scope, child.name])
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    key = (str(path.resolve()), first, child.name)
                    found.append((f"{label}:{qualname}", child, enclosing, key))
                    inner = [*scope, child.name, "<locals>"]
                else:
                    inner = [*scope, child.name]
                walk(child, path, label, inner, [*enclosing, child])
            else:
                walk(child, path, label, scope, enclosing)

    for path in sorted(SOURCE.rglob("*.py")):
        label = path.relative_to(REPO_ROOT).as_posix()
        walk(ast.parse(path.read_text()), path, label, [], [])
    return found


def _trivial(body: list[ast.stmt]) -> bool:
    """A body that only documents, passes, or raises ``NotImplementedError``."""
    for statement in body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
            continue  # docstring or ``...``
        if isinstance(statement, ast.Raise) and "NotImplementedError" in ast.unparse(statement):
            continue
        return False
    return True


def reason(label: str, node: ast.AST, enclosing: list[ast.AST]) -> str:
    """The one vocabulary word that explains why ``node`` may stay uncalled."""
    if label in LISTED:
        return LISTED[label]
    if node.name.startswith("__") and node.name.endswith("__"):
        return "dunder"
    owner = next((n for n in reversed(enclosing) if isinstance(n, ast.ClassDef)), None)
    bases = [ast.unparse(b) for b in owner.bases] if owner else []
    if any("Protocol" in b or "ABC" in b for b in bases) or _trivial(node.body):
        return "protocol"
    if isinstance(node.body[-1], ast.Raise):
        return "error-path"
    return "unexplained"


def unreached(hits: set[tuple[str, int, str]]) -> list[str]:
    """The sorted listing: one line per function no user path entered."""
    return sorted(
        f"{label}  {reason(label, node, enclosing)}"
        for label, node, enclosing, key in definitions()
        if key not in hits
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed listing instead of writing it")
    args = parser.parse_args(argv)
    began = time.perf_counter()
    lines = unreached(probe())
    total = len(definitions())
    print(f"{len(lines)} of {total} functions unreached; probe wall {time.perf_counter() - began:.0f} s")
    if args.check:
        committed = LISTING.read_text().splitlines() if LISTING.exists() else []
        gone = sorted(set(committed) - set(lines))
        new = sorted(set(lines) - set(committed))
        for line in gone:
            print(f"- {line}")
        for line in new:
            print(f"+ {line}")
        bad = [line for line in lines if line.rsplit(None, 1)[-1] not in REASONS]
        for line in bad:
            print(f"no reason: {line}")
        return 1 if gone or new or bad else 0
    LISTING.parent.mkdir(exist_ok=True)
    LISTING.write_text("".join(f"{line}\n" for line in lines))
    print(f"wrote {LISTING.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
