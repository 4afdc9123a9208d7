"""The committed reachability list: every entry a live definition with a reason.

``python tools/reach.py`` runs every user path under a profiler and writes
``results/unreached.txt``: one sorted line per function under
``src/repro`` that no path calls, with one reason from a closed vocabulary.
The probe takes minutes, so CI runs ``--check`` in its own job; this test
checks the committed file against the tree as it stands.  It cannot say a
listed function is still uncalled, but it fails on a list that names a
definition that is gone, gives no reason, or grows past the ceiling.
"""

import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import reach  # noqa: E402

# Only ever lowered: a function no user path calls either gains a caller or
# leaves src/.  150 when the list was introduced, before its deletions.
CEILING = 46


def entries() -> list[str]:
    return reach.LISTING.read_text().splitlines()


def test_the_list_is_sorted_unique_and_within_the_ceiling():
    lines = entries()
    assert lines == sorted(set(lines))
    assert len(lines) <= CEILING


def test_every_entry_names_a_definition_with_a_vocabulary_reason():
    defined = {label for label, *_ in reach.definitions()}
    for line in entries():
        label, reason = line.split("  ")
        assert label in defined, f"{label}: no such function under src/repro"
        assert reason in reach.REASONS, f"{label}: {reason!r} is not a listed reason"


def test_a_reason_is_derived_not_chosen_per_run():
    """The listing is reproducible: what ``reach.py`` would write for the
    committed entries is exactly what the file says."""
    by_label = {label: (node, enclosing) for label, node, enclosing, _ in reach.definitions()}
    for line in entries():
        label, reason = line.split("  ")
        assert reach.reason(label, *by_label[label]) == reason, label
