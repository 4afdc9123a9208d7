"""Every name and path the README and docs/ cite in inline code resolves.

``tools/check_links.py`` (CI's docs job) resolves each ``repro.…`` name by
import, each ``Class.member`` of a class under ``src/repro`` through the
MRO, and each repo path from the root, ``src/`` or ``src/repro/``; it
refuses ``file.py:N`` line citations.  Running it here too means a change
that deletes a function a doc names fails tier-1, not only the docs job.
"""

import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))

import check_links  # noqa: E402


def test_readme_and_docs_cite_only_what_exists():
    pages = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
    problems = [problem for page in pages for problem in check_links.check_file(page)]
    assert problems == []


def test_a_page_citing_gone_code_is_refused(tmp_path):
    page = tmp_path / "stale.md"
    page.write_text(
        "A packet copies its path with `PacketPath.with_hopfields`, calendars\n"
        "live in `admission/sharded.py`, and a link schedules its packets at\n"
        "`src/repro/netsim/link.py:12`; `PacketPath.with_segments` and\n"
        "`netsim/link.py` are still here.\n",
        encoding="utf-8",
    )
    problems = check_links.check_file(page)
    for stale in ("PacketPath.with_hopfields", "admission/sharded.py", "link.py:12"):
        assert sum(stale in problem for problem in problems) == 1, problems
    assert len(problems) == 3, problems


def test_every_member_of_a_slash_list_is_checked(tmp_path):
    page = tmp_path / "listed.md"
    page.write_text(
        "Hosts call `HostClient.acquire_path /\n"
        "  place_bid / bid_for_path`, and ASes `AsService.open_auctions / contribute_path_leg`.\n",
        encoding="utf-8",
    )
    (problem,) = check_links.check_file(page)
    assert "no such member: bid_for_path" in problem
