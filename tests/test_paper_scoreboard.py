"""docs/reproduction.md is the scoreboard's output, row for row; nothing here is timed."""

import pathlib
import sys

from repro.perfmodel import papertimings as paper

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import paper_scoreboard as board  # noqa: E402

DOC = (REPO / "docs" / "reproduction.md").read_text()


def committed() -> list[tuple[str, str, str]]:
    """``(section title, quantity, paper cell)`` of every table row."""
    rows, title = [], None
    for line in DOC.splitlines():
        if line.startswith("## "):
            title = line[3:]
        elif line.startswith("| ") and not line.startswith("| Quantity |"):
            rows.append((title, *(cell.strip() for cell in line.split("|")[1:3])))
    return rows


def test_the_committed_rows_are_the_declared_rows_and_all_passed():
    declared = [(title, quantity, board.cell(value))
                for title, rows, _ in board.ARTEFACTS for quantity, value in rows]
    assert committed() == declared
    assert "**FAIL**" not in DOC


def test_every_paper_value_from_papertimings_is_its_constant():
    cells = {(title.split(" — ")[0], quantity): cell for title, quantity, cell in committed()}
    steps = paper.ROUTER_STEPS_SCION + paper.ROUTER_STEPS_HUMMINGBIRD_EXTRA
    expected = [
        *(("Table 3", step) for step in steps),
        ("Table 3", ("SCION hop", paper.SCION_FORWARD_NS)),
        ("Table 3", ("Hummingbird hop", paper.HUMMINGBIRD_FORWARD_NS)),
        ("Table 3", ("Hummingbird's extra over a SCION hop", paper.HUMMINGBIRD_EXTRA_NS)),
        ("Table 4", ("Add header fields, 500 B", paper.SOURCE_HEADERS_NS)),
        ("Table 4", ("Compute flyover MACs, 500 B", paper.SOURCE_FLYOVER_MACS_4HOPS_NS)),
        ("Table 4", ("Add hop fields, 500 B", paper.SOURCE_HOPFIELDS_4HOPS_NS)),
        ("Table 4", ("Add payload, 500 B", paper.SOURCE_PAYLOAD_500_NS)),
        ("Table 4", ("Hummingbird generation, 500 B", paper.hummingbird_generation_ns(4, 500))),
        ("Table 4", ("SCION generation, 500 B", paper.scion_generation_ns(4, 500))),
    ]
    for section, (quantity, value) in expected:
        assert cells[section, quantity] == board.cell(value), quantity


def test_fig14_marks_every_paper_cell_it_scales():
    """The paper measured h=4 only: its h=2 and h=8 cells, and their ratio,
    are Table 4's per-hop costs scaled, and their labels say so."""
    (rows,) = [rows for title, rows, _ in board.ARTEFACTS if title.startswith("Fig. 14")]
    scaled = [quantity for quantity, _ in rows if quantity.endswith(board.SCALED)]
    assert len(rows) == 4 and len(scaled) == 3
    assert dict(rows)["Hummingbird ns per packet, h=4"] == paper.hummingbird_generation_ns(4, 500)
