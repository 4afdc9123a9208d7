"""Path atomicity has one owner, the ledger.

A path's hops are bought in one transaction, and each on-path AS answers its
own redeem request on chain: it delivers, or it refuses and the redeemer holds
the two assets again (``asset.refuse_redemption``).  No AS coordinates with
another, as in Hummingbird's Fig. 2.  ``purchase_path`` used to screen and
roll back every on-path AS's private active calendar through ``PathAdmission``
first: a second, off-chain owner of path atomicity that guarded one purchase
route of five, while a refusal on any other route stranded the host's assets
in a request the AS kept, recorded only in ``AsService.undeliverable``.

``pathadm/protocol.py`` is left for its own bench and tests and for the e2e
benchmark's tracer, which names ``PathAdmission.screen`` / ``.rollback``
(ROADMAP item 20(iii)); nothing else in ``src/repro`` may reach for it again.
"""

from __future__ import annotations

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent
PROTOCOL = "repro.pathadm.protocol"


def _protocol_sites() -> list[str]:
    """``module.py:line`` of every name of ``PathAdmission`` and every import
    of the protocol module under ``src/repro``."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            named = (
                (isinstance(node, ast.Name) and node.id == "PathAdmission")
                or (isinstance(node, ast.Attribute) and node.attr == "PathAdmission")
                or (
                    isinstance(node, ast.ImportFrom)
                    and (
                        node.module == PROTOCOL
                        or any(alias.name == "PathAdmission" for alias in node.names)
                    )
                )
                or (
                    isinstance(node, ast.Import)
                    and any(alias.name == PROTOCOL for alias in node.names)
                )
            )
            if named:
                sites.append(f"{path.relative_to(SRC)}:{node.lineno}")
    return sites


def test_no_module_outside_pathadm_names_the_two_phase_protocol():
    sites = _protocol_sites()
    # the walk is not vacuous: the package re-exports it
    assert any(site.startswith("pathadm/__init__.py:") for site in sites)
    assert [site for site in sites if not site.startswith("pathadm/")] == []


def test_the_control_plane_keeps_no_off_chain_path_verdict():
    for path in sorted((SRC / "controlplane").glob("*.py")):
        text = path.read_text()
        for word in ("PathAdmission", "path_admission", "undeliverable"):
            assert word not in text, f"{path.name} names {word}"
