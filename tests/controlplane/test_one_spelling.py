"""Each contract call is spelled once in ``controlplane/``.

The control plane has one mechanism — a programmable transaction — so a
``(contract, function)`` pair is written as a ``Command(...)`` literal at
exactly one site and a ``Transaction(...)`` is built once per client (plus
``deploy_market``'s marketplace creation).  A second ``Command("market",
"buy", ...)`` is a second lowering growing back: before PR 18 there were four
of them, and 21 hand-wrapped transactions.
"""

from __future__ import annotations

import ast
import collections
import pathlib

import repro.controlplane

SOURCES = sorted(pathlib.Path(repro.controlplane.__file__).parent.glob("*.py"))


def _calls(name: str):
    """Every ``name(...)`` call in the package, as ``(file:line, node)``."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == name
            ):
                yield f"{path.name}:{node.lineno}", node


def test_every_contract_call_is_a_literal_written_at_one_site():
    sites = collections.defaultdict(list)
    for where, call in _calls("Command"):
        pair = call.args[:2]
        assert len(pair) == 2 and all(
            isinstance(arg, ast.Constant) and isinstance(arg.value, str) for arg in pair
        ), f"{where}: Command(contract, function) must be two string literals"
        sites[(pair[0].value, pair[1].value)].append(where)
    repeated = {pair: where for pair, where in sites.items() if len(where) > 1}
    assert not repeated, repeated
    # the net is not vacuous: the lowering's three commands are among them
    assert {("market", "buy"), ("asset", "fuse_time"), ("asset", "redeem"),
            ("asset", "issue")} <= set(sites)


def test_a_transaction_is_built_once_per_client():
    built = collections.Counter(where.split(":")[0] for where, _ in _calls("Transaction"))
    assert built == {"hostclient.py": 1, "asclient.py": 1, "workflow.py": 1}, built


# -- the contract-side twin ----------------------------------------------------
#
# An auction is settled by one body whatever its number of legs: before PR 22
# ``contracts/market.py`` created coins at seven sites and wrote the escrow /
# award / refund / proceeds / relist sequence twice (window and path).


def _market_calls(name: str) -> list[tuple[str, ast.Call]]:
    """``(enclosing scope, call)`` for every ``*.name(...)`` in ``contracts/market.py``."""
    import repro.contracts.market

    found = []

    def visit(node, scope):
        if isinstance(node, ast.FunctionDef):
            scope = [*scope, node.name]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Attribute, ast.Name))
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == name
        ):
            found.append((".".join(scope), node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(pathlib.Path(repro.contracts.market.__file__).read_text()), [])
    return found


def test_an_auction_escrows_awards_refunds_pays_and_relists_at_one_site_each():
    created = collections.defaultdict(list)
    for scope, call in _market_calls("create_object"):
        created[ast.unparse(call.args[0])].append(scope)
    # a bid object of either type: the one escrow
    assert created["bid_type"] == ["_escrow_bid"]
    assert "BID_TYPE" not in created and "PATH_BID_TYPE" not in created
    # a coin: the one way the market pays; a listing: a seller's, or a remainder's
    assert created["COIN_TYPE"] == ["_pay"]
    assert created["LISTING_TYPE"] == ["create_listing", "_relist"]

    paid = [scope for scope, _ in _market_calls("_pay")]
    # the buyer's payment; a bid's refund (winner's surplus or loser's escrow);
    # a leg seller's proceeds
    assert paid == ["buy", "_settle.close", "_settle"]
    assert [scope for scope, _ in _market_calls("close")] == ["_settle", "_settle"]
    relisted = [(scope, call.args[-1].value) for scope, call in _market_calls("_relist")]
    assert relisted == [("buy", "Relisted"), ("buy", "Relisted"), ("_settle", "Listed")]
    # a winner's piece is carved at one site, and both protocols go through it
    assert [s for s, _ in _market_calls("split_bandwidth_inner")] == ["buy", "_settle"]
    assert [s for s, _ in _market_calls("_settle")] == ["settle_auction", "settle_path_auction"]
    assert [s for s, _ in _market_calls("_escrow_bid")] == ["place_bid", "place_path_bid"]


def test_the_as_service_has_one_auctioned_rectangle_record():
    """ROADMAP item 4(c): ``OpenAuctionRecord`` / ``PathLegRecord`` were one
    record spelled twice, and a path leg was then a third copy of what the
    index holds.  The AS keeps one rectangle record, its window auctions';
    a path auction's legs are read off the index."""
    asclient = next(path for path in SOURCES if path.name == "asclient.py")
    records = [
        node.name
        for node in ast.parse(asclient.read_text()).body
        if isinstance(node, ast.ClassDef)
        and {"interface", "is_ingress", "start", "expiry"}
        <= {
            field.target.id for field in node.body if isinstance(field, ast.AnnAssign)
        }
    ]
    assert records == ["AuctionedRectangle"]


# -- the off-chain twin ----------------------------------------------------------
#
# ``repro.marketdata`` is the only place off-chain code learns what the
# marketplace holds and what the contract will accept (PR 23): before it, hosts
# replayed auction events beside the index, the transfer book copied the listing
# record and its carve / price rule, two planners each scanned the whole index,
# and the granule-lattice fold was written twice.


def _scoped(tree):
    """``(dotted enclosing scope, node)`` for every node of a module."""

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        yield ".".join(scope), node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return visit(tree, [])


def _src_sites(matches) -> set[str]:
    """``package/module.py:scope`` of every node ``matches`` accepts in ``src/repro``."""
    import repro

    package = pathlib.Path(repro.__file__).parent
    return {
        f"{path.relative_to(package)}:{scope}"
        for path in sorted(package.rglob("*.py"))
        for scope, node in _scoped(ast.parse(path.read_text()))
        if matches(node)
    }


def test_the_price_ceiling_and_the_lattice_fold_are_written_once_off_chain():
    def ceiling(node) -> bool:  # ``... // MICROMIST`` or ``... // 1_000_000``
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.FloorDiv)
            and (
                (isinstance(node.right, ast.Name) and node.right.id == "MICROMIST")
                or (isinstance(node.right, ast.Constant) and node.right.value == 1_000_000)
            )
        )

    off_chain = {
        site for site in _src_sites(ceiling)
        # the authority the others predict: the contract and the escrow /
        # payment rule it imports
        if not site.startswith(("contracts/", "pathadm/auction.py"))
    }
    # the index prices its rows through it too
    assert off_chain == {"marketdata/query.py:price_mist"}

    def gcd(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "gcd"

    assert _src_sites(gcd) == {"marketdata/query.py:fold_lattices"}

    def imports_the_index(node) -> bool:
        return isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "repro.marketdata"
        )

    # the index predicts the contract, never the other way round
    assert not {
        site for site in _src_sites(imports_the_index)
        if site.startswith(("contracts/", "pathadm/", "ledger/"))
    }


def test_the_event_log_is_read_by_the_index_and_three_pollers():
    def log_read(node) -> bool:  # ``<...>.ledger.events`` / ``ledger.events_since``
        return (
            isinstance(node, ast.Attribute)
            and node.attr in ("events", "events_since")
            and (
                getattr(node.value, "attr", None) == "ledger"
                or getattr(node.value, "id", None) == "ledger"
            )
        )

    assert _src_sites(log_read) == {
        "marketdata/indexer.py:MarketIndexer.sync",
        "controlplane/asclient.py:AsService.poll_bids",
        "controlplane/asclient.py:AsService.poll_and_deliver",
        # deliveries are per redeemer, not per marketplace: ROADMAP 1(c)
        "controlplane/hostclient.py:HostClient.collect_reservations",
        # the checker: every request a poll saw was answered on chain
        "invariants.py:_redemption_breaches",
    }
    hostclient = next(path for path in SOURCES if path.name == "hostclient.py")
    constructor = next(
        node
        for scope, node in _scoped(ast.parse(hostclient.read_text()))
        if scope == "HostClient.__init__" and isinstance(node, ast.FunctionDef)
    )
    cursors = {
        node.attr
        for node in ast.walk(constructor)
        if isinstance(node, ast.Attribute)
        and any(word in node.attr for word in ("cursor", "checkpoint", "position"))
    }
    assert cursors == {"_delivery_checkpoint"}


def test_off_chain_there_is_one_listing_record_one_auction_view_and_one_quote():
    def record(node) -> bool:  # a class carrying a listing's carve rule
        return isinstance(node, ast.ClassDef) and any(
            isinstance(member, ast.FunctionDef) and member.name == "sellable"
            for member in node.body
        )

    assert _src_sites(record) == {"marketdata/query.py:IndexedListing"}

    def auction_fold(node) -> bool:  # code that branches on an auction event's name
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value in ("AuctionOpened", "PathLegContributed", "PathAuctionSettled")
        )

    assert {site.split(":")[0] for site in _src_sites(auction_fold)} == {
        "contracts/market.py",  # emits them
        "marketdata/indexer.py",  # folds them
    }

    def quote(node) -> bool:  # a record with one priced hop pair per crossing
        return isinstance(node, ast.ClassDef) and {"hops", "offset"} <= {
            field.target.id for field in node.body if isinstance(field, ast.AnnAssign)
        }

    assert _src_sites(quote) == {"marketdata/planner.py:PathQuote"}

    def whole_index_scan(node) -> bool:  # ``indexer.listings()``: every row
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "listings"
        )

    # the invariant check compares every row on purpose; planners ask by key
    assert _src_sites(whole_index_scan) == {"invariants.py:_index_breaches"}


# -- the admission twin ------------------------------------------------------------
#
# An AS admits one asset or one redeem request at a time, so admission has one
# path: no array library behind the calendar, no batch or bulk twin of a
# per-request call, and no calendar level that a commitment record does not
# explain.


def test_admission_decides_one_request_at_a_time():
    import repro.admission

    sources = sorted(pathlib.Path(repro.admission.__file__).parent.glob("*.py"))
    assert len(sources) >= 6
    numpy_imports, batch_names = [], []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            numpy_imports += [
                f"{path.name}:{module}" for module in modules if module.split(".")[0] == "numpy"
            ]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            else:
                names = []
            batch_names += [
                f"{path.name}:{name}"
                for name in names
                if not name.startswith("_")
                and any(word in name.lower() for word in ("batch", "bulk", "multipliers"))
            ]
    assert not numpy_imports, numpy_imports
    assert not batch_names, batch_names
