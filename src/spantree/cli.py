"""Command-line front end: classify graphs, count spanning trees with the
fastest applicable method, and emit weighted enumerators.

Exit codes: 0 success, 2 malformed input or inapplicable request, 3 a
capability guard refused to run, 4 an internal exactness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Sequence

from .counting import (
    DEFAULT_ORACLE_LIMIT,
    bipartite_count,
    complete_count,
    ferrers_count,
    matrix_tree_count,
    multipartite_count,
    oracle_count,
    perturbation_count,
    special_2_threshold_count,
    threshold_count,
)
from .errors import (
    CapabilityExceededError,
    EdgeListParseError,
    ExactnessError,
    SpantreeError,
)
from .graph import Graph, PartitionShape, complete, complete_multipartite, ferrers_graph, parse_edge_list
from .poly import MultiPoly
from .recognition import (
    DEFAULT_SEARCH_LIMIT,
    FAMILY_FERRERS,
    FAMILY_SPECIAL_2_THRESHOLD,
    FAMILY_THRESHOLD,
    ConstructionOrder,
    FerrersStructure,
    ferrers_structure,
    forbidden_witness,
    special_2_threshold_order,
    threshold_order,
)
from .weighted import (
    weighted_count_ferrers,
    weighted_count_special_2threshold,
    weighted_count_threshold,
    weighted_matrix_tree_count,
    weighted_oracle,
    weighted_perturbation_count,
)

_ORACLE_ENV = "SPANTREE_ORACLE_LIMIT"


def _oracle_limit() -> int:
    raw = os.environ.get(_ORACLE_ENV)
    if raw is None:
        return DEFAULT_ORACLE_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise EdgeListParseError(f"{_ORACLE_ENV} must be an integer, got {raw!r}")


def _load_graph(path: str) -> Graph:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise EdgeListParseError(f"cannot read {path}: {exc}")
    return parse_edge_list(text, source=path)


def _parse_parts(raw: str, flag: str) -> list[int]:
    try:
        parts = [int(x) for x in raw.split(",") if x.strip() != ""]
    except ValueError:
        raise EdgeListParseError(f"{flag} expects comma-separated integers, got {raw!r}")
    if not parts:
        raise EdgeListParseError(f"{flag} expects at least one integer")
    return parts


def _order_json(co: ConstructionOrder | None) -> dict | None:
    if co is None:
        return None
    return {
        "order": list(co.order),
        "u_set": sorted(co.u_set),
        "roles": list(co.roles),
    }


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))


def _bounded_int(low: int) -> Callable[[str], int]:
    """argparse type for an integer of at least ``low``; anything else is a
    usage error (exit 2) instead of a silently reinterpreted value."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _classify(g: Graph, search_limit: int) -> dict:
    """Family memberships plus certificates."""
    threshold_co = threshold_order(g)
    fs = ferrers_structure(g)
    try:
        found = special_2_threshold_order(g, max_vertices=search_limit)
    except CapabilityExceededError:
        # A recognized family already settles the U-search past its cap:
        # U = V for threshold graphs, U = the columns for Ferrers graphs.
        if threshold_co is not None:
            found = (threshold_co.u_set, threshold_co)
        elif fs is not None:
            co = fs.construction_order()
            found = (co.u_set, co)
        else:
            raise
    witnesses: list[tuple[str, object]] = []
    if threshold_co is None:
        w = forbidden_witness(g, FAMILY_THRESHOLD)
        if w is not None:
            witnesses.append((FAMILY_THRESHOLD, w))
    if found is None:
        w = forbidden_witness(g, FAMILY_SPECIAL_2_THRESHOLD)
        if w is not None:
            witnesses.append((FAMILY_SPECIAL_2_THRESHOLD, w))
    if fs is None:
        try:
            w = forbidden_witness(g, FAMILY_FERRERS)
        except ValueError:
            w = None  # not connected bipartite; the check does not apply
        if w is not None:
            witnesses.append((FAMILY_FERRERS, w))
    return {
        "threshold_co": threshold_co,
        "special": found,
        "ferrers": fs,
        "witnesses": witnesses,
    }


def _classification_json(info: dict) -> dict:
    fs = info["ferrers"]
    found = info["special"]
    return {
        "threshold": info["threshold_co"] is not None,
        "special_2_threshold": found is not None,
        "ferrers": fs is not None,
        "u_set": sorted(found[0]) if found is not None else None,
        "ferrers_shape": list(fs.shape.parts) if fs is not None else None,
        "ferrers_traversal": list(fs.traversal) if fs is not None else None,
    }


def cmd_classify(args: argparse.Namespace) -> int:
    g = _load_graph(args.file)
    info = _classify(g, args.u_search_limit)
    co = info["threshold_co"] or (info["special"][1] if info["special"] else None)
    payload = {
        "input": {"path": args.file, "vertices": g.n, "edges": [list(e) for e in g.edges()]},
        "classification": _classification_json(info),
        "method": None,
        "count": None,
        "polynomial": None,
        "witnesses": [
            {"family": fam, "pattern": w.pattern_name, "vertices": list(w.vertices)}
            for fam, w in info["witnesses"]
        ],
        "construction_order": _order_json(co),
    }

    lines = [f"graph: {g.n} vertices, {g.edge_count} edges"]
    lines.append(f"threshold: {'yes' if info['threshold_co'] else 'no'}")
    if info["special"]:
        u_set, sco = info["special"]
        lines.append(
            "special-2-threshold: yes (U = {%s})" % ", ".join(map(str, sorted(u_set)))
        )
        lines.append("  order: " + " ".join(map(str, sco.order)))
        lines.append(
            "  roles: "
            + " ".join(f"{v}:{r}" for v, r in zip(sco.order, sco.roles))
        )
    else:
        lines.append("special-2-threshold: no")
    if info["ferrers"]:
        fs = info["ferrers"]
        lines.append(
            "ferrers: yes (shape %s, traversal %s)"
            % (",".join(map(str, fs.shape.parts)), " ".join(map(str, fs.traversal)))
        )
    else:
        lines.append("ferrers: no")
    for w_json in payload["witnesses"]:
        lines.append(
            "witness against %s: %s on vertices {%s}"
            % (w_json["family"], w_json["pattern"], ", ".join(map(str, w_json["vertices"])))
        )
    _emit(payload, args.json, lines)
    return 0


def _recognize(
    g: Graph, method: str, search_limit: int
) -> tuple[str, ConstructionOrder, FerrersStructure | None] | None:
    """First family that recognizes g, cheapest test first: (family, its
    construction order, the Ferrers structure when the family is Ferrers),
    or None.  Past its cap the U-search is skipped, unless ``method`` is
    "formula", which also raises when no family applies."""
    co = threshold_order(g)
    if co is not None:
        return FAMILY_THRESHOLD, co, None
    fs = ferrers_structure(g)
    if fs is not None:
        return FAMILY_FERRERS, fs.construction_order(), fs
    found = None
    try:
        found = special_2_threshold_order(g, max_vertices=search_limit)
    except CapabilityExceededError:
        if method == "formula":
            raise
    if found is not None:
        return FAMILY_SPECIAL_2_THRESHOLD, found[1], None
    if method == "formula":
        raise ValueError(
            "no family formula applies: graph is not threshold, ferrers, "
            "or special 2-threshold"
        )
    return None


def _count_graph(
    g: Graph, method: str, search_limit: int, jobs: int
) -> tuple[int, str, ConstructionOrder | None, dict | None]:
    """Returns (count, method used, construction order if any, classification)."""
    if method == "matrix-tree":
        return matrix_tree_count(g), "matrix-tree", None, None
    if method == "perturbation":
        ones = [1] * g.n
        return perturbation_count(g, ones, ones), "perturbation", None, None
    if method == "oracle":
        return (
            oracle_count(g, max_edges=_oracle_limit(), jobs=jobs),
            "oracle",
            None,
            None,
        )

    recognized = _recognize(g, method, search_limit)
    if recognized is None:
        return matrix_tree_count(g), "matrix-tree", None, None
    family, co, fs = recognized
    if family == FAMILY_THRESHOLD:
        count = threshold_count(g, co)
    elif family == FAMILY_FERRERS:
        count = ferrers_count(fs)
    else:
        count = special_2_threshold_count(g, co)
    return count, f"formula:{family}", co, {"family": family}


def cmd_count(args: argparse.Namespace) -> int:
    family_flags = [args.complete, args.ferrers, args.multipartite]
    chosen = [f for f in family_flags if f is not None]
    if args.file is None and not chosen:
        raise ValueError(
            "count needs a FILE or one of --complete/--ferrers/--multipartite"
        )
    if args.file is not None and chosen:
        raise ValueError("give either a FILE or a family flag, not both")
    if len(chosen) > 1:
        raise ValueError("give at most one family flag")

    co = None
    classification = None
    # a family flag's graph is built only if --verify asks for it
    if args.complete is not None:
        n = args.complete
        if n < 1:
            raise ValueError("--complete needs n >= 1")
        count, method = complete_count(n), "formula:complete"
        graph = lambda: complete(n)
        source = {"family": "complete", "n": n}
    elif args.ferrers is not None:
        shape = PartitionShape(_parse_parts(args.ferrers, "--ferrers"))
        count, method = ferrers_count(shape), "formula:ferrers"
        graph = lambda: ferrers_graph(shape)
        source = {"family": "ferrers", "shape": list(shape.parts)}
    elif args.multipartite is not None:
        sizes = _parse_parts(args.multipartite, "--multipartite")
        if len(sizes) == 2:
            count, method = bipartite_count(*sizes), "formula:bipartite"
        else:
            count, method = multipartite_count(sizes), "formula:multipartite"
        graph = lambda: complete_multipartite(sizes)
        source = {"family": "multipartite", "sizes": sizes}
    else:
        g = _load_graph(args.file)
        graph = lambda: g
        source = {
            "path": args.file,
            "vertices": g.n,
            "edges": [list(e) for e in g.edges()],
        }
        count, method, co, classification = _count_graph(
            g, args.method, args.u_search_limit, args.jobs
        )

    verified = None
    if args.verify:
        check = oracle_count(graph(), max_edges=_oracle_limit(), jobs=args.jobs)
        if check != count:
            raise ExactnessError(
                f"oracle disagrees: method {method} gave {count}, oracle {check}"
            )
        verified = check

    payload = {
        "input": source,
        "classification": classification,
        "method": method,
        "count": count,
        "polynomial": None,
        "witnesses": None,
        "construction_order": _order_json(co),
        "verified_against_oracle": verified is not None,
    }
    lines = [f"{count} (method: {method})"]
    if verified is not None:
        lines.append(f"oracle check: {verified} ok")
    _emit(payload, args.json, lines)
    return 0


def _weighted_graph(
    g: Graph, method: str, search_limit: int
) -> tuple[MultiPoly, str, ConstructionOrder | None, dict | None]:
    """Returns (enumerator, method used, construction order if any,
    classification)."""
    if method == "perturbation":
        ones = [1] * g.n
        return weighted_perturbation_count(g, ones, ones), "perturbation", None, None
    if method == "oracle":
        return weighted_oracle(g, max_edges=_oracle_limit()), "oracle", None, None
    recognized = _recognize(g, method, search_limit)
    if recognized is None:
        return weighted_matrix_tree_count(g), "matrix-tree", None, None
    family, co, fs = recognized
    if family == FAMILY_THRESHOLD:
        poly = weighted_count_threshold(g, co)
    elif family == FAMILY_FERRERS:
        poly = weighted_count_ferrers(fs)
    else:
        poly = weighted_count_special_2threshold(g, co)
    return poly, f"formula:{family}", co, {"family": family}


def cmd_weighted(args: argparse.Namespace) -> int:
    g = _load_graph(args.file)
    poly, used, co, classification = _weighted_graph(
        g, args.method, args.u_search_limit
    )

    payload = {
        "input": {
            "path": args.file,
            "vertices": g.n,
            "edges": [list(e) for e in g.edges()],
        },
        "classification": classification,
        "method": used,
        "count": None,
        "polynomial": str(poly),
        "witnesses": None,
        "construction_order": _order_json(co),
    }
    _emit(payload, args.json, [f"{poly}", f"(method: {used})"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spantree",
        description="Exact spanning-tree counting and graph-family classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="report family memberships")
    p_classify.add_argument("file", help="edge-list file")
    p_classify.add_argument("--json", action="store_true")
    p_classify.add_argument(
        "--u-search-limit",
        type=_bounded_int(0),
        default=DEFAULT_SEARCH_LIMIT,
        help="vertex cap for the exponential U-search",
    )
    p_classify.set_defaults(func=cmd_classify)

    p_count = sub.add_parser("count", help="count spanning trees")
    p_count.add_argument("file", nargs="?", help="edge-list file")
    p_count.add_argument(
        "--method",
        choices=["auto", "formula", "matrix-tree", "perturbation", "oracle"],
        default="auto",
    )
    p_count.add_argument("--verify", action="store_true", help="cross-check with the oracle")
    p_count.add_argument("--json", action="store_true")
    p_count.add_argument(
        "--jobs",
        type=_bounded_int(1),
        default=1,
        help="oracle worker processes (at most the CPU count)",
    )
    p_count.add_argument("--complete", type=int, metavar="N")
    p_count.add_argument("--ferrers", metavar="P1,P2,...")
    p_count.add_argument("--multipartite", metavar="N1,N2,...")
    p_count.add_argument(
        "--u-search-limit", type=_bounded_int(0), default=DEFAULT_SEARCH_LIMIT
    )
    p_count.set_defaults(func=cmd_count)

    p_weighted = sub.add_parser("weighted", help="weighted enumerator polynomial")
    p_weighted.add_argument("file", help="edge-list file")
    p_weighted.add_argument(
        "--method",
        choices=["auto", "formula", "perturbation", "oracle"],
        default="auto",
    )
    p_weighted.add_argument("--json", action="store_true")
    p_weighted.add_argument(
        "--u-search-limit", type=_bounded_int(0), default=DEFAULT_SEARCH_LIMIT
    )
    p_weighted.set_defaults(func=cmd_weighted)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EdgeListParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapabilityExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ExactnessError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except SpantreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
