"""Command-line front end: classify graphs, count spanning trees with the
fastest applicable method, and emit weighted enumerators.

Exit codes: 0 success, 2 malformed input or inapplicable request, 3 the
oracle's edge guard refused to run, 4 an internal check failed (an inexact
division, an inconsistent order or witness, or a non-triangular
perturbation).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import cache
from typing import Callable, Iterator, Sequence

from .counting import (
    DEFAULT_ORACLE_LIMIT,
    _oracle_guard,
    bipartite_count,
    complete_count,
    ferrers_count,
    matrix_tree_count,
    multipartite_count,
    oracle_count,
    perturbation_count,
    reduce_and_route,
    special_2_threshold_count,
)
from .errors import (
    CapabilityExceededError,
    EdgeListParseError,
    ExactnessError,
    SpantreeError,
)
from .graph import (
    MAX_PARSED_VERTICES,
    Graph,
    PartitionShape,
    complete,
    complete_multipartite,
    ferrers_graph,
    parse_edge_list,
    parse_int,
)
from .linalg import INTEGERS, Ring, polynomial_ring
from .recognition import (
    FAMILY_FERRERS,
    FAMILY_SPECIAL_2_THRESHOLD,
    FAMILY_THRESHOLD,
    ConstructionOrder,
    ferrers_structure,
    forbidden_witness,
    special_2_threshold_order,
    threshold_order,
)
from .weighted import (
    weighted_count_special_2threshold,
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
        return parse_int(raw)
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
    """The integers of a comma-separated list; an empty field is an error,
    not a field to skip."""
    try:
        return [parse_int(x) for x in raw.split(",")]
    except ValueError:
        raise EdgeListParseError(f"{flag} expects comma-separated integers, got {raw!r}")


def _order_json(co: ConstructionOrder | None) -> dict | None:
    if co is None:
        return None
    return {
        "order": list(co.order),
        "u_set": sorted(co.u_set),
        "roles": list(co.roles),
    }


@contextmanager
def _unlimited_int_str() -> Iterator[None]:
    """Lift CPython's 4300-digit int-to-str limit while counts and
    polynomials are formatted, and restore it after: parsing input keeps
    the guard against quadratic-time conversions."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _emit(payload: dict, as_json: bool, lines: Callable[[], list[str]]) -> None:
    """Print the payload as JSON, or else build and print ``lines()``."""
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print("\n".join(lines()))


def _int_argument(raw: str) -> int:
    """argparse type for an integer option: ``parse_int``, worded as
    argparse words a bad ``type=int`` value."""
    try:
        return parse_int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}")


def _file_input(path: str, g: Graph) -> dict:
    return {"path": path, "vertices": g.n, "edges": [list(e) for e in g.edges()]}


def cmd_classify(args: argparse.Namespace) -> int:
    """Family memberships plus certificates: a construction order or
    staircase for each family the graph is in, a forbidden induced subgraph
    for each it is not.  Every step is polynomial, so no graph is refused.
    On a threshold graph the U-search tries U = V first, so the special
    order is the threshold order."""
    g = _load_graph(args.file)
    threshold, fs, found = threshold_order(g), ferrers_structure(g), special_2_threshold_order(g)
    witnesses = []
    for family, member in (
        (FAMILY_THRESHOLD, threshold),
        (FAMILY_SPECIAL_2_THRESHOLD, found),
        (FAMILY_FERRERS, fs),
    ):
        try:
            w = None if member else forbidden_witness(g, family)
        except ValueError:
            w = None  # ferrers on a graph that is not connected bipartite
        if w is not None:
            witnesses.append(
                {"family": family, "pattern": w.pattern_name, "vertices": list(w.vertices)}
            )
    u_set, co = found or (None, None)
    payload = {
        "input": _file_input(args.file, g),
        "classification": {
            "threshold": threshold is not None,
            "special_2_threshold": found is not None,
            "ferrers": fs is not None,
            "u_set": sorted(u_set) if found else None,
            "ferrers_shape": list(fs.shape.parts) if fs else None,
            "ferrers_traversal": list(fs.traversal) if fs else None,
        },
        "method": None,
        "count": None,
        "polynomial": None,
        "witnesses": witnesses,
        "construction_order": _order_json(co),
    }

    def lines() -> list[str]:
        special = [
            "special-2-threshold: yes (U = {%s})" % ", ".join(map(str, sorted(u_set))),
            "  order: " + " ".join(map(str, co.order)),
            "  roles: " + " ".join(f"{v}:{r}" for v, r in zip(co.order, co.roles)),
        ] if found else ["special-2-threshold: no"]
        return [
            f"graph: {g.n} vertices, {g.edge_count} edges",
            f"threshold: {'yes' if threshold else 'no'}",
            *special,
            "ferrers: yes (shape %s, traversal %s)"
            % (",".join(map(str, fs.shape.parts)), " ".join(map(str, fs.traversal)))
            if fs else "ferrers: no",
            *(
                "witness against %s: %s on vertices {%s}"
                % (w["family"], w["pattern"], ", ".join(map(str, w["vertices"])))
                for w in witnesses
            ),
        ]

    _emit(payload, args.json, lines)
    return 0


def _answer(
    g: Graph,
    method: str,
    ring: Ring,
    routes: tuple[Callable, Callable, Callable],
    oracle: Callable[[Graph], object],
) -> tuple[object, str, ConstructionOrder | None, dict | None]:
    """Answer g in ``ring`` by ``method``, through the ring's public
    (formula, cofactor, perturbation count) ``routes`` and its ``oracle``.
    "formula" refuses a graph outside the families instead of splitting
    it.  Returns (value, method used, construction order if any,
    classification)."""
    formula, cofactor, perturbation = routes
    if method == "oracle":
        return oracle(g), "oracle", None, None
    if method == "matrix-tree":
        return cofactor(g), "matrix-tree", None, None
    if method == "perturbation":
        ones = [1] * g.n
        return perturbation(g, ones, ones), "perturbation", None, None
    value, used, routed = reduce_and_route(
        g, formula, None if method == "formula" else cofactor, ring=ring
    )
    if routed is None:
        return value, used, None, None
    return value, used, routed[1], {"family": routed[0]}


def _check_family_size(flag: str, n: int) -> None:
    """Refuse a family flag whose graph has more vertices than an edge-list
    header may declare."""
    if n > MAX_PARSED_VERTICES:
        raise ValueError(
            f"{flag} describes {n} vertices, more than the limit of {MAX_PARSED_VERTICES}"
        )


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
    # a family flag's graph is built only if --verify asks for it and its
    # size passes the oracle's guard
    if args.complete is not None:
        n = args.complete
        if n < 1:
            raise ValueError("--complete needs n >= 1")
        _check_family_size("--complete", n)
        count, method = complete_count(n), "formula:complete"
        graph, size = (lambda: complete(n)), (n, n * (n - 1) // 2)
        source = {"family": "complete", "n": n}
    elif args.ferrers is not None:
        shape = PartitionShape(_parse_parts(args.ferrers, "--ferrers"))
        _check_family_size("--ferrers", shape.rows + shape.parts[0])
        count, method = ferrers_count(shape), "formula:ferrers"
        graph, size = (lambda: ferrers_graph(shape)), (shape.rows + shape.cols, shape.total)
        source = {"family": "ferrers", "shape": list(shape.parts)}
    elif args.multipartite is not None:
        sizes = _parse_parts(args.multipartite, "--multipartite")
        n = sum(sizes)
        _check_family_size("--multipartite", n)
        if len(sizes) == 2:
            count, method = bipartite_count(*sizes), "formula:bipartite"
        else:
            count, method = multipartite_count(sizes), "formula:multipartite"
        graph = lambda: complete_multipartite(sizes)
        size = n, (n * n - sum(s * s for s in sizes)) // 2
        source = {"family": "multipartite", "sizes": sizes}
    else:
        g = _load_graph(args.file)
        graph, size = (lambda: g), (g.n, g.edge_count)
        source = _file_input(args.file, g)
        count, method, co, classification = _answer(
            g,
            args.method,
            INTEGERS,
            (special_2_threshold_count, matrix_tree_count, perturbation_count),
            lambda g: oracle_count(g, max_edges=_oracle_limit()),
        )

    verified = None
    if args.verify:
        limit = _oracle_limit()
        _oracle_guard(*size, limit)
        check = oracle_count(graph(), max_edges=limit)
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

    def lines() -> list[str]:
        check = [] if verified is None else [f"oracle check: {verified} ok"]
        return [f"{count} (method: {method})", *check]

    with _unlimited_int_str():
        _emit(payload, args.json, lines)
    return 0


def cmd_weighted(args: argparse.Namespace) -> int:
    g = _load_graph(args.file)
    poly, used, co, classification = _answer(
        g,
        args.method,
        polynomial_ring(g.n),
        (weighted_count_special_2threshold, weighted_matrix_tree_count, weighted_perturbation_count),
        lambda g: weighted_oracle(g, max_edges=_oracle_limit()),
    )
    with _unlimited_int_str():
        text = str(poly)

    payload = {
        "input": _file_input(args.file, g),
        "classification": classification,
        "method": used,
        "count": None,
        "polynomial": text,
        "witnesses": None,
        "construction_order": _order_json(co),
    }
    _emit(payload, args.json, lambda: [text, f"(method: {used})"])
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use; later calls, and every
    ``main`` call, share it."""
    parser = argparse.ArgumentParser(
        prog="spantree",
        description="Exact spanning-tree counting and graph-family classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="report family memberships")
    p_classify.add_argument("file", help="edge-list file")
    p_classify.add_argument("--json", action="store_true")
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
    p_count.add_argument("--complete", type=_int_argument, metavar="N")
    p_count.add_argument("--ferrers", metavar="P1,P2,...")
    p_count.add_argument("--multipartite", metavar="N1,N2,...")
    p_count.set_defaults(func=cmd_count)

    p_weighted = sub.add_parser("weighted", help="weighted enumerator polynomial")
    p_weighted.add_argument("file", help="edge-list file")
    p_weighted.add_argument(
        "--method",
        choices=["auto", "formula", "perturbation", "oracle"],
        default="auto",
    )
    p_weighted.add_argument("--json", action="store_true")
    p_weighted.set_defaults(func=cmd_weighted)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EdgeListParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapabilityExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SpantreeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
