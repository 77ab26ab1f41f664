"""Command-line front end: classify graphs, count spanning trees with the
fastest applicable method, and emit weighted enumerators.

Exit codes: 0 success, 1 stdout was closed before the output was written,
2 malformed input or inapplicable request, 3 the oracle's edge guard
refused to run or memory ran out, 4 an internal check failed (an inexact
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
    _edges_json,
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
    ForbiddenWitness,
    _special_2_threshold,
    ferrers_structure,
    forbidden_witness,
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


def _load_graph(path: str, as_json: bool) -> tuple[Graph, dict | None]:
    """The graph in the edge-list file at ``path`` and, for JSON output, the
    payload's ``"input"`` echo of it, whose ``"edges"`` is the sorted edge
    array already encoded as JSON text (``_emit`` places it); text output
    prints no echo."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise EdgeListParseError(f"cannot read {path}: {exc}")
    g = parse_edge_list(text, source=path)
    return g, ({"path": path, "vertices": g.n, "edges": _edges_json(g, text)} if as_json else None)


def _parse_parts(raw: str, flag: str) -> list[int]:
    """The integers of a comma-separated list; an empty field is an error,
    not a field to skip."""
    try:
        return [parse_int(x) for x in raw.split(",")]
    except ValueError:
        raise EdgeListParseError(f"{flag} expects comma-separated integers, got {raw!r}")


#: Payload keys that a command leaves null unless it answers them.
_NULLABLE = ("classification", "method", "count", "polynomial", "witnesses", "construction_order")

#: The ``--method`` choices of ``count`` and ``weighted``.
_METHODS = ("auto", "formula", "matrix-tree", "perturbation", "oracle")

#: Holds the place of the pre-encoded edge array while a payload is encoded.
#: It encodes as ``"\u0000"``, and the escape ``\u0000`` stands only for a
#: NUL, which no other string of a payload holds: the package's names hold
#: none, and ``open`` refuses a path with one before anything is parsed.
_EDGES_SLOT = "\0"


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


def _emit(as_json: bool, lines: Callable[[dict], list[str]], **fields) -> None:
    """Print the payload of ``fields`` as JSON, or else ``lines(payload)``.
    Each key of ``_NULLABLE`` left out is null; a construction order is
    written as its order, U and roles, and a polynomial as its text.  The
    print is flushed, so a closed stdout raises inside ``main``.  The
    payload holds fresh dicts and lists and the package's tuples, none of
    which can contain itself, so the encoder skips its cycle check: the
    bytes are the same.  An ``"input"`` echo's ``"edges"`` is JSON text
    already (``_load_graph``): the payload is encoded with ``_EDGES_SLOT``
    in its place, and the slot's encoding, found once, is replaced by it."""
    payload = dict.fromkeys(_NULLABLE) | fields
    if co := payload["construction_order"]:
        payload["construction_order"] = dict(
            order=list(co.order), u_set=sorted(co.u_set), roles=list(co.roles)
        )
    with _unlimited_int_str():
        if payload["polynomial"] is not None:
            payload["polynomial"] = str(payload["polynomial"])
        if as_json:
            edges = payload["input"].get("edges")
            if edges is not None:
                payload["input"] = payload["input"] | {"edges": _EDGES_SLOT}
            text = json.dumps(payload, sort_keys=True, check_circular=False)
            if edges is not None:
                text = text.replace(json.dumps(_EDGES_SLOT), edges, 1)
        else:
            text = "\n".join(lines(payload))
        print(text, flush=True)


def _int_argument(raw: str) -> int:
    """argparse type for an integer option: ``parse_int``, worded as
    argparse words a bad ``type=int`` value."""
    try:
        return parse_int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}")


def cmd_classify(args: argparse.Namespace) -> int:
    """Family memberships plus certificates: a construction order or
    staircase for each family the graph is in, a forbidden induced subgraph
    for each it is not.  Every step is polynomial, so no graph is refused.
    One call answers the special 2-threshold family with its certificate:
    the witness shrink, which ends in the whole graph's U-search when
    nothing can go.  The U-search tries U = V first, so the graph is
    threshold exactly when the U it finds is V, and the special order is
    then the threshold order; threshold graphs are special 2-threshold, so
    a special witness also makes the graph no threshold graph."""
    g, source = _load_graph(args.file, args.json)
    fs = ferrers_structure(g)
    found = _special_2_threshold(g)
    special, co = (found, None) if isinstance(found, ForbiddenWitness) else (None, found)
    threshold = co is not None and len(co.u_set) == g.n
    try:
        ferrers = None if fs else forbidden_witness(g, FAMILY_FERRERS)
    except ValueError:  # a graph that is not connected bipartite
        ferrers = None
    witnesses = [
        {"family": family, "pattern": w.pattern_name, "vertices": list(w.vertices)}
        for family, w in (
            (FAMILY_THRESHOLD, None if threshold else forbidden_witness(g, FAMILY_THRESHOLD)),
            (FAMILY_SPECIAL_2_THRESHOLD, special),
            (FAMILY_FERRERS, ferrers),
        )
        if w is not None
    ]

    def lines(payload: dict) -> list[str]:
        cls, order = payload["classification"], payload["construction_order"]
        special = [
            "special-2-threshold: yes (U = {%s})" % ", ".join(map(str, cls["u_set"])),
            "  order: " + " ".join(map(str, order["order"])),
            "  roles: " + " ".join(f"{v}:{r}" for v, r in zip(order["order"], order["roles"])),
        ] if cls["special_2_threshold"] else ["special-2-threshold: no"]
        return [
            f"graph: {g.n} vertices, {g.edge_count} edges",
            f"threshold: {'yes' if cls['threshold'] else 'no'}",
            *special,
            "ferrers: yes (shape %s, traversal %s)" % (
                ",".join(map(str, cls["ferrers_shape"])),
                " ".join(map(str, cls["ferrers_traversal"])),
            ) if cls["ferrers"] else "ferrers: no",
            *(
                "witness against %s: %s on vertices {%s}"
                % (w["family"], w["pattern"], ", ".join(map(str, w["vertices"])))
                for w in payload["witnesses"]
            ),
        ]

    classification = {
        "threshold": threshold,
        "special_2_threshold": co is not None,
        "ferrers": fs is not None,
        "u_set": sorted(co.u_set) if co else None,
        "ferrers_shape": list(fs.shape.parts) if fs else None,
        "ferrers_traversal": list(fs.traversal) if fs else None,
    }
    _emit(args.json, lines, input=source, classification=classification,
          witnesses=witnesses, construction_order=co)
    return 0


def _answer(g: Graph, method: str, ring: Ring, routes: tuple[Callable, ...], field: str) -> dict:
    """Answer g in ``ring`` by ``method``, through the ring's public
    (formula, cofactor, perturbation count, oracle) ``routes``.  "formula"
    refuses a graph outside the families instead of splitting it.  Returns
    the payload fields: the value under ``field``, the method used, and for
    a formula answer its family and construction order."""
    formula, cofactor, perturbation, oracle = routes
    if method == "oracle":
        return {field: oracle(g), "method": method}
    if method == "matrix-tree":
        return {field: cofactor(g), "method": method}
    if method == "perturbation":
        ones = [1] * g.n
        return {field: perturbation(g, ones, ones), "method": method}
    value, used, routed = reduce_and_route(
        g, formula, None if method == "formula" else cofactor, ring=ring
    )
    family, co = routed or (None, None)
    return {field: value, "method": used, "construction_order": co,
            "classification": {"family": family} if routed else None}


def _check_family_size(flag: str, n: int) -> None:
    """Refuse a family flag whose graph has more vertices than an edge-list
    header may declare."""
    if n > MAX_PARSED_VERTICES:
        raise ValueError(
            f"{flag} describes {n} vertices, more than the limit of {MAX_PARSED_VERTICES}"
        )


def cmd_count(args: argparse.Namespace) -> int:
    flags = {"--complete": args.complete, "--ferrers": args.ferrers,
             "--multipartite": args.multipartite}
    chosen = [flag for flag, value in flags.items() if value is not None]
    if args.file is None and not chosen:
        raise ValueError("count needs a FILE or one of --complete/--ferrers/--multipartite")
    if args.file is not None and chosen:
        raise ValueError("give either a FILE or a family flag, not both")
    if len(chosen) > 1:
        raise ValueError("give at most one family flag")
    if chosen and args.method not in ("auto", "formula"):
        raise ValueError(
            f"{chosen[0]} is counted by its formula; --method {args.method} does not apply"
        )

    # the graph's size is taken only if --verify asks for it, and a family
    # flag's graph is built only once that size passes the oracle's guard
    if args.complete is not None:
        n = args.complete
        if n < 1:
            raise ValueError("--complete needs n >= 1")
        _check_family_size("--complete", n)
        fields = {"count": multipartite_count([1] * n), "method": "formula:complete"}
        graph, size = (lambda: complete(n)), (lambda: (n, n * (n - 1) // 2))
        source = {"family": "complete", "n": n}
    elif args.ferrers is not None:
        shape = PartitionShape(_parse_parts(args.ferrers, "--ferrers"))
        n = shape.rows + shape.cols
        _check_family_size("--ferrers", n)
        fields = {"count": ferrers_count(shape), "method": "formula:ferrers"}
        graph = lambda: ferrers_graph(shape)
        size = lambda: (n, shape.total)
        source = {"family": "ferrers", "shape": list(shape.parts)}
    elif args.multipartite is not None:
        sizes = _parse_parts(args.multipartite, "--multipartite")
        n = sum(sizes)
        _check_family_size("--multipartite", n)
        fields = {
            "count": multipartite_count(sizes),
            "method": "formula:bipartite" if len(sizes) == 2 else "formula:multipartite",
        }
        graph = lambda: complete_multipartite(sizes)
        size = lambda: (n, (n * n - sum(s * s for s in sizes)) // 2)
        source = {"family": "multipartite", "sizes": sizes}
    else:
        g, source = _load_graph(args.file, args.json)
        graph, size = (lambda: g), (lambda: (g.n, g.edge_count))
        routes = (special_2_threshold_count, matrix_tree_count, perturbation_count,
                  lambda g: oracle_count(g, max_edges=_oracle_limit()))
        fields = _answer(g, args.method, INTEGERS, routes, "count")

    verified = None
    if args.verify:
        limit = _oracle_limit()
        _oracle_guard(*size(), limit)
        verified = fields["count"]  # an oracle answer is its own check
        if args.method != "oracle":
            verified = oracle_count(graph(), max_edges=limit)
        if verified != fields["count"]:
            raise ExactnessError(
                f"oracle disagrees: method {fields['method']} gave {fields['count']}, "
                f"oracle {verified}"
            )

    def lines(payload: dict) -> list[str]:
        check = [] if verified is None else [f"oracle check: {verified} ok"]
        return [f"{payload['count']} (method: {payload['method']})", *check]

    _emit(args.json, lines, input=source, verified_against_oracle=verified is not None, **fields)
    return 0


def cmd_weighted(args: argparse.Namespace) -> int:
    g, source = _load_graph(args.file, args.json)
    routes = (weighted_count_special_2threshold, weighted_matrix_tree_count,
              weighted_perturbation_count, lambda g: weighted_oracle(g, max_edges=_oracle_limit()))
    fields = _answer(g, args.method, polynomial_ring(g.n), routes, "polynomial")
    _emit(args.json, lambda p: [p["polynomial"], f"(method: {p['method']})"],
          input=source, **fields)
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
    p_count.add_argument("--method", choices=_METHODS, default="auto")
    p_count.add_argument("--verify", action="store_true", help="cross-check with the oracle")
    p_count.add_argument("--json", action="store_true")
    p_count.add_argument("--complete", type=_int_argument, metavar="N")
    p_count.add_argument("--ferrers", metavar="P1,P2,...")
    p_count.add_argument("--multipartite", metavar="N1,N2,...")
    p_count.set_defaults(func=cmd_count)

    p_weighted = sub.add_parser("weighted", help="weighted enumerator polynomial")
    p_weighted.add_argument("file", help="edge-list file")
    p_weighted.add_argument("--method", choices=_METHODS, default="auto")
    p_weighted.add_argument("--json", action="store_true")
    p_weighted.set_defaults(func=cmd_weighted)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the final flush at
        # exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (EdgeListParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapabilityExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except SpantreeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
