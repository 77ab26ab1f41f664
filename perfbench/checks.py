"""Independent checks of the CLI's JSON answers against a case's references.

Each check returns None when the answer is right, or a one-line reason.
Certificates are verified on their own terms: a construction order by
re-deriving every vertex's role, a forbidden witness by testing (with
networkx) that its vertices induce the pattern it names, a Ferrers shape by
comparing it with the degree sequences of the two colour classes.
"""

from __future__ import annotations

import re

import networkx as nx

from suites import Case, adjacency, bipartition


def _graph(edges) -> nx.Graph:
    g = nx.Graph()
    g.add_edges_from(edges)
    return g


#: The forbidden induced subgraphs the paper lists for each family.
PATTERNS = {
    "2K2": _graph([(0, 1), (2, 3)]),
    "P4": nx.path_graph(4),
    "C4": nx.cycle_graph(4),
    "C5": nx.cycle_graph(5),
    "House": nx.house_graph(),
    "Gem": _graph([(0, 1), (1, 2), (2, 3)] + [(4, i) for i in range(4)]),
    "Net": _graph([(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)]),
    "Diamond+2P": _graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (1, 5)]),
    "W4+P": _graph(list(nx.wheel_graph(5).edges()) + [(0, 5)]),
    "Octahedron": nx.octahedral_graph(),
}

FAMILY_PATTERNS = {
    "threshold": {"2K2", "P4", "C4"},
    "special-2-threshold": {"2K2", "C5", "House", "Gem", "Net", "Diamond+2P", "W4+P", "Octahedron"},
    "ferrers": {"2K2"},
}


def count_matches(case: Case, value: int) -> bool:
    if case.tau is not None:
        return value == case.tau
    return all(value % p == r for p, r in case.tau_mod.items())


def check_count(case: Case, payload: dict) -> str | None:
    value = payload.get("count")
    if not isinstance(value, int):
        return f"count is {value!r}"
    if not count_matches(case, value):
        return f"count {value} disagrees with the reference"
    return None


_TERM_SPLIT = re.compile(r" ([+-]) ")


def parse_polynomial(text: str) -> dict[tuple[tuple[int, int], ...], int]:
    """The CLI's polynomial text as {((var, exp), ...): coeff}."""
    if text == "0":
        return {}
    pieces = _TERM_SPLIT.split(text)
    signed = [(1, pieces[0])] + [
        (1 if sign == "+" else -1, body) for sign, body in zip(pieces[1::2], pieces[2::2])
    ]
    terms: dict[tuple[tuple[int, int], ...], int] = {}
    for sign, body in signed:
        if body.startswith("-"):
            sign, body = -sign, body[1:]
        coeff = 1
        mono = []
        for factor in body.split("*"):
            if factor.startswith("x"):
                var, _, exp = factor[1:].partition("^")
                mono.append((int(var), int(exp or 1)))
            else:
                coeff *= int(factor)
        key = tuple(sorted(mono))
        terms[key] = terms.get(key, 0) + sign * coeff
    return terms


def check_weighted(case: Case, payload: dict, oracle_text: str | None) -> str | None:
    text = payload.get("polynomial")
    if not isinstance(text, str):
        return f"polynomial is {text!r}"
    terms = parse_polynomial(text)
    if not count_matches(case, sum(terms.values())):
        return "all-ones substitution disagrees with the integer reference"
    p, point, value = case.wpoint
    at = 0
    for mono, coeff in terms.items():
        term = coeff
        for var, exp in mono:
            term = term * pow(point[var - 1], exp, p) % p
        at += term
    if at % p != value:
        return "value at a random point disagrees with the weighted Kirchhoff determinant"
    if oracle_text is not None and parse_polynomial(oracle_text) != terms:
        return "polynomial disagrees with weighted_oracle"
    return None


def _valid_order(adj, n: int, order, u_set) -> bool:
    if sorted(order) != list(range(1, n + 1)):
        return False
    u = set(u_set)
    seen: set[int] = set()
    for v in order:
        lower = adj[v] & seen
        if lower and lower != seen & u:
            return False
        seen.add(v)
    return True


def _check_witness(adj, family: str, w: dict) -> str | None:
    if w["pattern"] not in FAMILY_PATTERNS[family]:
        return f"{w['pattern']} is not an obstruction for {family}"
    vs = w["vertices"]
    induced = nx.Graph()
    induced.add_nodes_from(vs)
    induced.add_edges_from((a, b) for a in vs for b in adj[a] if b in vs)
    if not nx.is_isomorphic(induced, PATTERNS[w["pattern"]]):
        return f"vertices {vs} do not induce {w['pattern']}"
    return None


def check_classify(case: Case, payload: dict) -> str | None:
    n = case.n
    adj = adjacency(n, case.edges)
    cls = payload["classification"]
    got = {
        "threshold": cls["threshold"],
        "ferrers": cls["ferrers"],
        "special": cls["special_2_threshold"],
    }
    for family, expected in case.member.items():
        if expected is not None and got[family] != expected:
            return f"{family} membership {got[family]}, expected {expected}"
    witnesses = {w["family"]: w for w in payload["witnesses"]}
    co = payload["construction_order"]
    if got["threshold"]:
        if co is None or co["u_set"] != list(range(1, n + 1)) or not _valid_order(adj, n, co["order"], co["u_set"]):
            return "threshold construction order is invalid"
    if got["special"] and not got["threshold"]:
        if co is None or co["u_set"] != cls["u_set"] or not _valid_order(adj, n, co["order"], co["u_set"]):
            return "special 2-threshold construction order is invalid"
    sides = bipartition(n, adj)
    if got["ferrers"]:
        shape = cls["ferrers_shape"]
        degs = [sorted((len(adj[v]) for v in side), reverse=True) for side in sides]
        conj = [sum(1 for p in shape if p >= j) for j in range(1, shape[0] + 1)]
        if not any(shape == d and conj == e for d, e in (degs, degs[::-1])):
            return f"Ferrers shape {shape} does not match the colour classes"
    needed = [f for f, key in (("threshold", "threshold"), ("special-2-threshold", "special")) if not got[key]]
    if not got["ferrers"] and sides is not None:
        needed.append("ferrers")
    for family in needed:
        if family not in witnesses:
            return f"no forbidden witness against {family}"
    for family, w in witnesses.items():
        reason = _check_witness(adj, family, w)
        if reason:
            return reason
    return None

