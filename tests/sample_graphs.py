"""Shared graphs, generators, and helpers for the test suite."""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, prod
from pathlib import Path
from typing import Callable, Iterable

from hypothesis import strategies as st

from spantree import (
    ConstructionOrder,
    Graph,
    MultiPoly,
    ferrers_graph,
    ferrers_structure,
    special_2_threshold_order,
    threshold_order,
    u_threshold_order,
)
from spantree.recognition import FAMILY_PATTERNS, PATTERNS, derive_roles

FIXTURES = Path(__file__).parent / "fixtures"

# The running examples used throughout the suite, with their known
# spanning-tree counts.
HOUSE_TAIL = Graph(6, [(1, 2), (1, 4), (2, 3), (2, 5), (2, 6), (4, 5), (5, 6)])
HOUSE_TAIL_TAU = 11

K4 = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
K4_TAU = 16

K23 = Graph(5, [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])
K23_TAU = 12

THRESHOLD5 = Graph(5, [(1, 2), (1, 4), (2, 4), (2, 5), (3, 4), (4, 5)])
THRESHOLD5_TAU = 8

SPECIAL5 = Graph(5, [(1, 2), (1, 4), (1, 5), (2, 5), (3, 4), (4, 5)])
SPECIAL5_U = frozenset({1, 5, 3})
SPECIAL5_TAU = 8

# SPECIAL5 with pendants 6..26 on vertex 1: special 2-threshold but neither
# threshold nor Ferrers, past 24 vertices, with a seven-term weighted
# enumerator
SPECIAL26 = Graph(26, list(SPECIAL5.edges()) + [(1, v) for v in range(6, 27)])
SPECIAL26_TAU = 8

FERRERS3221 = Graph(7, [(1, 4), (1, 5), (1, 6), (1, 7), (2, 4), (2, 5), (2, 6), (3, 4)])
FERRERS3221_TAU = 12

# vertices 1..8 stand for a..h; U-threshold for U = {1,...,6}
UTHRESHOLD8 = Graph(
    8,
    [
        (1, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 8),
        (4, 5), (4, 7), (4, 8), (5, 7), (5, 8), (6, 8),
    ],
)
UTHRESHOLD8_U = frozenset({1, 2, 3, 4, 5, 6})
UTHRESHOLD8_TAU = 160  # frozen from the subset-enumeration oracle

TWO_K2 = Graph(4, [(1, 2), (3, 4)])
C5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])


def assert_simple(g: Graph) -> None:
    """Check the structural invariants every Graph must satisfy."""
    for v in g.vertices:
        assert v not in g.neighbors(v)
        for w in g.neighbors(v):
            assert v in g.neighbors(w)


def mask_of(vertices: Iterable[int]) -> int:
    """Pack a collection of 1-indexed vertices into a bitmask (bit v-1 set)."""
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def vertices_of(mask: int) -> list[int]:
    """Unpack a bitmask into an ascending list of 1-indexed vertices."""
    return [v for v in range(1, mask.bit_length() + 1) if mask >> (v - 1) & 1]


def neighbor_masks(g: Graph) -> tuple[int, ...]:
    """Entry v is the bitmask of v's neighbors (entry 0 is unused): the
    references below keep their own adjacency format, which the package
    does not use."""
    return tuple(mask_of(g.neighbors(v)) if v else 0 for v in range(g.n + 1))


def scan_peel(
    g: Graph,
    w_mask: int,
    u_mask: int,
    tie_break: Callable[[list[int]], int] | None = None,
) -> tuple[list[int] | None, int]:
    """Reference for ``recognition._peel``, by definition: every step
    re-scans the remaining vertices for those whose remaining neighborhood
    is empty or exactly the remaining U-part, O(n^2) mask operations per
    peel.  Returns (order, 0) on success with the deletions reversed into a
    construction order, or (None, stuck) where stuck is the vertex mask on
    which no deletion was possible.  The default tie-break deletes the
    highest-labeled candidate.
    """
    w = w_mask
    masks = neighbor_masks(g)
    removed: list[int] = []
    while w:
        candidates = [
            v
            for v in vertices_of(w)
            if (nb := masks[v] & w) == 0
            or nb == (w & ~(1 << (v - 1))) & u_mask
        ]
        if not candidates:
            return None, w
        v = candidates[-1] if tie_break is None else tie_break(candidates)
        removed.append(v)
        w &= ~(1 << (v - 1))
    removed.reverse()
    return removed, 0


def scan_order(
    g: Graph, u: Iterable[int], tie_break: Callable[[list[int]], int]
) -> ConstructionOrder | None:
    """The construction order ``scan_peel`` finds on all of g for the
    subset u, choosing with ``tie_break``, or None when the peel is stuck."""
    u_set = frozenset(u)
    order, _ = scan_peel(g, mask_of(g.vertices), mask_of(u_set), tie_break)
    if order is None:
        return None
    return ConstructionOrder(tuple(order), u_set, tuple(derive_roles(g, order, u_set)))


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    return Graph(n, edges)


def random_u_threshold_instance(
    rng: random.Random, n: int
) -> tuple[Graph, frozenset[int]]:
    """Graph built from a random construction order, hence U-threshold for
    the returned U by construction."""
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    u = frozenset(v for v in verts if rng.random() < 0.6)
    edges = []
    placed: list[int] = []
    for i, v in enumerate(verts):
        if i and rng.random() < 0.6:
            edges.extend((min(v, w), max(v, w)) for w in placed if w in u)
        placed.append(v)
    return Graph(n, edges), u


def random_threshold_graph(rng: random.Random, n: int) -> Graph:
    """Threshold graph from a random isolated/dominating insertion sequence."""
    edges = []
    for i in range(2, n + 1):
        if rng.random() < 0.5:
            edges.extend((j, i) for j in range(1, i))
    return Graph(n, edges)


def threshold_graph_from_bits(n: int, bits: int) -> Graph:
    """Threshold graph where bit i-2 decides whether vertex i enters
    dominating (1) or isolated (0)."""
    edges = []
    for i in range(2, n + 1):
        if bits >> (i - 2) & 1:
            edges.extend((j, i) for j in range(1, i))
    return Graph(n, edges)


@lru_cache(maxsize=None)
def atlas_graphs(max_n: int = 7, connected_only: bool = False) -> tuple[Graph, ...]:
    """Every graph on 1..max_n vertices up to isomorphism (max_n <= 7)."""
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for nxg in graph_atlas_g():
        n = nxg.number_of_nodes()
        if not (1 <= n <= max_n):
            continue
        if connected_only and not nx.is_connected(nxg):
            continue
        out.append(Graph(n, [(u + 1, v + 1) for u, v in nxg.edges()]))
    return tuple(out)


def partitions_up_to(total: int) -> list[tuple[int, ...]]:
    """All integer partitions with sum between 1 and total, largest part
    first."""
    out: list[tuple[int, ...]] = []

    def grow(prefix: list[int], remaining: int, cap: int) -> None:
        if prefix:
            out.append(tuple(prefix))
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            grow(prefix, remaining - part, part)
            prefix.pop()

    grow([], total, total)
    return out


def merris_count(g: Graph, co: ConstructionOrder) -> int:
    """Merris' threshold-graph count, written out on its own: dominating
    vertices contribute deg+1, isolated ones deg, the initial vertex
    nothing, and the product is divided by n."""
    numerator = prod(g.degree(v) + 1 for v in co.u_dominating_vertices())
    numerator *= prod(g.degree(v) for v, r in zip(co.order, co.roles) if r == "isolated")
    if numerator % g.n:
        raise ValueError(f"{numerator} is not divisible by n = {g.n}")
    return numerator // g.n


def weighted_cayley_prufer(n: int) -> MultiPoly:
    """Enumerator of the complete graph written out on its own, a reference
    for the weighted routes: (prod x_k) * (sum x_k)**(n-2)."""
    if n == 1:
        return MultiPoly.const(1, 1)
    xs = [MultiPoly.variable(n, k) for k in range(1, n + 1)]
    s = sum(xs[1:], start=xs[0])
    return prod([s] * (n - 2), start=prod(xs[1:], start=xs[0]))


def relabeled(g: Graph, perm: list[int]) -> Graph:
    """g with vertex v renamed perm[v - 1]."""
    return Graph(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges()])


def oracle_fits(g: Graph) -> bool:
    # the oracle's default edge limit, and few enough (n-1)-subsets to be quick
    return g.edge_count <= 24 and comb(g.edge_count, g.n - 1) <= 20_000


@st.composite
def gnp_graphs(draw, max_n=9):
    """Hypothesis strategy: G(n, p) on 1..max_n vertices, each pair an edge
    with probability p, for a p from sparse to complete."""
    n = draw(st.integers(1, max_n))
    p = draw(st.sampled_from((0.2, 0.35, 0.5, 0.65, 0.8, 1.0)))
    rng = draw(st.randoms(use_true_random=False))
    return Graph(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < p])


@st.composite
def small_graphs(draw, max_n=7):
    """Hypothesis strategy: a graph on 1..max_n vertices, each pair an edge
    or not."""
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, chosen) if keep])


def _piece(draw, kind: str, k: int) -> Graph:
    """A connected graph on 1..k of the given kind (k >= 2); a random piece
    may be disconnected."""
    if kind == "cycle" and k >= 3:
        return Graph(k, [(i, i % k + 1) for i in range(1, k + 1)])
    if kind == "clique":
        return Graph(k, list(combinations(range(1, k + 1), 2)))
    if kind == "threshold":
        # the last vertex enters dominating, so the piece is connected
        bits = draw(st.integers(0, (1 << (k - 2)) - 1)) | 1 << (k - 2)
        return threshold_graph_from_bits(k, bits)
    if kind == "ferrers":
        cols = draw(st.integers(1, k - 1))
        size = k - cols - 1
        rest = draw(st.lists(st.integers(1, cols), min_size=size, max_size=size))
        return ferrers_graph([cols] + sorted(rest, reverse=True))
    if kind == "random":
        pairs = list(combinations(range(1, k + 1), 2))
        chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return Graph(k, [e for e, keep in zip(pairs, chosen) if keep])
    return Graph(2, [(1, 2)])  # an edge: a bridge, or a pendant tree grown one leaf at a time


@st.composite
def glued_graphs(draw, max_n=9):
    """Hypothesis strategy: a graph glued from pieces (edges, cycles,
    cliques, threshold, Ferrers and random graphs) one at a time, each
    sharing one vertex with what is already there, so the pieces' blocks
    meet at cut vertices and the edges become bridges and pendant trees.
    Now and then a piece starts a new component, and a random piece may
    itself be disconnected.  The labels are shuffled at the end."""
    n, edges = 1, []
    while n < max_n and draw(st.integers(0, 3)):
        kind = draw(st.sampled_from(("edge", "cycle", "clique", "threshold", "ferrers", "random")))
        k = 2 if kind == "edge" else draw(st.integers(2, min(5, max_n - n + 1)))
        piece = _piece(draw, kind, k)
        pivot = draw(st.integers(1, k))
        apart = draw(st.integers(0, 9)) == 0 and n + k <= max_n
        glue = n + k if apart else draw(st.integers(1, n))
        names = {}
        fresh = iter(range(n + 1, n + k + 1))
        for v in piece.vertices:
            names[v] = glue if v == pivot else next(fresh)
        n += k if apart else k - 1
        edges += [(names[u], names[v]) for u, v in piece.edges()]
    perm = draw(st.permutations(range(1, n + 1)))
    return relabeled(Graph(n, edges), list(perm))


def independent_complement_search(g: Graph) -> ConstructionOrder | None:
    """Reference U-search: try every U whose complement is independent (any
    valid U has one), smallest complement first and lexicographically first
    within a size, and return the first that has a construction order."""
    layer: list[tuple[tuple[int, ...], int]] = [((), 1)]  # (complement, next vertex)
    while layer:
        for complement, _ in layer:
            co = u_threshold_order(g, g.vertex_set() - set(complement))
            if co is not None:
                return co
        layer = [
            (complement + (v,), v + 1)
            for complement, start in layer
            for v in range(start, g.n + 1)
            if not any(g.has_edge(v, c) for c in complement)
        ]
    return None


@lru_cache(maxsize=None)
def labelled_special_members(max_n: int) -> tuple[tuple[Graph, ConstructionOrder], ...]:
    """Every labelled special 2-threshold graph on 1..max_n vertices, with
    the U-search's construction order."""
    out = []
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [e for k, e in enumerate(pairs) if bits >> k & 1])
            co = special_2_threshold_order(g)
            if co is not None:
                out.append((g, co))
    return tuple(out)


def construction_orders(
    g: Graph, co: ConstructionOrder, rng: random.Random
) -> list[ConstructionOrder]:
    """co plus the other construction orders the package builds for g: the
    threshold order, the Ferrers traversal, and a peel with random
    tie-breaks for co's U (and for U = V on threshold graphs)."""
    orders = [co]
    subsets = [co.u_set]
    threshold = threshold_order(g)
    if threshold is not None:
        orders.append(threshold)
        subsets.append(threshold.u_set)
    fs = ferrers_structure(g)
    if fs is not None:
        orders.append(fs.construction_order())
    for u in subsets:
        orders.append(scan_order(g, u, rng.choice))
    return orders


@lru_cache(maxsize=None)
def _labelled_patterns(family: str) -> dict[tuple[int, frozenset], str]:
    """(size, edge set) of every labelling of the family's patterns on
    0..k-1, mapped to the pattern name."""
    out = {}
    for name in FAMILY_PATTERNS[family]:
        masks = PATTERNS[name]
        k = len(masks)
        edges = [(i, j) for i, j in combinations(range(k), 2) if masks[i] >> j & 1]
        for p in permutations(range(k)):
            out[k, frozenset(frozenset((p[i], p[j])) for i, j in edges)] = name
    return out


def induced_pattern(g: Graph, subset: tuple[int, ...], family: str) -> str | None:
    """The family pattern that g induces on subset, or None."""
    edges = frozenset(
        frozenset((i, j))
        for i, j in combinations(range(len(subset)), 2)
        if g.has_edge(subset[i], subset[j])
    )
    return _labelled_patterns(family).get((len(subset), edges))


def first_subset_witness(g: Graph, family: str) -> tuple[str, tuple[int, ...]] | None:
    """Reference witness by definition, written without the package's
    recognizers: the first vertex subset, by size and then
    lexicographically, that induces one of the family's patterns; None
    exactly when g is in the family."""
    for size in sorted({len(PATTERNS[name]) for name in FAMILY_PATTERNS[family]}):
        for subset in combinations(g.vertices, size):
            name = induced_pattern(g, subset, family)
            if name is not None:
                return name, subset
    return None
