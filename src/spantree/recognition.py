"""Recognition of threshold, U-threshold, special 2-threshold, and Ferrers
graphs, with certificates for both outcomes.

A *construction order* for a subset U is an ordering v_1..v_n in which every
vertex enters with lower neighborhood empty ("isolated") or equal to the
U-part of its predecessors ("u_dominating").  A graph admits one for a given
U exactly when every induced subgraph has a vertex whose neighborhood there
is empty or the U-part of the rest; that equivalence is what makes the
greedy peeling below complete: whenever the graph qualifies, *every* choice
of removable vertex leads to success, so no backtracking is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from itertools import combinations
from typing import Callable, Iterable, Iterator, Literal

from .errors import CapabilityExceededError, OrderInconsistencyError
from .graph import Graph, PartitionShape, is_connected, mask_of, vertices_of

Role = Literal["initial", "isolated", "u_dominating"]

ROLE_INITIAL: Role = "initial"
ROLE_ISOLATED: Role = "isolated"
ROLE_U_DOMINATING: Role = "u_dominating"

FAMILY_THRESHOLD = "threshold"
FAMILY_SPECIAL_2_THRESHOLD = "special-2-threshold"
FAMILY_FERRERS = "ferrers"

Family = Literal["threshold", "special-2-threshold", "ferrers"]

#: Default cap on the exhaustive U-search; above this the search refuses to
#: run rather than risk an unbounded enumeration.
DEFAULT_SEARCH_LIMIT = 24


@dataclass(frozen=True)
class ConstructionOrder:
    """A vertex ordering together with the subset U and per-vertex roles.

    ``roles[i]`` describes ``order[i]``: the first vertex is "initial", later
    vertices are "isolated" (no earlier neighbors) or "u_dominating" (earlier
    neighbors exactly the earlier U-vertices).
    """

    order: tuple[int, ...]
    u_set: frozenset[int]
    roles: tuple[Role, ...]

    def u_dominating_vertices(self) -> frozenset[int]:
        return frozenset(
            v for v, r in zip(self.order, self.roles) if r == ROLE_U_DOMINATING
        )

    def isolated_vertices(self) -> frozenset[int]:
        """Vertices tagged isolated, the initial vertex excluded."""
        return frozenset(
            v for v, r in zip(self.order, self.roles) if r == ROLE_ISOLATED
        )

    def is_valid_for(self, g: Graph) -> bool:
        try:
            self.check(g)
        except ValueError:
            return False
        return True

    def check(self, g: Graph) -> None:
        """Raise ValueError unless this is a valid construction order for g."""
        if sorted(self.order) != list(g.vertices):
            raise ValueError("order is not a permutation of the vertices")
        if not self.u_set <= g.vertex_set():
            raise ValueError("u_set contains vertices outside the graph")
        if len(self.roles) != len(self.order):
            raise ValueError("roles and order lengths differ")
        derived = derive_roles(g, self.order, self.u_set)
        if derived is None:
            raise ValueError("ordering violates the construction condition")
        if list(self.roles) != derived:
            raise ValueError(f"roles {self.roles} disagree with derived {tuple(derived)}")


def derive_roles(
    g: Graph, order: Iterable[int], u_set: frozenset[int]
) -> list[Role] | None:
    """Role of each vertex in the given order, or None if some vertex enters
    with a lower neighborhood that is neither empty nor the earlier U-part."""
    u_mask = mask_of(u_set)
    seen = 0
    roles: list[Role] = []
    for i, v in enumerate(order):
        lower = g.neighbor_mask(v) & seen
        if i == 0:
            roles.append(ROLE_INITIAL)
        elif lower == 0:
            roles.append(ROLE_ISOLATED)
        elif lower == u_mask & seen:
            roles.append(ROLE_U_DOMINATING)
        else:
            return None
        seen |= 1 << (v - 1)
    return roles


def _peel(
    g: Graph,
    w_mask: int,
    u_mask: int,
    tie_break: Callable[[list[int]], int] | None = None,
) -> tuple[list[int] | None, int]:
    """Greedy elimination on the vertices of w_mask.

    Repeatedly deletes a vertex whose remaining neighborhood is empty or
    exactly the remaining U-part.  Returns (order, 0) on success with the
    deletions reversed into a construction order, or (None, stuck) where
    stuck is the vertex mask on which no deletion was possible.

    The default tie-break deletes the highest-labeled candidate, which makes
    low labels appear earliest in the resulting order.
    """
    w = w_mask
    removed: list[int] = []
    while w:
        candidates = [
            v
            for v in vertices_of(w)
            if (nb := g.neighbor_mask(v) & w) == 0
            or nb == (w & ~(1 << (v - 1))) & u_mask
        ]
        if not candidates:
            return None, w
        v = candidates[-1] if tie_break is None else tie_break(candidates)
        removed.append(v)
        w &= ~(1 << (v - 1))
    removed.reverse()
    return removed, 0


def _checked_order(
    g: Graph, order: list[int], u_set: frozenset[int]
) -> ConstructionOrder:
    """A successful peel as a construction order, its roles re-derived."""
    roles = derive_roles(g, order, u_set)
    if roles is None:
        raise OrderInconsistencyError(
            "peeling produced an order that violates the construction condition"
        )
    return ConstructionOrder(tuple(order), u_set, tuple(roles))


def u_threshold_order(
    g: Graph,
    u: Iterable[int],
    tie_break: Callable[[list[int]], int] | None = None,
) -> ConstructionOrder | None:
    """Construction order of g for the subset u, or None if there is none.

    ``tie_break`` overrides the deterministic default choice among removable
    vertices; any choice succeeds on U-threshold inputs.
    """
    u_set = frozenset(u)
    for v in u_set:
        g.check_vertex(v)
    u_mask = mask_of(u_set)
    order, _ = _peel(g, g.full_mask(), u_mask, tie_break)
    if order is None:
        return None
    return _checked_order(g, order, u_set)


def u_threshold_obstruction(g: Graph, u: Iterable[int]) -> frozenset[int] | None:
    """The stuck vertex set when peeling fails, or None when g is U-threshold.

    The returned set W certifies failure: no vertex of the induced subgraph
    on W is isolated or U-dominating there.
    """
    u_set = frozenset(u)
    for v in u_set:
        g.check_vertex(v)
    order, stuck = _peel(g, g.full_mask(), mask_of(u_set))
    return None if order is not None else frozenset(vertices_of(stuck))


def threshold_order(
    g: Graph, tie_break: Callable[[list[int]], int] | None = None
) -> ConstructionOrder | None:
    """Construction order with U equal to the whole vertex set, or None."""
    return u_threshold_order(g, g.vertices, tie_break)


def _independent_set_masks(g: Graph) -> Iterator[int]:
    """All independent-set masks, in increasing size and lexicographic vertex
    order within a size.  The empty set comes first."""
    yield 0
    layer: list[tuple[int, int]] = [(0, 1)]  # (mask, next vertex to try)
    while layer:
        nxt: list[tuple[int, int]] = []
        for mask, start in layer:
            for v in range(start, g.n + 1):
                if g.neighbor_mask(v) & mask == 0:
                    grown = mask | (1 << (v - 1))
                    yield grown
                    nxt.append((grown, v + 1))
        layer = nxt


def special_2_threshold_order(
    g: Graph, *, max_vertices: int = DEFAULT_SEARCH_LIMIT
) -> tuple[frozenset[int], ConstructionOrder] | None:
    """Search for a subset U such that g has a construction order for U.

    Candidates are exactly the subsets whose complement is independent (any
    valid U has an independent complement, so nothing is missed), tried in
    increasing complement size; the whole vertex set is tried first.  The
    search is exponential in the worst case, hence the vertex cap; raise the
    cap explicitly to go further.
    """
    if g.n > max_vertices:
        raise CapabilityExceededError(
            f"U-search on {g.n} vertices exceeds the cap of {max_vertices}; "
            f"pass max_vertices to override"
        )
    full = g.full_mask()
    for s_mask in _independent_set_masks(g):
        u_mask = full & ~s_mask
        order, _ = _peel(g, full, u_mask)
        if order is not None:
            u_set = frozenset(vertices_of(u_mask))
            return u_set, _checked_order(g, order, u_set)
    return None


# ---------------------------------------------------------------------------
# Forbidden induced subgraphs


def _pattern(n: int, edges: list[tuple[int, int]]) -> tuple[int, ...]:
    masks = [0] * (n + 1)
    for u, v in edges:
        masks[u] |= 1 << (v - 1)
        masks[v] |= 1 << (u - 1)
    return tuple(masks[1:])


#: Adjacency masks of the fixed obstruction patterns, on vertices 1..k.
PATTERNS: dict[str, tuple[int, ...]] = {
    "2K2": _pattern(4, [(1, 2), (3, 4)]),
    "P4": _pattern(4, [(1, 2), (2, 3), (3, 4)]),
    "C4": _pattern(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    "C5": _pattern(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
    # cycle 1..5 with the chord 2-5: a triangle roof on a square
    "House": _pattern(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)]),
    # path 1-2-3-4 plus a vertex adjacent to all of it
    "Gem": _pattern(5, [(1, 2), (2, 3), (3, 4), (1, 5), (2, 5), (3, 5), (4, 5)]),
    # triangle 1-2-3 with a pendant on each corner
    "Net": _pattern(6, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (3, 6)]),
    # K4 minus the edge 3-4, plus pendants on the two degree-3 vertices
    "Diamond+2P": _pattern(
        6, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (1, 5), (2, 6)]
    ),
    # 4-wheel (cycle 1..4 with hub 5) plus a pendant on the hub
    "W4+P": _pattern(
        6,
        [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (2, 5), (3, 5), (4, 5), (5, 6)],
    ),
    # complement of the perfect matching {1-4, 2-5, 3-6}
    "Octahedron": _pattern(
        6,
        [
            (1, 2), (1, 3), (1, 5), (1, 6),
            (2, 3), (2, 4), (2, 6),
            (3, 4), (3, 5),
            (4, 5), (4, 6),
            (5, 6),
        ],
    ),
}

FAMILY_PATTERNS: dict[str, tuple[str, ...]] = {
    FAMILY_THRESHOLD: ("2K2", "P4", "C4"),
    FAMILY_SPECIAL_2_THRESHOLD: (
        "2K2", "C5", "House", "Gem", "Net", "Diamond+2P", "W4+P", "Octahedron",
    ),
    FAMILY_FERRERS: ("2K2",),
}


@dataclass(frozen=True)
class ForbiddenWitness:
    """A vertex subset of the input inducing one of the fixed obstruction
    patterns."""

    pattern_name: str
    vertices: tuple[int, ...]


def _local_adjacency(g: Graph, subset: tuple[int, ...]) -> tuple[int, ...]:
    """Adjacency masks of the induced subgraph, relabeled to bits 0..k-1."""
    pos = {v: i for i, v in enumerate(subset)}
    masks = []
    for v in subset:
        m = 0
        for w in g.neighbors(v):
            if w in pos:
                m |= 1 << pos[w]
        masks.append(m)
    return tuple(masks)


def _isomorphic(adj_a: tuple[int, ...], adj_b: tuple[int, ...]) -> bool:
    """Brute-force isomorphism test for graphs on at most ~7 vertices given
    as adjacency-mask tuples."""
    k = len(adj_a)
    if k != len(adj_b):
        return False
    deg_a = [bin(m).count("1") for m in adj_a]
    deg_b = [bin(m).count("1") for m in adj_b]
    if sorted(deg_a) != sorted(deg_b):
        return False

    # map vertices of a onto vertices of b, matching degrees and adjacency
    assigned = [-1] * k  # assigned[i] = image of vertex i of a
    used = 0

    def extend(i: int) -> bool:
        nonlocal used
        if i == k:
            return True
        for j in range(k):
            if used >> j & 1 or deg_b[j] != deg_a[i]:
                continue
            ok = True
            for prev in range(i):
                if (adj_a[i] >> prev & 1) != (adj_b[j] >> assigned[prev] & 1):
                    ok = False
                    break
            if not ok:
                continue
            assigned[i] = j
            used |= 1 << j
            if extend(i + 1):
                return True
            used &= ~(1 << j)
        return False

    return extend(0)


def _is_bipartite(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """Two-color the graph; returns the color classes or None if an odd cycle
    exists.  Isolated vertices land in the first class of their component."""
    color: dict[int, int] = {}
    for root in g.vertices:
        if root in color:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return None
    side0 = frozenset(v for v, c in color.items() if c == 0)
    return side0, g.vertex_set() - side0


def forbidden_witness(g: Graph, family: Family) -> ForbiddenWitness | None:
    """First induced obstruction for the family, or None when the graph is
    clean.

    Subsets are scanned in increasing size and lexicographic order, patterns
    in a fixed order, so the witness is deterministic.  The ferrers
    family is only defined on connected bipartite inputs and rejects others.
    """
    if family not in FAMILY_PATTERNS:
        raise ValueError(f"unknown family {family!r}")
    if family == FAMILY_FERRERS:
        if not is_connected(g):
            raise ValueError("ferrers obstruction check needs a connected graph")
        if _is_bipartite(g) is None:
            raise ValueError("ferrers obstruction check needs a bipartite graph")
    names = FAMILY_PATTERNS[family]
    by_size: dict[int, list[str]] = {}
    for name in names:
        by_size.setdefault(len(PATTERNS[name]), []).append(name)
    for size in sorted(by_size):
        if size > g.n:
            break
        for subset in combinations(g.vertices, size):
            local = _local_adjacency(g, subset)
            for name in by_size[size]:
                if _isomorphic(PATTERNS[name], local):
                    return ForbiddenWitness(name, subset)
    return None


# ---------------------------------------------------------------------------
# Ferrers recognition


@dataclass(frozen=True)
class FerrersStructure:
    """Staircase presentation of a connected bipartite graph with nested
    neighborhoods on both sides.

    ``row_order``/``col_order`` list the sides by weakly decreasing degree;
    ``shape.parts[i-1]`` is the degree of row i.  ``traversal`` walks the
    staircase boundary: column 1, then the rows whose last column is 1 in
    decreasing row index, then column 2, and so on.
    """

    row_order: tuple[int, ...]
    col_order: tuple[int, ...]
    shape: PartitionShape
    traversal: tuple[int, ...]

    def construction_order(self) -> ConstructionOrder:
        """The traversal as a construction order with U the column side:
        rows are u_dominating, later columns isolated."""
        cols = frozenset(self.col_order)
        roles: list[Role] = []
        for i, v in enumerate(self.traversal):
            if i == 0:
                roles.append(ROLE_INITIAL)
            elif v in cols:
                roles.append(ROLE_ISOLATED)
            else:
                roles.append(ROLE_U_DOMINATING)
        return ConstructionOrder(self.traversal, cols, tuple(roles))


def _side_sorted(g: Graph, side: frozenset[int]) -> list[int] | None:
    """Side sorted by decreasing degree if its neighborhoods form a chain
    under inclusion, else None."""
    ordered = sorted(side, key=lambda v: (-g.degree(v), v))
    for prev, nxt in zip(ordered, ordered[1:]):
        if g.neighbor_mask(nxt) & ~g.neighbor_mask(prev):
            return None
    return ordered


def ferrers_structure(g: Graph) -> FerrersStructure | None:
    """Recognize a connected bipartite graph whose two sides both have nested
    neighborhoods, and return its staircase presentation.

    The orientation is canonical: the larger side becomes the rows; on a tie
    the lexicographically larger shape wins, and if both orientations give
    the same shape the side containing vertex 1 becomes the rows.  The shape
    of the conjugate orientation is the conjugate partition.
    """
    if g.n < 2 or not is_connected(g):
        return None
    sides = _is_bipartite(g)
    if sides is None:
        return None
    a, b = sides
    if not a or not b:
        return None
    sorted_a = _side_sorted(g, a)
    sorted_b = _side_sorted(g, b)
    if sorted_a is None or sorted_b is None:
        return None

    def shape_of(rows: list[int]) -> tuple[int, ...]:
        return tuple(g.degree(v) for v in rows)

    if len(a) != len(b):
        rows, cols = (sorted_a, sorted_b) if len(a) > len(b) else (sorted_b, sorted_a)
    elif shape_of(sorted_a) != shape_of(sorted_b):
        rows, cols = (
            (sorted_a, sorted_b)
            if shape_of(sorted_a) > shape_of(sorted_b)
            else (sorted_b, sorted_a)
        )
    else:
        rows, cols = (sorted_a, sorted_b) if 1 in a else (sorted_b, sorted_a)

    shape = PartitionShape(shape_of(rows))
    # connectivity plus nesting makes this a staircase; verify anyway
    for i, r in enumerate(rows, 1):
        expected = frozenset(cols[: shape.parts[i - 1]])
        if g.neighbors(r) != expected:
            return None

    traversal: list[int] = []
    for j, c in enumerate(cols, 1):
        traversal.append(c)
        for i in range(len(rows), 0, -1):
            if shape.parts[i - 1] == j:
                traversal.append(rows[i - 1])
    return FerrersStructure(tuple(rows), tuple(cols), shape, tuple(traversal))


# ---------------------------------------------------------------------------
# Canonical class order


@dataclass(frozen=True)
class CanonicalOrder:
    """The total order on degree classes induced by all construction orders,
    plus one concrete order (labels ascending within each class)."""

    classes: tuple[tuple[int, ...], ...]
    order: ConstructionOrder


def _threshold_class_ranks(g: Graph, u_list: list[int]) -> dict[int, int]:
    """Rank of each U-vertex's degree class in the induced threshold graph.

    Construction orders of a threshold graph are unique up to permuting
    vertices of equal degree, so the class order can be read off any one
    order.  Raises when equal-degree vertices fail to appear consecutively,
    which cannot happen for genuine threshold inputs.
    """
    if not u_list:
        return {}
    u_mask = mask_of(u_list)
    order, _ = _peel(g, u_mask, u_mask)
    if order is None:
        raise OrderInconsistencyError("induced subgraph on U is not threshold")
    deg_u = {v: bin(g.neighbor_mask(v) & u_mask).count("1") for v in u_list}
    ranks: dict[int, int] = {}
    rank = -1
    last_degree: int | None = None
    seen_degrees: set[int] = set()
    for v in order:
        d = deg_u[v]
        if d != last_degree:
            if d in seen_degrees:
                raise OrderInconsistencyError(
                    "equal-degree vertices split across the threshold order"
                )
            seen_degrees.add(d)
            rank += 1
            last_degree = d
        ranks[v] = rank
    return ranks


def canonical_order(g: Graph, u: Iterable[int]) -> CanonicalOrder:
    """Sort the degree classes of a U-threshold graph into their unique total
    order and emit a validated construction order refining it.

    Classes group vertices on the same side of U with equal degrees into U
    and into its complement.  Two classes compare by the side-dependent
    rules: within U by induced-threshold rank with ties broken by more
    neighbors outside U first; across sides by adjacency; outside U by fewer
    neighbors inside U first.  Any contradiction means the precondition was
    violated and raises OrderInconsistencyError.
    """
    u_set = frozenset(u)
    for v in u_set:
        g.check_vertex(v)
    if u_threshold_order(g, u_set) is None:
        raise ValueError("graph has no construction order for the given U")

    u_mask = mask_of(u_set)
    comp_mask = g.full_mask() & ~u_mask
    deg_u = {v: bin(g.neighbor_mask(v) & u_mask).count("1") for v in g.vertices}
    deg_c = {v: bin(g.neighbor_mask(v) & comp_mask).count("1") for v in g.vertices}
    ranks = _threshold_class_ranks(g, sorted(u_set))

    groups: dict[tuple[bool, int, int], list[int]] = {}
    for v in g.vertices:
        groups.setdefault((v in u_set, deg_u[v], deg_c[v]), []).append(v)
    classes = [tuple(sorted(vs)) for vs in groups.values()]

    def leq(x: int, y: int) -> bool:
        x_in, y_in = x in u_set, y in u_set
        if x_in and y_in:
            return ranks[x] <= ranks[y] and deg_c[x] >= deg_c[y]
        if x_in:
            return g.has_edge(x, y)
        if y_in:
            return not g.has_edge(x, y)
        return deg_u[x] <= deg_u[y]

    def compare(cx: tuple[int, ...], cy: tuple[int, ...]) -> int:
        x, y = cx[0], cy[0]
        forward, backward = leq(x, y), leq(y, x)
        if forward and not backward:
            return -1
        if backward and not forward:
            return 1
        raise OrderInconsistencyError(
            f"classes {cx} and {cy} do not compare consistently"
        )

    classes.sort(key=cmp_to_key(compare))
    order = tuple(v for cls in classes for v in cls)
    roles = derive_roles(g, order, u_set)
    if roles is None:
        raise OrderInconsistencyError("class-sorted order is not a construction order")
    return CanonicalOrder(
        tuple(classes), ConstructionOrder(order, u_set, tuple(roles))
    )


# ---------------------------------------------------------------------------
# Nesting report


@dataclass(frozen=True)
class ClauseReport:
    holds: bool
    counterexample: tuple[int, int] | None = None


@dataclass(frozen=True)
class NestingReport:
    """Verified structure of a U-threshold graph.

    Clause (a): the complement of U is independent.  Clause (b): the
    neighborhoods of complement vertices form a chain under inclusion.
    Clause (c): so do the neighborhoods of U-vertices restricted to the
    complement.  Clause (d): those restrictions shrink (weakly) along the
    induced threshold order on U.
    """

    complement_independent: ClauseReport
    complement_neighborhoods_nested: ClauseReport
    restricted_neighborhoods_nested: ClauseReport
    restrictions_shrink_along_order: ClauseReport

    def all_hold(self) -> bool:
        return (
            self.complement_independent.holds
            and self.complement_neighborhoods_nested.holds
            and self.restricted_neighborhoods_nested.holds
            and self.restrictions_shrink_along_order.holds
        )


def _nested_chain(masks: dict[int, int]) -> tuple[int, int] | None:
    """First pair of vertices whose mask neighborhoods are incomparable."""
    ordered = sorted(masks, key=lambda v: (bin(masks[v]).count("1"), v))
    for x, y in zip(ordered, ordered[1:]):
        if masks[x] & ~masks[y]:
            return (x, y)
    return None


def nesting_report(g: Graph, u: Iterable[int]) -> NestingReport:
    """Check the four structural consequences of being U-threshold.

    Requires a U-threshold input; a failing clause therefore exposes a
    precondition violation, and the report names an offending vertex pair.
    """
    u_set = frozenset(u)
    for v in u_set:
        g.check_vertex(v)
    if u_threshold_order(g, u_set) is None:
        raise ValueError("graph has no construction order for the given U")

    comp = sorted(g.vertex_set() - u_set)
    comp_mask = mask_of(comp)

    bad = next(
        (
            (x, y)
            for i, x in enumerate(comp)
            for y in comp[i + 1 :]
            if g.has_edge(x, y)
        ),
        None,
    )
    clause_a = ClauseReport(bad is None, bad)

    clause_b_pair = _nested_chain({v: g.neighbor_mask(v) for v in comp})
    clause_b = ClauseReport(clause_b_pair is None, clause_b_pair)

    restricted = {v: g.neighbor_mask(v) & comp_mask for v in sorted(u_set)}
    clause_c_pair = _nested_chain(restricted)
    clause_c = ClauseReport(clause_c_pair is None, clause_c_pair)

    ranks = _threshold_class_ranks(g, sorted(u_set))
    clause_d_pair = next(
        (
            (x, y)
            for x in sorted(u_set)
            for y in sorted(u_set)
            if ranks[x] < ranks[y] and restricted[y] & ~restricted[x]
        ),
        None,
    )
    clause_d = ClauseReport(clause_d_pair is None, clause_d_pair)

    return NestingReport(clause_a, clause_b, clause_c, clause_d)
