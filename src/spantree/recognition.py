"""Recognition of threshold, U-threshold, special 2-threshold, and Ferrers
graphs, with certificates for both outcomes.

A *construction order* for a subset U is an ordering v_1..v_n in which every
vertex enters with lower neighborhood empty ("isolated") or equal to the
U-part of its predecessors ("u_dominating").  A graph admits one for a given
U exactly when every induced subgraph has a vertex whose neighborhood there
is empty or the U-part of the rest; that equivalence is what makes the
greedy peeling below complete: whenever the graph qualifies, *every* choice
of removable vertex leads to success, so no backtracking is needed.  The
peel never re-scans: it buckets the vertices once by their neighbor counts,
and each deletion then shifts whole buckets, O(1) work per step.

Special 2-threshold graphs are hereditary, so a non-member shrinks to a
minimal non-member, which is one of the family's forbidden patterns: that
is how its witness is found, with no subset enumeration.

Everything here reads the graph's neighbor sets, restricted to a vertex
subset where one is searched; bitmasks appear only as the keys of the
forbidden patterns, which have at most six vertices.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from itertools import combinations, islice, permutations
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Literal, Mapping, NamedTuple, Sequence

from .errors import OrderInconsistencyError
from .graph import Graph, PartitionShape, induced_subgraph

Role = Literal["initial", "isolated", "u_dominating"]

ROLE_INITIAL: Role = "initial"
ROLE_ISOLATED: Role = "isolated"
ROLE_U_DOMINATING: Role = "u_dominating"

FAMILY_THRESHOLD = "threshold"
FAMILY_SPECIAL_2_THRESHOLD = "special-2-threshold"
FAMILY_FERRERS = "ferrers"

Family = Literal["threshold", "special-2-threshold", "ferrers"]


class ConstructionOrder(NamedTuple):
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

    def last_u_dominating_vertex(self) -> int:
        """The u_dominating vertex that comes last in the order; ValueError
        when there is none."""
        for v, r in zip(reversed(self.order), reversed(self.roles)):
            if r == ROLE_U_DOMINATING:
                return v
        raise ValueError("construction order has no u_dominating vertex")

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
    with a lower neighborhood that is neither empty nor the earlier U-part.

    Works on neighbor sets in O(n + m) and builds none: no vertex may have
    an earlier neighbor outside U, and a vertex without one has earlier
    neighbors none or exactly the earlier U-vertices when it misses all of
    those or has all of them."""
    earlier_u: set[int] = set()
    earlier_rest: set[int] = set()
    roles: list[Role] = []
    for i, v in enumerate(order):
        nb = g.neighbors(v)
        if i == 0:
            roles.append(ROLE_INITIAL)
        elif not nb.isdisjoint(earlier_rest):
            return None
        elif nb.isdisjoint(earlier_u):
            roles.append(ROLE_ISOLATED)
        elif earlier_u <= nb:
            roles.append(ROLE_U_DOMINATING)
        else:
            return None
        (earlier_u if v in u_set else earlier_rest).add(v)
    return roles


def _peel(
    adj: Mapping[int, frozenset[int]], u: frozenset[int]
) -> tuple[list[int] | None, frozenset[int]]:
    """Greedy elimination on the vertex set W of ``adj``, which maps each
    vertex of W, in ascending order, to its neighbors in W.

    Repeatedly deletes a vertex whose remaining neighborhood is empty or
    exactly the remaining U-part.  Returns (order, frozenset()) on success
    with the deletions reversed into a construction order, or (None, stuck)
    where stuck is the vertex set on which no deletion was possible.

    Among the candidates the highest-labeled one is deleted, which makes
    low labels appear earliest in the resulting order.

    Nothing is re-scanned: one peel takes one pass over the neighbor sets,
    then O(1) work per deletion.  A deletable vertex touches nothing left
    or exactly the other U-vertices left, so deleting it shifts whole
    classes of counts at once: a U-dominating U-vertex takes one from every
    U-vertex's count inside U, a U-dominating vertex outside U one from
    every U-vertex's count outside U, and the counts of vertices outside U
    never change (one with a neighbor outside U can never go).  So the
    vertices are bucketed once by their counts, each bucket ascending, and
    each step reads four buckets: U-vertices with no neighbors left,
    U-vertices with none outside U and k - 1 inside, and the others with 0
    or k neighbors, k the U-vertices left.  The highest candidate ends one
    of them.  The counts outside U are taken only when W has a vertex
    outside U, so the threshold peel (U = W = V) buckets by degree: O(n).
    """
    outside = adj.keys() - u
    k = stride = len(adj) - len(outside)
    # U-vertices keyed by their counts as out * k + in (in < k); the others,
    # unless they have a neighbor outside U, by their count inside
    u_buckets: dict[int, list[int]] = {}
    other_buckets: dict[int, list[int]] = {}
    for v, nb in adj.items():
        if v not in u:
            if nb.isdisjoint(outside):
                other_buckets.setdefault(len(nb), []).append(v)
        elif outside and (o := len(nb & outside)):
            u_buckets.setdefault(o * (k - 1) + len(nb), []).append(v)
        else:
            u_buckets.setdefault(len(nb), []).append(v)
    base = 0  # the key of a U-vertex with no neighbors left
    empty: list[int] = []
    removed: list[int] = []
    for _ in range(len(adj)):
        buckets = (
            u_buckets.get(base, empty),
            u_buckets.get(base + k - 1, empty),
            other_buckets.get(0, empty),
            other_buckets.get(k, empty),
        )
        v = 0
        for i, bucket in enumerate(buckets):
            if bucket and bucket[-1] > v:
                v, chosen = bucket[-1], i
        if not v:
            return None, frozenset(adj).difference(removed)
        buckets[chosen].pop()
        removed.append(v)
        if chosen < 2:  # a U-vertex, U-dominating if chosen is 1
            k -= 1
            base += chosen
        elif chosen == 3:
            base += stride
    removed.reverse()
    return removed, frozenset()


def _adjacency(g: Graph) -> dict[int, frozenset[int]]:
    """The whole graph as ``_peel`` reads it: each vertex, ascending, to
    its neighbor set."""
    return dict(zip(g.vertices, g._neighbors[1:]))


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


def u_threshold_order(g: Graph, u: Iterable[int]) -> ConstructionOrder | None:
    """Construction order of g for the subset u, or None if there is none.

    The peel's choice among removable vertices is deterministic; any choice
    succeeds on U-threshold inputs.
    """
    u_set = frozenset(u)
    for v in u_set:
        g.check_vertex(v)
    order, _ = _peel(_adjacency(g), u_set)
    if order is None:
        return None
    return _checked_order(g, order, u_set)


def threshold_order(g: Graph) -> ConstructionOrder | None:
    """Construction order with U equal to the whole vertex set, or None."""
    return u_threshold_order(g, g.vertices)


def _u_candidates(adj: Mapping[int, frozenset[int]]) -> Iterator[frozenset[int]]:
    """The U candidates of the subgraph ``adj`` (as ``_peel`` reads it),
    without repeats: its vertex set W, then, only if the caller asks for
    more, N(x) and N(x) + x, each plus the isolated vertices, for every
    vertex x, by smallest complement in W and then lexicographically first
    complement.  Only those whose complement is independent are yielded, as
    a valid U has one.  The complement is taken from the walk that tests
    it: the vertices are walked from the highest label, those in U skipped
    and the others kept, up to the first with a neighbor outside U, which
    drops the candidate; the kept ones, reversed, are the complement,
    ascending."""
    w = frozenset(adj)
    yield w  # its complement is empty, the smallest key
    keys: dict[frozenset[int], tuple[int, list[int]]] = {w: (0, [])}
    top_down = list(reversed(adj))
    isolated = frozenset(v for v in top_down if not adj[v])
    for x, nb in adj.items():
        nb = nb | isolated if isolated else nb
        for u in {nb, nb | {x}}.difference(keys):
            rest = []
            for v in top_down:
                if v not in u:
                    if not adj[v] <= u:
                        break
                    rest.append(v)
            else:
                keys[u] = len(rest), rest[::-1]
    yield from sorted(keys, key=keys.__getitem__)[1:]


def _u_search(
    adj: Mapping[int, frozenset[int]], candidates: Iterable[frozenset[int]]
) -> tuple[list[int], frozenset[int]] | None:
    """The first of ``candidates``, U candidates of ``adj`` as
    ``_u_candidates`` yields them, that peels, as (order, U), or None when
    none does: the one search for U in the package."""
    for u in candidates:
        if (order := _peel(adj, u)[0]) is not None:
            return order, u
    return None


def special_2_threshold_order(g: Graph) -> ConstructionOrder | None:
    """A construction order of g for some subset U (its ``u_set``), or None
    when no U has one.

    Let w be the last u_dominating vertex of a construction order.  Every
    later vertex enters isolated and gains no later neighbor, so it is
    isolated in g, and N(w) is exactly the U-part before w.  So a valid U is
    N(w) or N(w) + w, plus isolated vertices, or V when g is edgeless.  An
    isolated vertex can always join U (move it to the end of the order), so
    the U with the smallest complement, lexicographically first among those,
    contains all of them.  That U is used, found among at most 2n + 1
    candidates with one O(n + m) peel each.  U = V, the one candidate with
    an empty complement, goes first, before the others are built.
    """
    adj = _adjacency(g)
    found = _u_search(adj, _u_candidates(adj))
    return None if found is None else _checked_order(g, *found)


# ---------------------------------------------------------------------------
# Forbidden induced subgraphs


def _pattern(n: int, edges: list[tuple[int, int]]) -> tuple[int, ...]:
    """Entry i is the bitmask of vertex i + 1's neighbors (bit j - 1 for j)."""
    masks = [0] * n
    for u, v in edges:
        masks[u - 1] |= 1 << (v - 1)
        masks[v - 1] |= 1 << (u - 1)
    return tuple(masks)


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


class ForbiddenWitness(NamedTuple):
    """A vertex subset of the input inducing one of the fixed obstruction
    patterns."""

    pattern_name: str
    vertices: tuple[int, ...]


@cache
def _witness_keys(family: str) -> Mapping[tuple[int, ...], str]:
    """Every relabeling of the family's patterns as the neighbor masks of an
    induced subgraph, mapped to the pattern name.  A vertex subset induces a
    pattern exactly when its masks are a key; patterns of one size are
    pairwise non-isomorphic, so no key names two.  Built on first use, not
    at import, and read-only since it is shared."""
    keys: dict[tuple[int, ...], str] = {}
    for name in FAMILY_PATTERNS[family]:
        masks = PATTERNS[name]
        k = len(masks)
        for perm in permutations(range(k)):
            relabeled = [0] * k
            for i, m in enumerate(masks):
                relabeled[perm[i]] = sum(1 << perm[j] for j in range(k) if m >> j & 1)
            keys[tuple(relabeled)] = name
    return MappingProxyType(keys)


def _bipartition(g: Graph) -> tuple[set[int], set[int]]:
    """The color classes of a connected bipartite graph as vertex sets,
    vertex 1's first, from one breadth-first walk of vertex 1's component
    on neighbor sets, O(n + m): the graph is connected when the walk
    reaches every vertex, and bipartite when no layer has an edge inside
    it.  Raises ValueError otherwise, naming connectivity first."""
    nbrs = g._neighbors
    sides: tuple[set[int], set[int]] = (set(), set())
    odd, layer, frontier = False, 0, set(g.vertices[:1])
    while frontier:
        sides[layer & 1].update(frontier)
        reach = set().union(*map(nbrs.__getitem__, frontier))
        odd = odd or not reach.isdisjoint(frontier)
        frontier = reach.difference(*sides)
        layer += 1
    if len(sides[0]) + len(sides[1]) != g.n:
        raise ValueError("ferrers obstruction check needs a connected graph")
    if odd:
        raise ValueError("ferrers obstruction check needs a bipartite graph")
    return sides


def _first_alternating_four(
    g: Graph, partners: Callable[[int], Sequence[int]]
) -> ForbiddenWitness | None:
    """First 4-subset, lexicographically, with edges a-b, y-z and non-edges
    b-y, z-a: a 2K2, P4 or C4.  Its corners a and y are opposite; b is any
    neighbor of a outside N[y], z any of y outside N[a].  So the first such
    subset has the smallest a with a partner y above it, and for each y the
    smallest b and z, each found by walking a sorted neighbor list from
    just above a up to the first fit.  ``partners(a)`` is an ascending
    sequence holding the y to try, those above a; a's color class in a
    bipartite graph yields exactly the 2K2s."""
    nbrs = g._neighbors
    ascending = list(map(sorted, nbrs))
    for a in g.vertices:
        na, mine, quads = nbrs[a], ascending[a], []
        mine = mine[bisect_right(mine, a):]
        ys = partners(a)
        for y in islice(ys, bisect_right(ys, a), None):
            ny = nbrs[y]
            for b in mine:
                if b not in ny and b != y:
                    break
            else:
                continue
            theirs = ascending[y]
            for z in islice(theirs, bisect_right(theirs, a), None):
                if z not in na:
                    quads.append(tuple(sorted((a, y, b, z))))
                    break
        if quads:
            quad = min(quads)
            edges = sum(g.has_edge(u, v) for u, v in combinations(quad, 2))
            return ForbiddenWitness(("2K2", "P4", "C4")[edges - 2], quad)
    return None


def forbidden_witness(g: Graph, family: Family) -> ForbiddenWitness | None:
    """An induced obstruction for the family, or None when the graph is
    clean.  Threshold and ferrers patterns have four vertices: the witness
    is the first such subset, by size and then lexicographically, found by
    walking neighbor lists.  The ferrers family is only defined on
    connected bipartite inputs and rejects others.  A special 2-threshold
    witness is ``_special_2_threshold``'s.
    """
    if family not in FAMILY_PATTERNS:
        raise ValueError(f"unknown family {family!r}")
    if family == FAMILY_THRESHOLD:
        return _first_alternating_four(g, lambda a: g.vertices)
    if family == FAMILY_FERRERS:
        sides = _bipartition(g)
        ordered = [sorted(side) for side in sides]
        return _first_alternating_four(g, lambda a: ordered[a in sides[1]])
    found = _special_2_threshold(g)
    return found if isinstance(found, ForbiddenWitness) else None


def _special_2_threshold(g: Graph) -> ConstructionOrder | ForbiddenWitness:
    """The special 2-threshold answer with its certificate: the
    construction order ``special_2_threshold_order`` returns for a member,
    a forbidden pattern for a non-member.

    A non-member is shrunk to a minimal non-member: chunks of vertices,
    highest labels first, are deleted whenever what is left is still a
    non-member, the chunk halving after each pass.  The class is
    hereditary, so the last pass, one vertex at a time, leaves a minimal
    one, which is one of the family's patterns.  Each trial is the 2K2
    screen and then the U-search on the neighbor sets within what is left,
    a few trials per halving; the whole graph is searched only when no
    chunk can go, and the order found there is the answer.  A result that
    induces no pattern raises OrderInconsistencyError.
    """
    nbrs = g._neighbors

    @cache
    def search(w: frozenset[int]) -> tuple[list[int], frozenset[int]] | None:
        adj = {v: nbrs[v] & w for v in sorted(w)}
        return None if _two_k2_screen(adj) else _u_search(adj, _u_candidates(adj))

    w = full = g.vertex_set()
    size = max(g.n, 2)
    while size > 1:
        size = (size + 1) // 2
        vs = sorted(w)
        for top in range(len(vs), 0, -size):
            if not search(trial := w.difference(vs[max(top - size, 0):top])):
                w = trial
        if w == full and (found := search(full)):  # nothing went: g may be a member
            return _checked_order(g, *found)
    subset = tuple(sorted(w))
    induced = induced_subgraph(g, subset)[0]._neighbors[1:]
    family = FAMILY_SPECIAL_2_THRESHOLD
    name = _witness_keys(family).get(tuple(sum(1 << (j - 1) for j in nb) for nb in induced))
    if name is None:
        raise OrderInconsistencyError(f"shrinking left {subset}, which induces no {family} pattern")
    return ForbiddenWitness(name, subset)


# ---------------------------------------------------------------------------
# Ferrers recognition


class FerrersStructure(NamedTuple):
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
        roles = [ROLE_ISOLATED if v in cols else ROLE_U_DOMINATING for v in self.traversal]
        return ConstructionOrder(self.traversal, cols, (ROLE_INITIAL, *roles[1:]))


def ferrers_structure(g: Graph) -> FerrersStructure | None:
    """Recognize a Ferrers graph, a connected bipartite graph in which each
    row, taken by degree, meets a prefix of the columns, taken by degree,
    and return that staircase; None when g is no Ferrers graph.

    Each side is sorted by decreasing degree, then label.  The orientation
    is canonical: the larger side becomes the rows; on a tie the
    lexicographically larger shape wins, and if both orientations give the
    same shape the side containing vertex 1 becomes the rows.  The shape of
    the conjugate orientation is the conjugate partition, and a staircase in
    one orientation is one in the other, so only the chosen one is checked,
    on neighbor sets and degrees alone: O(n log n + m).
    """
    if g.n < 2:
        return None
    try:
        sides = _bipartition(g)
    except ValueError:
        return None
    degree = list(map(len, g._neighbors))
    a, b = (sorted(side, key=lambda v: (-degree[v], v)) for side in sides)

    def shape_of(rows: list[int]) -> tuple[int, ...]:
        return tuple(degree[v] for v in rows)

    rows, cols = max((a, b), (b, a), key=lambda rc: (len(rc[0]), shape_of(rc[0]), 1 in rc[0]))
    shape = PartitionShape(shape_of(rows))
    if any(g._neighbors[r] != frozenset(cols[:part]) for r, part in zip(rows, shape.parts)):
        return None

    # one backward walk over the rows, shortest first: the columns up to a
    # row's last one, then the row
    traversal: list[int] = []
    walked = 0
    for r, part in zip(reversed(rows), reversed(shape.parts)):
        traversal += [*cols[walked:part], r]
        walked = part
    return FerrersStructure(tuple(rows), tuple(cols), shape, tuple(traversal))


# ---------------------------------------------------------------------------
# Routing


def _two_k2_screen(adj: Mapping[int, frozenset[int]]) -> tuple[int, int, int, int] | None:
    """An induced 2K2 found from one edge of the graph ``adj`` (as ``_peel``
    reads it), or None.

    Take a vertex u of highest degree (lowest label on ties) and v its
    neighbor of highest degree (lowest label on ties).  An edge x-y with
    both ends outside N[u] and N[v] has no edge to u or v, so u, v, x, y
    induce 2K2, which every family excludes: the result is (u, v, x, y)
    for the first such edge, or None when there is none, always for a
    member.  O(n + m), on neighbor sets and degrees alone."""
    degrees = list(map(len, adj.values()))
    top = max(degrees, default=0)
    if not top:
        return None
    u = list(adj)[degrees.index(top)]
    v = max(sorted(adj[u]), key=lambda x: len(adj[x]))
    covered = adj[u] | adj[v]
    for x in sorted(adj.keys() - covered):
        if not adj[x] <= covered:
            return u, v, x, min(adj[x] - covered)
    return None


def route(g: Graph) -> tuple[Family, ConstructionOrder] | None:
    """First family that recognizes g, cheapest test first, with a
    construction order for the degree-product formula; None when g is in
    none of them.

    The one-edge 2K2 screen goes first and turns a graph it catches away
    in O(n + m).  Threshold graphs get U = V by a peel on degrees, Ferrers
    graphs their staircase traversal with U the columns; anything else the
    U-search, at most 2n + 1 peels of O(n + m).  U = V is the U-search's
    first candidate, which the threshold peel has already tried, so the
    search goes on from the second.  Every step reads neighbor sets and is
    polynomial, so no input is refused.
    """
    adj = _adjacency(g)
    if _two_k2_screen(adj) is not None:
        return None
    co = threshold_order(g)
    if co is not None:
        return FAMILY_THRESHOLD, co
    fs = ferrers_structure(g)
    if fs is not None:
        return FAMILY_FERRERS, fs.construction_order()
    found = _u_search(adj, islice(_u_candidates(adj), 1, None))
    return None if found is None else (FAMILY_SPECIAL_2_THRESHOLD, _checked_order(g, *found))
