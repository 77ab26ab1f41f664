"""Spanning-tree counting: a brute-force oracle, the Laplacian cofactor
route, rank-one perturbations, and the closed-form formulas: the one
degree-product formula over a construction order, and the complete
multipartite and shape-only Ferrers products (K_n is K_{1,...,1}).

The degree-product formula, the cofactor, the perturbation count and the
triangular perturbation are each written once over a ``linalg.Ring``; the
integer names here and the weighted names in ``weighted`` call them with
w = 1 and w = x_v, and both return matrices as lists of rows.  Every
prescribed division is exact with a remainder check; a nonzero remainder
means the input violated a precondition (or there is a bug) and raises
ExactnessError.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from math import prod
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import CapabilityExceededError, ExactnessError, TriangularityError
from .graph import Graph, PartitionShape, _part_sizes, blocks
from .linalg import (
    INTEGERS,
    Ring,
    _laplacian_rows,
    is_upper_triangular,
    rank_one_update,
)
from .recognition import (
    ROLE_U_DOMINATING,
    ConstructionOrder,
    Family,
    FerrersStructure,
    route,
)

T = TypeVar("T")

#: Default limit on the edge count of graphs fed to the subset-enumeration
#: oracle; C(m, n-1) grows too fast beyond this for a safety net.
DEFAULT_ORACLE_LIMIT = 24


def _tree_check(n: int, subset: Sequence[tuple[int, int]]) -> bool:
    """True when the n-1 given edges form a spanning tree (union-find: every
    union must merge two distinct components)."""
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in subset:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _oracle_guard(n: int, m: int, max_edges: int | None = None) -> None:
    """The oracle's guard for a graph of n vertices and m edges, which need
    not be built yet: refuses a negative limit, graphs without vertices and
    graphs with more than max_edges edges (default DEFAULT_ORACLE_LIMIT)."""
    limit = DEFAULT_ORACLE_LIMIT if max_edges is None else max_edges
    if limit < 0:
        raise ValueError(f"oracle edge limit must be nonnegative, got {limit}")
    if n < 1:
        raise ValueError("need at least one vertex")
    if m > limit:
        raise CapabilityExceededError(
            f"oracle enumeration over {m} edges exceeds the limit "
            f"of {limit}; raise max_edges to override"
        )


def spanning_trees(
    g: Graph, *, max_edges: int | None = None
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Enumerate the spanning trees of g as sorted edge tuples.

    Checks every (n-1)-subset of the edge set, so it is only usable on small
    inputs; ``_oracle_guard`` refuses the rest.
    """
    _oracle_guard(g.n, g.edge_count, max_edges)
    for subset in combinations(g.edges(), g.n - 1):
        if _tree_check(g.n, subset):
            yield subset


def oracle_count(g: Graph, *, max_edges: int | None = None) -> int:
    """Number of spanning trees by exhaustive edge-subset enumeration.

    Deliberately independent of the linear-algebra routes so it can serve as
    their cross-check.
    """
    return sum(1 for _ in spanning_trees(g, max_edges=max_edges))


def _cofactor(g: Graph, ring: Ring[T]) -> T:
    """Kirchhoff's cofactor: the determinant of L(G; w) without the row and
    column of a highest-degree vertex r (lowest label on ties; every r gives
    the same value).  A single vertex counts one (empty) tree."""
    if g.n < 1:
        raise ValueError("need at least one vertex")
    r = min(g.vertices, key=lambda v: (-g.degree(v), v))
    return ring.det(_laplacian_rows(g, [v for v in g.vertices if v != r], ring))


def matrix_tree_count(g: Graph) -> int:
    """Number of spanning trees as the Laplacian cofactor."""
    return _cofactor(g, INTEGERS)


def _perturbation(g: Graph, a: Sequence[int], b: Sequence[int], ring: Ring[T]) -> T:
    """det(L(G; w) + a b^T) divided exactly by the integer (sum a)(sum b),
    for any integer vectors of length n with nonzero sums; the quotient is
    the count whatever a and b are.  Raises TypeError on an entry that is
    not an int, before any work."""
    if bad := [x for x in (*a, *b) if not isinstance(x, int)]:
        raise TypeError(f"perturbation vector entries must be int, got {bad[0]!r}")
    sa, sb = sum(a), sum(b)
    if not sa or not sb:
        raise ValueError("vector sums must be nonzero for the perturbation count")
    rows = rank_one_update(_laplacian_rows(g, g.vertices, ring), a, b)
    return ring.div(ring.det(rows), sa * sb)


def perturbation_count(g: Graph, a: Sequence[int], b: Sequence[int]) -> int:
    """det(L + a b^T) / (sum a * sum b): the count, for any nonzero sums."""
    return _perturbation(g, a, b, INTEGERS)


def _perturbed_rows(
    g: Graph, co: ConstructionOrder, ring: Ring[T]
) -> tuple[tuple[T, ...], tuple[T, ...], list[list[T]]]:
    """L(G; w) relabeled along the construction order plus a b^T, over any
    ring: a is w(v) on the u_dominating vertices, b is w(v) on U, both zero
    elsewhere.

    The result is upper triangular for every valid construction order; a
    non-triangular result raises TriangularityError and means ``co`` was not
    valid for g.  Returns (a, b, rows).
    """
    co.check(g)
    order = co.order
    a = tuple(
        ring.weight(v) if r == ROLE_U_DOMINATING else ring.zero
        for v, r in zip(order, co.roles)
    )
    b = tuple(ring.weight(v) if v in co.u_set else ring.zero for v in order)
    rows = rank_one_update(_laplacian_rows(g, order, ring), a, b)
    if not is_upper_triangular(rows):
        raise TriangularityError(
            "perturbed Laplacian is not upper triangular; construction order invalid"
        )
    return a, b, rows


def build_perturbation(
    g: Graph, co: ConstructionOrder
) -> tuple[tuple[int, ...], tuple[int, ...], list[list[int]]]:
    """The Laplacian along the construction order plus the outer product of
    the u_dominating and U indicator vectors (w = 1), upper triangular;
    raises TriangularityError otherwise.  Returns (a, b, rows)."""
    return _perturbed_rows(g, co, INTEGERS)


def multipartite_count(sizes: Iterable[int]) -> int:
    """n**(k-2) * prod (n - n_i)**(n_i - 1) for the complete multipartite
    graph; a single part is edgeless and counts zero unless it is one
    vertex."""
    sizes = _part_sizes(sizes)
    n, k = sum(sizes), len(sizes)
    if n == 1:
        return 1
    if k == 1:
        return 0
    return n ** (k - 2) * prod((n - s) ** (s - 1) for s in sizes)


def threshold_count(g: Graph, co: ConstructionOrder) -> int:
    """Merris' formula for threshold graphs: the degree-product formula on a
    construction order with U = V."""
    if co.u_set != g.vertex_set():
        raise ValueError("threshold count needs a construction order with U = V")
    return special_2_threshold_count(g, co)


def ferrers_count(shape: PartitionShape | FerrersStructure | Iterable[int]) -> int:
    """Product of all row and column degrees of the staircase graph over
    (rows * cols), with nothing divided: row 1's degree is cols and column
    1's is rows, so both factors are dropped, as ``_degree_product`` does."""
    if isinstance(shape, FerrersStructure):
        shape = shape.shape
    elif not isinstance(shape, PartitionShape):
        shape = PartitionShape(shape)
    return prod(shape.parts[1:]) * prod(shape.conjugate().parts[1:])


def _degree_product(g: Graph, co: ConstructionOrder, ring: Ring[T]) -> T:
    """The degree-product formula over a construction order, in any ring.

    Vertex v contributes the sum of w over its neighbors, plus w(v) when v
    is u_dominating and inside U; the product, times prod w, over
    (sum of w over D)(sum of w over U), D the u_dominating vertices.  Each
    denominator equals one factor, so nothing is divided: without isolated
    vertices, the initial vertex is in U with exactly D as neighbors, so
    its factor is the sum over D; and every U-vertex comes no later than
    the last u_dominating vertex z, which no later vertex touches, so z's
    factor is the sum over U.  Both equalities are checked, ExactnessError
    if one fails, and both factors dropped.  A zero factor (an isolated
    vertex) means g is disconnected and counts zero.  Empty D or U means g
    is edgeless: one for a single vertex, else zero.  The null graph raises
    ValueError, as the cofactor does.
    """
    if g.n < 1:
        raise ValueError("need at least one vertex")
    co.check(g)
    dom = co.u_dominating_vertices()
    if not dom or not co.u_set:
        return ring.one if g.n == 1 else ring.zero
    bonus = dom & co.u_set
    factors = {}
    for v in g.vertices:
        f = ring.weight_sum(g.neighbors(v))
        factors[v] = f + ring.weight(v) if v in bonus else f
    if not all(factors.values()):
        return ring.zero
    for v, cancelled in ((co.order[0], dom), (co.last_u_dominating_vertex(), co.u_set)):
        if factors.pop(v) != ring.weight_sum(cancelled):
            raise ExactnessError(f"the factor of vertex {v} is not the sum it cancels")
    # prod w is a monomial: cheapest to multiply in while the product is small
    return prod(factors.values(), start=ring.weight_product(g.vertices))


def special_2_threshold_count(g: Graph, co: ConstructionOrder) -> int:
    """The degree-product formula with w = 1, for every special 2-threshold
    graph (threshold and Ferrers graphs included): deg(v) + 1 for v in both
    D and U, deg(v) otherwise, over |D| * |U|."""
    return _degree_product(g, co, INTEGERS)


def reduce_and_route(
    g: Graph,
    formula: Callable[[Graph, ConstructionOrder], T],
    cofactor: Callable[[Graph], T] | None,
    *,
    ring: Ring[T] = INTEGERS,
) -> tuple[T, str, tuple[Family, ConstructionOrder] | None]:
    """Answer g in ``ring``, integers by default: the degree-product
    ``formula`` when ``route`` recognizes g, else the product over g's
    blocks (biconnected components), each block answered by the formula
    when ``route`` recognizes it and by the ``cofactor`` when not.

    tau(G) is the product of tau over the blocks, and with edge weights
    x_i * x_j so is the enumerator, once ``ring.lift`` has moved each
    block's value to g's variables; a bridge {u, v} has the edge as its
    one tree and contributes w(u) * w(v) in g's ring directly, with no
    route, cofactor or lift.  A disconnected g is
    ``ring.zero``, found without building a Laplacian.  Returns (value, method,
    route(g)), method "formula:<family>", "matrix-tree" for a 2-connected
    non-member or "blocks".  ``cofactor=None`` refuses non-members with
    ValueError.
    """
    routed = route(g)
    if routed is not None:
        family, co = routed
        return formula(g, co), f"formula:{family}", routed
    if cofactor is None:
        raise ValueError(
            "no family formula applies: graph is not threshold, ferrers, "
            "or special 2-threshold"
        )
    parts = blocks(g)
    if parts is None:
        return ring.zero, "blocks", None
    if len(parts) == 1:
        return cofactor(g), "matrix-tree", None

    def answer(block: Graph, labels: tuple[int, ...]) -> T:
        if block.n == 2:  # a bridge: its one tree is the edge
            return ring.weight_product(labels)
        found = route(block)
        return ring.lift(cofactor(block) if found is None else formula(block, found[1]), labels)

    return reduce(mul, (answer(*part) for part in parts)), "blocks", None

