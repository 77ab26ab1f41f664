"""Spanning-tree counting: a brute-force oracle, the Laplacian cofactor
route, rank-one perturbations, and the closed-form formulas: the one
degree-product formula over a construction order, and the complete,
multipartite and shape-only Ferrers products.

All divisions prescribed by the formulas are performed in exact integer
arithmetic with a remainder check; a nonzero remainder means the input
violated a precondition (or there is a bug) and raises ExactnessError.
"""

from __future__ import annotations

import multiprocessing
import os
from functools import reduce
from itertools import combinations
from math import prod
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import CapabilityExceededError, TriangularityError
from .graph import Graph, PartitionShape, blocks
from .linalg import (
    ExactMatrix,
    _is_upper_triangular,
    _laplacian_rows,
    _rank_one_rows,
    determinant,
    exact_int_div,
    laplacian,
    minor_determinant,
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


def _oracle_edge_limit(g: Graph, max_edges: int | None) -> int:
    """The oracle's edge limit (default DEFAULT_ORACLE_LIMIT), after
    refusing a negative limit, graphs without vertices and graphs with more
    edges than that."""
    limit = DEFAULT_ORACLE_LIMIT if max_edges is None else max_edges
    if limit < 0:
        raise ValueError(f"oracle edge limit must be nonnegative, got {limit}")
    if g.n < 1:
        raise ValueError("need at least one vertex")
    if g.edge_count > limit:
        raise CapabilityExceededError(
            f"oracle enumeration over {g.edge_count} edges exceeds the limit "
            f"of {limit}; raise max_edges to override"
        )
    return limit


def spanning_trees(
    g: Graph, *, max_edges: int | None = None
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Enumerate the spanning trees of g as sorted edge tuples.

    Checks every (n-1)-subset of the edge set, so it is only usable on small
    inputs; the guard refuses graphs with more than max_edges edges
    (default DEFAULT_ORACLE_LIMIT).
    """
    _oracle_edge_limit(g, max_edges)
    edges = g.edges()
    if g.n == 1:
        yield ()
        return
    for subset in combinations(edges, g.n - 1):
        if _tree_check(g.n, subset):
            yield subset


def _count_chunk(args: tuple[Graph, int]) -> int:
    g, first = args
    edges = g.edges()
    rest = edges[first + 1 :]
    lead = edges[first]
    return sum(
        1
        for tail in combinations(rest, g.n - 2)
        if _tree_check(g.n, (lead,) + tail)
    )


def oracle_count(g: Graph, *, max_edges: int | None = None, jobs: int = 1) -> int:
    """Number of spanning trees by exhaustive edge-subset enumeration.

    Deliberately independent of the linear-algebra routes so it can serve as
    their cross-check.  ``jobs > 1`` splits the enumeration by leading edge
    across worker processes, at most one per CPU.
    """
    limit = _oracle_edge_limit(g, max_edges)
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1 and g.edge_count > g.n:
        tasks = [(g, first) for first in range(g.edge_count)]
        with multiprocessing.Pool(jobs) as pool:
            return sum(pool.map(_count_chunk, tasks))
    return sum(1 for _ in spanning_trees(g, max_edges=limit))


def matrix_tree_count(g: Graph) -> int:
    """Cofactor of the Laplacian: delete row 1 and column 1, take the
    determinant.  A single vertex counts one (empty) tree."""
    if g.n < 1:
        raise ValueError("need at least one vertex")
    return minor_determinant(laplacian(g), 1, 1)


def perturbation_count(g: Graph, a: Sequence[int], b: Sequence[int]) -> int:
    """det(L + a b^T) / (sum a * sum b) for any integer vectors with nonzero
    sums; the quotient is the spanning-tree count regardless of a and b."""
    sa, sb = sum(a), sum(b)
    if sa == 0 or sb == 0:
        raise ValueError("vector sums must be nonzero for the perturbation count")
    det = determinant(rank_one_update(laplacian(g), a, b))
    return exact_int_div(det, sa * sb)


def _perturbed_rows(
    g: Graph, co: ConstructionOrder, weight: Callable[[int], T], zero: T
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
        weight(v) if r == ROLE_U_DOMINATING else zero for v, r in zip(order, co.roles)
    )
    b = tuple(weight(v) if v in co.u_set else zero for v in order)
    rows = _rank_one_rows(_laplacian_rows(g, order, weight, zero), a, b)
    if not _is_upper_triangular(rows):
        raise TriangularityError(
            "perturbed Laplacian is not upper triangular; construction order invalid"
        )
    return a, b, rows


def build_perturbation(
    g: Graph, co: ConstructionOrder
) -> tuple[tuple[int, ...], tuple[int, ...], ExactMatrix]:
    """The Laplacian along the construction order plus the outer product of
    the u_dominating and U indicator vectors (w = 1), upper triangular;
    raises TriangularityError otherwise.  Returns (a, b, perturbed matrix)."""
    a, b, rows = _perturbed_rows(g, co, lambda v: 1, 0)
    return a, b, ExactMatrix(rows)


def complete_count(n: int) -> int:
    """n**(n-2) spanning trees; one and two vertices both count one tree."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    if n <= 2:
        return 1
    return n ** (n - 2)


def bipartite_count(m: int, n: int) -> int:
    """m**(n-1) * n**(m-1) spanning trees for the complete bipartite graph."""
    if m < 1 or n < 1:
        raise ValueError(f"side sizes must be positive, got {m}, {n}")
    return m ** (n - 1) * n ** (m - 1)


def multipartite_count(sizes: Iterable[int]) -> int:
    """n**(k-2) * prod (n - n_i)**(n_i - 1) for the complete multipartite
    graph; a single part is edgeless and counts zero unless it is one
    vertex."""
    sizes = list(sizes)
    if not sizes:
        raise ValueError("need at least one part")
    if any(s < 1 for s in sizes):
        raise ValueError(f"part sizes must be positive, got {sizes}")
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
    """Product of all row and column degrees of the staircase graph, divided
    by (rows * cols)."""
    if isinstance(shape, FerrersStructure):
        shape = shape.shape
    elif not isinstance(shape, PartitionShape):
        shape = PartitionShape(shape)
    conj = shape.conjugate()
    numerator = prod(shape.parts) * prod(conj.parts)
    return exact_int_div(numerator, shape.rows * conj.rows)


def special_2_threshold_count(g: Graph, co: ConstructionOrder) -> int:
    """The degree-product formula over a construction order, for every
    special 2-threshold graph (threshold and Ferrers graphs included).

    Vertices that are u_dominating and inside U contribute deg+1, everything
    else deg, and the product is divided by |D| * |U|, D the u_dominating
    vertices.  Each denominator cancels one factor, and is divided out of
    that factor with a remainder check: without isolated vertices, the
    initial vertex is in U with exactly D as neighbors, so its factor is
    |D|; and every U-vertex comes no later than the last u_dominating vertex
    w, which no later vertex touches, so w's factor is |U|.  A zero factor
    (an isolated vertex) means g is disconnected and counts 0.  Empty D or U
    means g is edgeless: 1 for a single vertex, 0 otherwise.
    """
    co.check(g)
    dom = co.u_dominating_vertices()
    if not dom or not co.u_set:
        return 1 if g.n == 1 else 0
    bonus = dom & co.u_set
    factors = {v: g.degree(v) + 1 if v in bonus else g.degree(v) for v in g.vertices}
    if 0 in factors.values():
        return 0
    first = exact_int_div(factors.pop(co.order[0]), len(dom))
    last = exact_int_div(factors.pop(co.last_u_dominating_vertex()), len(co.u_set))
    return first * last * prod(factors.values())


def reduce_and_route(
    g: Graph,
    formula: Callable[[Graph, ConstructionOrder], T],
    cofactor: Callable[[Graph], T] | None,
    *,
    zero: T = 0,
    lift: Callable[[T, tuple[int, ...]], T] = lambda value, labels: value,
) -> tuple[T, str, tuple[Family, ConstructionOrder] | None]:
    """Answer g in one ring, integers by default: the degree-product
    ``formula`` when ``route`` recognizes g, else the product over g's
    blocks (biconnected components), each block answered by the formula
    when ``route`` recognizes it and by the ``cofactor`` when not.

    tau(G) is the product of tau over the blocks, and with edge weights
    x_i * x_j so is the enumerator, once ``lift(value, labels)`` has moved
    each block's value to g's variables; a bridge is the block K2, whose
    1 x 1 cofactor gives 1, or x_u * x_v lifted.  A disconnected g is
    ``zero``, found without building a Laplacian.  Returns (value, method,
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
        return zero, "blocks", None
    if len(parts) == 1:
        return cofactor(g), "matrix-tree", None
    # equal blocks (every bridge is the one K2) are answered once, a bridge
    # by its 1 x 1 cofactor, which costs less than routing it
    answers: dict[Graph, T] = {}
    for block, _ in parts:
        if block not in answers:
            found = None if block.n == 2 else route(block)
            answers[block] = cofactor(block) if found is None else formula(block, found[1])
    product = reduce(mul, (lift(answers[block], labels) for block, labels in parts))
    return product, "blocks", None


def auto_count(g: Graph) -> tuple[int, str]:
    """Fastest applicable method through ``reduce_and_route``: the
    degree-product formula when ``route`` recognizes g, the product over
    the blocks otherwise.  Returns (count, method)."""
    count, method, _ = reduce_and_route(g, special_2_threshold_count, matrix_tree_count)
    return count, method
