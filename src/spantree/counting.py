"""Spanning-tree counting: a brute-force oracle, the Laplacian cofactor
route, rank-one perturbations, and the closed-form family formulas.

All divisions prescribed by the formulas are performed in exact integer
arithmetic with a remainder check; a nonzero remainder means the input
violated a precondition (or there is a bug) and raises ExactnessError.
"""

from __future__ import annotations

import multiprocessing
import os
from itertools import combinations
from math import prod
from typing import Iterable, Iterator, Sequence

from .errors import CapabilityExceededError, TriangularityError
from .graph import Graph, PartitionShape
from .linalg import (
    ExactMatrix,
    determinant,
    exact_int_div,
    is_upper_triangular,
    minor_determinant,
    rank_one_update,
)
from .recognition import (
    ROLE_U_DOMINATING,
    ConstructionOrder,
    FerrersStructure,
    ferrers_structure,
    special_2_threshold_order,
    threshold_order,
)

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


def spanning_trees(
    g: Graph, *, max_edges: int | None = None
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Enumerate the spanning trees of g as sorted edge tuples.

    Checks every (n-1)-subset of the edge set, so it is only usable on small
    inputs; the guard refuses graphs with more than max_edges edges
    (default DEFAULT_ORACLE_LIMIT).
    """
    limit = DEFAULT_ORACLE_LIMIT if max_edges is None else max_edges
    if g.n < 1:
        raise ValueError("need at least one vertex")
    if g.edge_count > limit:
        raise CapabilityExceededError(
            f"oracle enumeration over {g.edge_count} edges exceeds the limit "
            f"of {limit}; raise max_edges to override"
        )
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
    limit = DEFAULT_ORACLE_LIMIT if max_edges is None else max_edges
    if g.n < 1:
        raise ValueError("need at least one vertex")
    if g.edge_count > limit:
        raise CapabilityExceededError(
            f"oracle enumeration over {g.edge_count} edges exceeds the limit "
            f"of {limit}; raise max_edges to override"
        )
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
    from .linalg import laplacian

    return minor_determinant(laplacian(g), 1, 1)


def perturbation_count(g: Graph, a: Sequence[int], b: Sequence[int]) -> int:
    """det(L + a b^T) / (sum a * sum b) for any integer vectors with nonzero
    sums; the quotient is the spanning-tree count regardless of a and b."""
    from .linalg import laplacian

    sa, sb = sum(a), sum(b)
    if sa == 0 or sb == 0:
        raise ValueError("vector sums must be nonzero for the perturbation count")
    det = determinant(rank_one_update(laplacian(g), a, b))
    return exact_int_div(det, sa * sb)


def build_perturbation(
    g: Graph, co: ConstructionOrder
) -> tuple[tuple[int, ...], tuple[int, ...], ExactMatrix]:
    """Relabel the Laplacian along the construction order and add the outer
    product of the u_dominating and U indicator vectors.

    The result is upper triangular for every valid construction order; a
    non-triangular result raises TriangularityError and means ``co`` was not
    valid for g.  Returns (a, b, perturbed matrix).
    """
    co.check(g)
    order = co.order
    lap = ExactMatrix(
        [
            [
                g.degree(u) if u == v else (-1 if g.has_edge(u, v) else 0)
                for v in order
            ]
            for u in order
        ]
    )
    a = tuple(1 if r == ROLE_U_DOMINATING else 0 for r in co.roles)
    b = tuple(1 if v in co.u_set else 0 for v in order)
    perturbed = rank_one_update(lap, a, b)
    if not is_upper_triangular(perturbed):
        raise TriangularityError(
            "perturbed Laplacian is not upper triangular; construction order invalid"
        )
    return a, b, perturbed


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
    """Degree-product formula for threshold graphs: dominating vertices
    contribute deg+1, isolated vertices deg, divided by n; the initial
    vertex contributes nothing."""
    co.check(g)
    if co.u_set != g.vertex_set():
        raise ValueError("threshold count needs a construction order with U = V")
    numerator = prod(
        g.degree(v) + 1 for v in co.u_dominating_vertices()
    ) * prod(g.degree(v) for v in co.isolated_vertices())
    return exact_int_div(numerator, g.n)


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
    """Degree-product formula for a U-threshold presentation.

    Vertices that are u_dominating and inside U contribute deg+1, everything
    else deg, divided by |D| * |U|.  When D or U is empty the graph is
    edgeless and the formula is undefined; those inputs fall back to the
    cofactor count.
    """
    co.check(g)
    dom = co.u_dominating_vertices()
    if not dom or not co.u_set:
        return matrix_tree_count(g)
    bonus = dom & co.u_set
    numerator = prod(
        g.degree(v) + 1 if v in bonus else g.degree(v) for v in g.vertices
    )
    return exact_int_div(numerator, len(dom) * len(co.u_set))


def auto_count(
    g: Graph, *, search_limit: int | None = None
) -> tuple[int, str]:
    """Fastest applicable method: a family formula when the graph is
    recognized, the Laplacian cofactor otherwise.  Returns (count, method).

    The U-search is skipped (not failed) when the graph exceeds its cap.
    """
    co = threshold_order(g)
    if co is not None:
        return threshold_count(g, co), "formula:threshold"
    fs = ferrers_structure(g)
    if fs is not None:
        return ferrers_count(fs), "formula:ferrers"
    try:
        found = (
            special_2_threshold_order(g)
            if search_limit is None
            else special_2_threshold_order(g, max_vertices=search_limit)
        )
    except CapabilityExceededError:
        found = None
    if found is not None:
        _, co = found
        return special_2_threshold_count(g, co), "formula:special-2-threshold"
    return matrix_tree_count(g), "matrix-tree"
