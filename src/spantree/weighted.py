"""Weighted spanning-tree enumerators as exact polynomials.

Every edge {i, j} carries the weight x_i * x_j, one variable per vertex, and
the enumerator of a graph is the sum over its spanning trees of the product
of their edge weights.  Setting every variable to 1 recovers the plain
counts, which the tests exploit throughout.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Sequence

from .counting import _perturbed_rows, spanning_trees
from .graph import Graph, PartitionShape, ferrers_graph
from .linalg import (
    _is_upper_triangular,
    _laplacian_rows,
    _rank_one_rows,
    expansion_determinant,
)
from .poly import MultiPoly, poly_prod, poly_sum
from .recognition import ConstructionOrder, FerrersStructure, ferrers_structure


class PolyMatrix:
    """Square matrix of polynomials sharing one variable space."""

    __slots__ = ("size", "nvars", "_data")

    def __init__(self, data: Sequence[Sequence[MultiPoly]]):
        rows = tuple(tuple(row) for row in data)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        nvars = rows[0][0].nvars if n else 0
        for row in rows:
            for p in row:
                if p.nvars != nvars:
                    raise ValueError("entries disagree on the variable count")
        self.size = n
        self.nvars = nvars
        self._data = rows

    def entry(self, i: int, j: int) -> MultiPoly:
        if not (1 <= i <= self.size and 1 <= j <= self.size):
            raise ValueError(f"entry ({i}, {j}) out of range for size {self.size}")
        return self._data[i - 1][j - 1]

    def diagonal(self) -> tuple[MultiPoly, ...]:
        return tuple(self._data[i][i] for i in range(self.size))

    def is_upper_triangular(self) -> bool:
        return _is_upper_triangular(self._data)

    def determinant(self) -> MultiPoly:
        """Diagonal product when triangular, the division-free expansion
        determinant otherwise (exponential in the size)."""
        if self.is_upper_triangular():
            return poly_prod(self.nvars, self.diagonal())
        return expansion_determinant(
            self._data, zero=MultiPoly.zero(self.nvars), one=MultiPoly.const(self.nvars, 1)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self._data == other._data

    def __repr__(self) -> str:
        return f"PolyMatrix(size={self.size}, nvars={self.nvars})"


def _var(n: int, v: int) -> MultiPoly:
    return MultiPoly.variable(n, v)


def _var_sum(n: int, vertices: Iterable[int]) -> MultiPoly:
    """x_v summed over distinct vertices, built as one term map."""
    return MultiPoly(n, {tuple(int(i == v) for i in range(1, n + 1)): 1 for v in vertices})


def weighted_degree(g: Graph, v: int) -> MultiPoly:
    """Sum of x_v * x_w over the neighbors w of v."""
    return _var(g.n, v) * _var_sum(g.n, g.neighbors(v))


def weighted_laplacian(g: Graph) -> PolyMatrix:
    """Weighted degrees on the diagonal, -x_i*x_j on edges, zero elsewhere:
    L(G; w) with w = x_v."""
    zero = MultiPoly.zero(g.n)
    return PolyMatrix(_laplacian_rows(g, g.vertices, partial(_var, g.n), zero))


def weighted_oracle(g: Graph, *, max_edges: int | None = None) -> MultiPoly:
    """Enumerator by brute force: one monomial per spanning tree, exponents
    the tree's degree sequence.  Subject to the oracle edge guard."""
    terms: dict[tuple[int, ...], int] = {}
    for tree in spanning_trees(g, max_edges=max_edges):
        exps = [0] * g.n
        for u, v in tree:
            exps[u - 1] += 1
            exps[v - 1] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + 1
    return MultiPoly(g.n, terms)


def weighted_matrix_tree_count(g: Graph) -> MultiPoly:
    """Enumerator as the weighted Kirchhoff cofactor, without any division.

    Row i of the weighted Laplacian is x_i times the linear row M_i with
    M_ii the neighbor sum of i and M_ij = -x_j on edges, so the cofactor at
    a vertex r is (prod_{i != r} x_i) * det(M without row and column r).
    Deleting a highest-degree vertex (lowest label on ties) leaves the
    sparsest matrix for the expansion determinant; every r gives the same
    polynomial.  The expansion is exponential in n.
    """
    n = g.n
    if n < 1:
        raise ValueError("need at least one vertex")
    r = min(g.vertices, key=lambda v: (-g.degree(v), v))
    rest = [v for v in g.vertices if v != r]
    zero = MultiPoly.zero(n)
    rows = _laplacian_rows(g, rest, partial(_var, n), zero, row_factors=False)
    det = expansion_determinant(rows, zero=zero, one=MultiPoly.const(n, 1))
    return det * MultiPoly.monomial(n, [int(v != r) for v in g.vertices])


def _coerce_vector(n: int, vec: Sequence[MultiPoly | int]) -> list[MultiPoly]:
    out = []
    for x in vec:
        out.append(x if isinstance(x, MultiPoly) else MultiPoly.const(n, x))
        if out[-1].nvars != n:
            raise ValueError("vector entry disagrees on the variable count")
    return out


def weighted_perturbation_count(
    g: Graph, a: Sequence[MultiPoly | int], b: Sequence[MultiPoly | int]
) -> MultiPoly:
    """det(L(G; w) + a b^T) divided exactly by (sum a)(sum b)."""
    n = g.n
    if len(a) != n or len(b) != n:
        raise ValueError(f"vector lengths {len(a)}, {len(b)} do not match n={n}")
    av = _coerce_vector(n, a)
    bv = _coerce_vector(n, b)
    sa = poly_sum(n, av)
    sb = poly_sum(n, bv)
    if sa.is_zero() or sb.is_zero():
        raise ValueError("vector sums must be nonzero for the perturbation count")
    det = PolyMatrix(_rank_one_rows(weighted_laplacian(g)._data, av, bv)).determinant()
    return det.exact_div(sa).exact_div(sb)


def weighted_build_perturbation(
    g: Graph, co: ConstructionOrder
) -> tuple[tuple[MultiPoly, ...], tuple[MultiPoly, ...], PolyMatrix]:
    """Weighted Laplacian relabeled along the construction order, perturbed
    by the outer product of a (x_v on u_dominating vertices) and b (x_v on
    U-vertices): the perturbation with w = x_v.  Triangular for every valid
    order; raises TriangularityError otherwise."""
    a, b, rows = _perturbed_rows(g, co, partial(_var, g.n), MultiPoly.zero(g.n))
    return a, b, PolyMatrix(rows)


def weighted_cayley_prufer(n: int) -> MultiPoly:
    """Enumerator of the complete graph: (prod x_k) * (sum x_k)**(n-2)."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    if n == 1:
        return MultiPoly.const(1, 1)
    all_vars = [_var(n, k) for k in range(1, n + 1)]
    if n == 2:
        return poly_prod(n, all_vars)
    return poly_prod(n, all_vars) * poly_sum(n, all_vars) ** (n - 2)


def weighted_count_threshold(g: Graph, co: ConstructionOrder) -> MultiPoly:
    """Closed form for threshold graphs: the weighted degree-product formula
    on a construction order with U = V."""
    if co.u_set != g.vertex_set():
        raise ValueError("threshold enumerator needs a construction order with U = V")
    return weighted_count_special_2threshold(g, co)


def weighted_count_ferrers(
    fs: FerrersStructure | PartitionShape | Sequence[int],
) -> MultiPoly:
    """Closed form for staircase graphs: the weighted degree-product formula
    on the staircase traversal.  A bare shape uses ferrers_graph's labeling
    (rows first, then columns)."""
    if isinstance(fs, FerrersStructure):
        g = Graph(
            len(fs.row_order) + len(fs.col_order),
            (
                (r, fs.col_order[k])
                for r, length in zip(fs.row_order, fs.shape.parts)
                for k in range(length)
            ),
        )
    else:
        g = ferrers_graph(fs)
        fs = ferrers_structure(g)
    return weighted_count_special_2threshold(g, fs.construction_order())


def weighted_count_special_2threshold(g: Graph, co: ConstructionOrder) -> MultiPoly:
    """The weighted degree-product formula over a construction order.

    Vertices in both D and U contribute (x_v + neighbor sum), all others
    their neighbor sum, the whole product times prod x_v and divided by
    (sum over D)(sum over U).  As in special_2_threshold_count, each sum is
    divided exactly out of the one factor it cancels: the initial vertex's
    neighbor sum is the sum over D, and the last u_dominating vertex's
    factor is the sum over U.  A zero factor (an isolated vertex) gives 0.

    Empty D or U means the graph is edgeless; the enumerator is then 1 for a
    single vertex and 0 otherwise.
    """
    co.check(g)
    n = g.n
    dom = co.u_dominating_vertices()
    if not dom or not co.u_set:
        return MultiPoly.const(n, 1 if n == 1 else 0)
    bonus = dom & co.u_set
    factors = {
        v: _var_sum(n, g.neighbors(v) | {v} if v in bonus else g.neighbors(v))
        for v in g.vertices
    }
    if any(f.is_zero() for f in factors.values()):
        return MultiPoly.zero(n)
    first = factors.pop(co.order[0]).exact_div(_var_sum(n, dom))
    last = factors.pop(co.last_u_dominating_vertex()).exact_div(_var_sum(n, co.u_set))
    variables = MultiPoly.monomial(n, [1] * n)
    return poly_prod(n, [first, last, variables, *factors.values()])
