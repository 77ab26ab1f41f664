"""Weighted spanning-tree enumerators as exact polynomials.

Every edge {i, j} carries the weight x_i * x_j, one variable per vertex, and
the enumerator of a graph is the sum over its spanning trees of the product
of their edge weights.  Setting every variable to 1 recovers the plain
counts, which the tests exploit throughout.
"""

from __future__ import annotations

from typing import Sequence

from .counting import spanning_trees
from .errors import TriangularityError
from .graph import Graph, PartitionShape
from .linalg import expansion_determinant, fraction_free_determinant
from .poly import MultiPoly, poly_prod, poly_sum
from .recognition import (
    ROLE_U_DOMINATING,
    ConstructionOrder,
    FerrersStructure,
)


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
        return all(
            self._data[i][j].is_zero()
            for i in range(1, self.size)
            for j in range(i)
        )

    def determinant(self) -> MultiPoly:
        """Diagonal product when triangular, fraction-free elimination in the
        polynomial ring otherwise."""
        if self.size == 0:
            return MultiPoly.const(self.nvars, 1)
        if self.is_upper_triangular():
            return poly_prod(self.nvars, self.diagonal())
        return fraction_free_determinant(
            self._data,
            zero=MultiPoly.zero(self.nvars),
            one=MultiPoly.const(self.nvars, 1),
            exact_div=lambda p, q: p.exact_div(q),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self._data == other._data

    def __repr__(self) -> str:
        return f"PolyMatrix(size={self.size}, nvars={self.nvars})"


def _var(n: int, v: int) -> MultiPoly:
    return MultiPoly.variable(n, v)


def _neighbor_sum(g: Graph, v: int) -> MultiPoly:
    return poly_sum(g.n, (_var(g.n, w) for w in sorted(g.neighbors(v))))


def weighted_degree(g: Graph, v: int) -> MultiPoly:
    """Sum of x_v * x_w over the neighbors w of v."""
    return _var(g.n, v) * _neighbor_sum(g, v)


def weighted_laplacian(g: Graph) -> PolyMatrix:
    """Weighted degrees on the diagonal, -x_i*x_j on edges, zero elsewhere."""
    n = g.n
    zero = MultiPoly.zero(n)
    rows = []
    for i in g.vertices:
        row = []
        for j in g.vertices:
            if i == j:
                row.append(weighted_degree(g, i))
            elif g.has_edge(i, j):
                row.append(-(_var(n, i) * _var(n, j)))
            else:
                row.append(zero)
        rows.append(row)
    return PolyMatrix(rows)


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
    rows = [
        [
            _neighbor_sum(g, i) if i == j else (-_var(n, j) if g.has_edge(i, j) else zero)
            for j in rest
        ]
        for i in rest
    ]
    det = expansion_determinant(rows, zero=zero, one=MultiPoly.const(n, 1))
    return det * poly_prod(n, (_var(n, v) for v in rest))


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
    lap = weighted_laplacian(g)
    rows = [
        [lap.entry(i, j) + av[i - 1] * bv[j - 1] for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    det = PolyMatrix(rows).determinant()
    return det.exact_div(sa).exact_div(sb)


def weighted_build_perturbation(
    g: Graph, co: ConstructionOrder
) -> tuple[tuple[MultiPoly, ...], tuple[MultiPoly, ...], PolyMatrix]:
    """Weighted Laplacian relabeled along the construction order, perturbed
    by the outer product of a (x_v on u_dominating vertices) and b (x_v on
    U-vertices).  Triangular for every valid order; raises otherwise."""
    co.check(g)
    n = g.n
    zero = MultiPoly.zero(n)
    order = co.order
    a = tuple(
        _var(n, v) if r == ROLE_U_DOMINATING else zero
        for v, r in zip(order, co.roles)
    )
    b = tuple(_var(n, v) if v in co.u_set else zero for v in order)
    rows = []
    for i, u in enumerate(order):
        row = []
        for j, v in enumerate(order):
            if u == v:
                entry = weighted_degree(g, u)
            elif g.has_edge(u, v):
                entry = -(_var(n, u) * _var(n, v))
            else:
                entry = zero
            row.append(entry + a[i] * b[j])
        rows.append(row)
    perturbed = PolyMatrix(rows)
    if not perturbed.is_upper_triangular():
        raise TriangularityError(
            "weighted perturbation is not upper triangular; construction order invalid"
        )
    return a, b, perturbed


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
    """Closed form for threshold graphs: (prod x_v) times (x_v + neighbor
    sum) over dominating vertices times neighbor sums over isolated
    vertices, divided by the sum of all variables."""
    co.check(g)
    if co.u_set != g.vertex_set():
        raise ValueError("threshold enumerator needs a construction order with U = V")
    n = g.n
    numerator = poly_prod(n, (_var(n, v) for v in g.vertices))
    numerator *= poly_prod(
        n,
        (
            _var(n, v) + _neighbor_sum(g, v)
            for v in sorted(co.u_dominating_vertices())
        ),
    )
    numerator *= poly_prod(
        n, (_neighbor_sum(g, v) for v in sorted(co.isolated_vertices()))
    )
    return numerator.exact_div(poly_sum(n, (_var(n, v) for v in g.vertices)))


def _identity_ferrers_structure(shape: PartitionShape) -> FerrersStructure:
    """Structure matching ferrers_graph's labeling: rows 1..m, columns
    m+1..m+cols."""
    m = shape.rows
    rows = tuple(range(1, m + 1))
    cols = tuple(range(m + 1, m + shape.cols + 1))
    traversal: list[int] = []
    for j, c in enumerate(cols, 1):
        traversal.append(c)
        for i in range(m, 0, -1):
            if shape.parts[i - 1] == j:
                traversal.append(rows[i - 1])
    return FerrersStructure(rows, cols, shape, tuple(traversal))


def weighted_count_ferrers(
    fs: FerrersStructure | PartitionShape | Sequence[int],
) -> MultiPoly:
    """Division-free closed form for staircase graphs.

    Product of all vertex variables, times for each row past the first the
    sum of its columns' variables, times for each column past the first the
    sum of its rows' variables.  A bare shape uses the constructor's
    labeling (rows first, then columns).
    """
    if not isinstance(fs, FerrersStructure):
        shape = fs if isinstance(fs, PartitionShape) else PartitionShape(fs)
        fs = _identity_ferrers_structure(shape)
    n = len(fs.row_order) + len(fs.col_order)
    conj = fs.shape.conjugate()
    result = poly_prod(n, (_var(n, v) for v in fs.row_order + fs.col_order))
    for i in range(2, len(fs.row_order) + 1):
        result *= poly_sum(
            n, (_var(n, fs.col_order[k]) for k in range(fs.shape.parts[i - 1]))
        )
    for j in range(2, len(fs.col_order) + 1):
        result *= poly_sum(
            n, (_var(n, fs.row_order[k]) for k in range(conj.parts[j - 1]))
        )
    return result


def weighted_count_special_2threshold(g: Graph, co: ConstructionOrder) -> MultiPoly:
    """Closed form for a U-threshold presentation: vertices in both D and U
    contribute (x_v + neighbor sum), all others their neighbor sum, the
    whole product times prod x_v and divided by (sum over D)(sum over U).

    Empty D or U means the graph is edgeless; the enumerator is then 1 for a
    single vertex and 0 otherwise.
    """
    co.check(g)
    n = g.n
    dom = co.u_dominating_vertices()
    if not dom or not co.u_set:
        return MultiPoly.const(n, 1 if n == 1 else 0)
    bonus = dom & co.u_set
    numerator = poly_prod(n, (_var(n, v) for v in g.vertices))
    for v in g.vertices:
        base = _neighbor_sum(g, v)
        numerator *= base + _var(n, v) if v in bonus else base
    denom_d = poly_sum(n, (_var(n, v) for v in sorted(dom)))
    denom_u = poly_sum(n, (_var(n, v) for v in sorted(co.u_set)))
    return numerator.exact_div(denom_d).exact_div(denom_u)
