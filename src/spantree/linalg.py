"""Exact dense linear algebra, and the ring every count lives in.

A ``Ring`` holds what the generic routes need: zero, one, the vertex
weight w(v) with its sums and products, exact division, the determinant
and the lift of a block's value.  ``INTEGERS`` is w = 1 and ``polynomial_ring(n)`` is
w = x_v, so the Laplacian, the formula, the cofactor and the perturbation
count are each written once.  The integer determinant is fraction-free
(Bareiss) elimination, every division exact; polynomial matrices take the
triangular shortcut or the division-free expansion, since exact
polynomial division costs more than the exponential number of minors at
the sizes where either finishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Callable, Collection, Generic, Sequence, TypeVar

from .errors import ExactnessError
from .graph import Graph
from .poly import MultiPoly

T = TypeVar("T")


class ExactMatrix:
    """Dense matrix of arbitrary-precision integers.

    Row and column indices are 1-based, matching the vertex labels of the
    graphs whose Laplacians these matrices usually are.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data: Sequence[Sequence[int]]):
        rows = tuple(tuple(int(x) for x in row) for row in data)
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ValueError(f"ragged rows: widths {sorted(widths)}")
        self.rows = len(rows)
        self.cols = widths.pop() if widths else 0
        self._data = rows

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> int:
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise ValueError(f"entry ({i}, {j}) out of range {self.rows}x{self.cols}")
        return self._data[i - 1][j - 1]

    def row_list(self) -> list[list[int]]:
        return [list(r) for r in self._data]

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self._data[i][i] for i in range(min(self.rows, self.cols)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._data == other._data

    def __hash__(self) -> int:
        return hash(self._data)

    def __repr__(self) -> str:
        return f"ExactMatrix({[list(r) for r in self._data]!r})"


def exact_int_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ExactnessError(f"{num} is not divisible by {den}")
    return q


def fraction_free_determinant(
    rows: Sequence[Sequence[T]],
    *,
    zero: T,
    one: T,
    exact_div: Callable[[T, T], T],
) -> T:
    """Determinant of a square matrix over an integral domain.

    Bareiss condensation: after step k every entry is a (k+1)x(k+1) minor of
    the original matrix, and the division by the previous pivot is exact.
    Entries must support ``*`` and ``-`` and be falsy exactly when zero.
    The 0x0 determinant is one (empty product).
    """
    n = len(rows)
    if n == 0:
        return one
    a = [list(r) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("matrix must be square")
    negate = False
    prev = one
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return zero
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            negate = not negate
        pk = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = exact_div(pk * row_i[j] - aik * row_k[j], prev)
            row_i[k] = zero
        prev = pk
    det = a[n - 1][n - 1]
    return -det if negate else det


def expansion_determinant(rows: Sequence[Sequence[T]], *, zero: T, one: T) -> T:
    """Determinant of a square matrix over a commutative ring, division free.

    Laplace expansion along the rows, memoised on the set of columns the
    rows so far have taken: after row i, ``partial[S]`` is the signed sum of
    the products choosing the columns S for rows 1..i.  Zero entries and
    zero partial sums are skipped, so a sparse matrix reaches few sets; the
    worst case is 2**n sets.  Entries must support ``*``, ``+`` and ``-`` and
    be falsy exactly when zero.  The 0x0 determinant is one.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    partial = {0: one}
    for row in rows:
        grown: dict[int, T] = {}
        for used, value in partial.items():
            if not value:
                continue
            for j, entry in enumerate(row):
                bit = 1 << j
                if used & bit or not entry:
                    continue
                term = entry * value
                key = used | bit
                prev = grown.get(key)
                # each used column right of j is one inversion
                if (used >> j).bit_count() & 1:
                    grown[key] = -term if prev is None else prev - term
                else:
                    grown[key] = term if prev is None else prev + term
        partial = grown
    return partial.get((1 << n) - 1, zero)


def determinant(m: ExactMatrix) -> int:
    """Exact determinant; raises ValueError on non-square input."""
    if not m.is_square:
        raise ValueError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    return _bareiss(m._data)


def minor_determinant(m: ExactMatrix, i: int, j: int) -> int:
    """Determinant of m with row i and column j deleted (1-based).

    The caller applies the (-1)**(i+j) cofactor sign.
    """
    if not m.is_square:
        raise ValueError(f"minor needs a square matrix, got {m.rows}x{m.cols}")
    if not (1 <= i <= m.rows and 1 <= j <= m.cols):
        raise ValueError(f"minor index ({i}, {j}) out of range for {m.rows}x{m.cols}")
    rows = [
        [x for jj, x in enumerate(row, 1) if jj != j]
        for ii, row in enumerate(m._data, 1)
        if ii != i
    ]
    return _bareiss(rows)


def is_upper_triangular(m: ExactMatrix) -> bool:
    """True when every entry strictly below the diagonal is zero."""
    if not m.is_square:
        raise ValueError(f"triangularity needs a square matrix, got {m.rows}x{m.cols}")
    return _is_upper_triangular(m._data)


def _is_upper_triangular(rows: Sequence[Sequence[T]]) -> bool:
    """True when no entry strictly below the diagonal is nonzero, any ring."""
    return not any(rows[i][j] for i in range(1, len(rows)) for j in range(i))


def rank_one_update(m: ExactMatrix, a: Sequence[int], b: Sequence[int]) -> ExactMatrix:
    """m plus the outer product of column vector a and row vector b."""
    if len(a) != m.rows or len(b) != m.cols:
        raise ValueError(
            f"vector lengths {len(a)}, {len(b)} do not match {m.rows}x{m.cols}"
        )
    return ExactMatrix(_rank_one_rows(m._data, a, b))


def _rank_one_rows(
    rows: Sequence[Sequence[T]], a: Sequence[T], b: Sequence[T]
) -> list[list[T]]:
    """rows plus the outer product a b^T, over any ring."""
    return [[x + ai * bj for x, bj in zip(row, b)] for row, ai in zip(rows, a)]


def _laplacian_rows(
    g: Graph, order: Sequence[int], ring: Ring[T], *, row_factors: bool = True
) -> list[list[T]]:
    """Rows and columns of L(G; w) for the vertices of ``order``, over any
    ring: entry (u, u) is w(u) times the sum of w(v) over N(u), entry (u, v)
    is -w(u) w(v) on an edge.  Leaving vertices out of ``order`` gives a
    principal submatrix; ``row_factors=False`` divides row u by w(u)."""
    w = {v: ring.weight(v) for v in g.vertices}
    pos = {v: j for j, v in enumerate(order)}
    rows = []
    for u in order:
        nbrs = g.neighbors(u)
        row = [ring.zero] * len(order)
        for v in nbrs:
            if v in pos:
                row[pos[v]] = -(w[u] * w[v]) if row_factors else -w[v]
        total = ring.weight_sum(nbrs)
        row[pos[u]] = w[u] * total if row_factors else total
        rows.append(row)
    return rows


def laplacian(g: Graph) -> ExactMatrix:
    """Degree matrix minus adjacency matrix: entry (i, i) is deg(i), entry
    (i, j) is -1 iff {i, j} is an edge.  L(G; w) with w = 1."""
    return ExactMatrix(_laplacian_rows(g, g.vertices, INTEGERS))


@dataclass(frozen=True)
class Ring(Generic[T]):
    """The ring of a count: ``weight(v)`` is w(v), ``weight_sum`` and
    ``weight_product`` add and multiply w over distinct vertices, ``div``
    divides exactly or raises ExactnessError, ``det`` is the determinant of
    a list of square rows, and ``lift(value, labels)`` moves a block's
    value to the whole graph, block vertex i renamed labels[i-1]."""

    zero: T
    one: T
    weight: Callable[[int], T]
    weight_sum: Callable[[Collection[int]], T]
    weight_product: Callable[[Collection[int]], T]
    div: Callable[[T, T], T]
    det: Callable[[Sequence[Sequence[T]]], T]
    lift: Callable[[T, Sequence[int]], T]


def _bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Bareiss over the integers, looking fraction_free_determinant up when
    called, so a wrapper installed on the module sees every call."""
    return fraction_free_determinant(rows, zero=0, one=1, exact_div=exact_int_div)


#: The integers, w = 1: weight sums are set sizes, products are one, and
#: blocks need no lift.
INTEGERS: Ring[int] = Ring(
    0, 1, lambda v: 1, len, lambda vertices: 1, exact_int_div, _bareiss,
    lambda value, labels: value,
)


def polynomial_ring(n: int) -> Ring[MultiPoly]:
    """The polynomials in x_1..x_n, w(v) = x_v.  The determinant is the
    diagonal product of a triangular matrix, the expansion otherwise."""
    zero, one = MultiPoly.zero(n), MultiPoly.const(n, 1)

    # both build one term map of exponent tuples valid by construction,
    # not a chain of additions or products
    def weight_sum(vertices: Collection[int]) -> MultiPoly:
        units = (tuple(int(i == v) for i in range(1, n + 1)) for v in vertices)
        return MultiPoly._of(n, dict.fromkeys(units, 1))

    def weight_product(vertices: Collection[int]) -> MultiPoly:
        exps = [0] * n
        for v in vertices:
            exps[v - 1] = 1
        return MultiPoly._of(n, {tuple(exps): 1})

    def det(rows: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
        if _is_upper_triangular(rows):
            return prod((row[i] for i, row in enumerate(rows)), start=one)
        return expansion_determinant(rows, zero=zero, one=one)

    return Ring(
        zero, one, lambda v: MultiPoly.variable(n, v), weight_sum, weight_product,
        lambda p, q: p.exact_div(q), det, lambda p, labels: p.lift(n, labels),
    )
