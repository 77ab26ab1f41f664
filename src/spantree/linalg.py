"""Exact dense linear algebra, and the ring every count lives in.

A matrix is the list of its rows, in every ring.  A ``Ring`` holds what
the generic routes need: zero, one, the vertex weight w(v) with its sums
and products, exact division by an integer, the determinant and the lift
of a block's value.  ``INTEGERS`` is w = 1 and ``polynomial_ring(n)`` is
w = x_v, so the Laplacian, the triangular check, the rank-one update, the
formula, the cofactor and the perturbation count are each written once.
The integer determinant is fraction-free (Bareiss) elimination, every
division exact; a symmetric matrix, such as a reduced Laplacian, is
eliminated two pivots per sweep on its upper triangle only: about n^3/12
exact divisions, against n^3/6 one pivot at a time and n^3/3 for a general
matrix.  The polynomial determinant is the division-free expansion, so no
polynomial is ever divided by another.
"""

from __future__ import annotations

from typing import Callable, Collection, NamedTuple, Sequence, TypeVar

from .errors import ExactnessError
from .graph import Graph
from .poly import MultiPoly

T = TypeVar("T")


def exact_int_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ExactnessError(f"{num} is not divisible by {den}")
    return q


def _square_size(rows: Sequence[Sequence[object]]) -> int:
    """The row count of a square matrix; ValueError on ragged or non-square rows."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    return n


def fraction_free_determinant(
    rows: Sequence[Sequence[T]],
    *,
    zero: T,
    one: T,
    exact_div: Callable[[T, T], T],
) -> T:
    """Determinant of a square matrix over an integral domain.

    Bareiss condensation: after step k entry (i, j) is the minor of rows
    {0..k, i} and columns {0..k, j} of the original matrix, and the
    division by the previous pivot is exact.  That minor is symmetric in i
    and j when the matrix is, so a symmetric matrix (a reduced Laplacian,
    L + 11^T) has each row computed from its diagonal on, reading a[i][k]
    as a[k][i], and takes pivots k and k + 1 in one sweep (Bareiss's
    two-step form, Math. Comp. 22, 1968): with p, q, r the entries
    a[k][k], a[k][k+1], a[k+1][k+1], the new pivot is
    c0 = (p r - q^2) / prev, row i gets c1 = (q a[k][i] - p a[k+1][i]) /
    prev and c2 = (q a[k+1][i] - r a[k][i]) / prev, and entry (i, j)
    becomes (a[i][j] c0 + a[k+1][j] c1 + a[k][j] c2) / prev: three
    products and one exact division per entry per two pivots, about n^3/12
    divisions in all, against the n^3/6 of one pivot a sweep and the
    (n-1)n(2n-1)/6, about n^3/3, of a general matrix.  An even dimension
    ends with c0, an odd one with the last diagonal entry.  A zero c0
    (never on a connected graph's reduced Laplacian, which is positive
    definite) ends the sweeps: the trailing upper triangle is copied into
    the lower one, and the one-step elimination with row swaps, where a
    non-symmetric matrix starts, goes on from step k with the same prev.
    Entries must support ``*``, ``-``, ``+`` and ``==`` and be falsy
    exactly when zero.  The 0x0 determinant is one (empty product).
    """
    n = _square_size(rows)
    if n == 0:
        return one
    a = [list(r) for r in rows]
    prev, k = one, 0
    if all(tuple(row) == column for row, column in zip(a, zip(*a))):
        while k + 1 < n:
            row_k, row_l = a[k], a[k + 1]
            p, q, r = row_k[k], row_k[k + 1], row_l[k + 1]
            c0 = exact_div(p * r - q * q, prev)
            if not c0:
                for i in range(k + 1, n):
                    a[i][k:i] = [a[j][i] for j in range(k, i)]
                break
            for i in range(k + 2, n):
                row_i, x, y = a[i], row_k[i], row_l[i]
                c1 = exact_div(q * x - p * y, prev)
                c2 = exact_div(y * q - r * x, prev)
                row_i[i:] = [
                    exact_div(z * c0 + u * c1 + v * c2, prev)
                    for z, u, v in zip(row_i[i:], row_l[i:], row_k[i:])
                ]
            prev, k = c0, k + 2
        else:
            return prev if k == n else a[k][k]
    negate = False
    for k in range(k, n - 1):
        if not a[k][k]:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return zero
            a[k], a[pivot] = a[pivot], a[k]
            negate = not negate
        row_k = a[k]
        pk = row_k[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            row_i[k + 1:] = [
                exact_div(pk * x - aik * y, prev)
                for x, y in zip(row_i[k + 1:], row_k[k + 1:])
            ]
        prev = pk
    det = a[n - 1][n - 1]
    return -det if negate else det


def expansion_determinant(rows: Sequence[Sequence[T]], *, zero: T, one: T) -> T:
    """Determinant of a square matrix over a commutative ring, division free.

    Laplace expansion along the columns, memoised on the set of rows the
    columns so far have taken: after column j, ``partial[S]`` is the signed
    sum of the products choosing the rows S for columns 1..j.  Zero entries
    and zero partial sums are skipped, so a sparse matrix reaches few sets,
    and an upper-triangular one, whose column j is zero below row j, reaches
    one set per column: the diagonal product.  The worst case is 2**n sets.
    Entries must support ``*``, ``+`` and ``-`` and be falsy exactly when
    zero.  The 0x0 determinant is one.
    """
    n = _square_size(rows)
    partial = {0: one}
    for column in zip(*rows):
        grown: dict[int, T] = {}
        for used, value in partial.items():
            if not value:
                continue
            for i, entry in enumerate(column):
                bit = 1 << i
                if used & bit or not entry:
                    continue
                term = entry * value
                key = used | bit
                prev = grown.get(key)
                # each used row below i is one inversion
                if (used >> i).bit_count() & 1:
                    grown[key] = -term if prev is None else prev - term
                else:
                    grown[key] = term if prev is None else prev + term
        partial = grown
    return partial.get((1 << n) - 1, zero)


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by Bareiss, the determinant of ``INTEGERS``;
    raises TypeError on an entry that is not an int and ValueError on ragged
    or non-square rows.  fraction_free_determinant is looked up when called,
    so a wrapper installed on the module sees every call."""
    if bad := [x for row in rows for x in row if not isinstance(x, int)]:
        raise TypeError(f"determinant entries must be int, got {bad[0]!r}")
    return fraction_free_determinant(rows, zero=0, one=1, exact_div=exact_int_div)


def is_upper_triangular(rows: Sequence[Sequence[T]]) -> bool:
    """True when no entry strictly below the diagonal is nonzero, over any
    ring; raises ValueError on ragged or non-square rows."""
    n = _square_size(rows)
    return not any(rows[i][j] for i in range(1, n) for j in range(i))


def rank_one_update(
    rows: Sequence[Sequence[T]], a: Sequence[T], b: Sequence[T]
) -> list[list[T]]:
    """rows plus the outer product a b^T, over any ring; raises ValueError
    unless a has one entry per row and b one per column."""
    if len(a) != len(rows) or any(len(r) != len(b) for r in rows):
        raise ValueError(f"vector lengths {len(a)}, {len(b)} do not match the rows")
    return [[x + ai * bj for x, bj in zip(row, b)] for row, ai in zip(rows, a)]


def _laplacian_rows(g: Graph, order: Sequence[int], ring: Ring[T]) -> list[list[T]]:
    """Rows and columns of L(G; w) for the vertices of ``order``, over any
    ring: entry (u, u) is w(u) times the sum of w(v) over N(u), entry (u, v)
    is -w(u) w(v) on an edge.  Leaving vertices out of ``order`` gives a
    principal submatrix."""
    w = {v: ring.weight(v) for v in g.vertices}
    pos = {v: j for j, v in enumerate(order)}
    rows = []
    for u in order:
        nbrs = g.neighbors(u)
        row = [ring.zero] * len(order)
        for v in nbrs:
            if v in pos:
                row[pos[v]] = -(w[u] * w[v])
        row[pos[u]] = w[u] * ring.weight_sum(nbrs)
        rows.append(row)
    return rows


def laplacian(g: Graph) -> list[list[int]]:
    """The rows of the degree matrix minus the adjacency matrix: entry
    (i, i) is deg(i), entry (i, j) is -1 iff {i, j} is an edge.  L(G; w)
    with w = 1."""
    return _laplacian_rows(g, g.vertices, INTEGERS)


class Ring(NamedTuple):
    """The ring of a count: ``weight(v)`` is w(v), ``weight_sum`` and
    ``weight_product`` add and multiply w over distinct vertices, ``div``
    divides exactly by a nonzero int or raises ExactnessError, ``det`` is
    the determinant of a list of square rows, and ``lift(value, labels)``
    moves a block's value to the whole graph, block vertex i renamed
    labels[i-1]."""

    zero: T
    one: T
    weight: Callable[[int], T]
    weight_sum: Callable[[Collection[int]], T]
    weight_product: Callable[[Collection[int]], T]
    div: Callable[[T, int], T]
    det: Callable[[Sequence[Sequence[T]]], T]
    lift: Callable[[T, Sequence[int]], T]


#: The integers, w = 1: weight sums are set sizes, products are one, and
#: blocks need no lift.
INTEGERS: Ring[int] = Ring(
    0, 1, lambda v: 1, len, lambda vertices: 1, exact_int_div, determinant,
    lambda value, labels: value,
)


def polynomial_ring(n: int) -> Ring[MultiPoly]:
    """The polynomials in x_1..x_n, w(v) = x_v; the determinant is the
    expansion."""
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

    return Ring(
        zero, one, lambda v: MultiPoly.variable(n, v), weight_sum, weight_product,
        lambda p, q: p.exact_div(q),
        lambda rows: expansion_determinant(rows, zero=zero, one=one),
        lambda p, labels: p.lift(n, labels),
    )
