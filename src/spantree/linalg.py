"""Exact dense linear algebra over Python's arbitrary-precision integers.

The determinant uses fraction-free (Bareiss) elimination: every division is
by the previous pivot and is exact in the underlying integral domain, so no
rational arithmetic ever appears.  The elimination core is generic so the
weighted module can reuse it over polynomial entries.  A division-free
expansion determinant serves small polynomial matrices, where an exact
polynomial division costs more than the exponential number of minors.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from .errors import ExactnessError
from .graph import Graph

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
    return fraction_free_determinant(m._data, zero=0, one=1, exact_div=exact_int_div)


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
    return fraction_free_determinant(rows, zero=0, one=1, exact_div=exact_int_div)


def is_upper_triangular(m: ExactMatrix) -> bool:
    """True when every entry strictly below the diagonal is zero."""
    if not m.is_square:
        raise ValueError(f"triangularity needs a square matrix, got {m.rows}x{m.cols}")
    return all(
        m._data[i][j] == 0 for i in range(1, m.rows) for j in range(i)
    )


def rank_one_update(m: ExactMatrix, a: Sequence[int], b: Sequence[int]) -> ExactMatrix:
    """m plus the outer product of column vector a and row vector b."""
    if len(a) != m.rows or len(b) != m.cols:
        raise ValueError(
            f"vector lengths {len(a)}, {len(b)} do not match {m.rows}x{m.cols}"
        )
    return ExactMatrix(
        [[x + ai * bj for x, bj in zip(row, b)] for row, ai in zip(m._data, a)]
    )


def laplacian(g: Graph) -> ExactMatrix:
    """Degree matrix minus adjacency matrix: entry (i, i) is deg(i), entry
    (i, j) is -1 iff {i, j} is an edge."""
    data = []
    for i in g.vertices:
        nbrs = g.neighbors(i)
        data.append(
            [len(nbrs) if i == j else (-1 if j in nbrs else 0) for j in g.vertices]
        )
    return ExactMatrix(data)
