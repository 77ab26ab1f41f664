import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO

import pytest
from hypothesis import given, settings, strategies as st

import spantree.linalg as linalg
from spantree import (
    INTEGERS,
    Graph,
    MultiPoly,
    determinant,
    format_edge_list,
    is_upper_triangular,
    laplacian,
    matrix_tree_count,
    polynomial_ring,
    rank_one_update,
)
from spantree.cli import main
from sample_graphs import HOUSE_TAIL, random_graph

# Laplacian of the 6-vertex running example, written out in full.
HOUSE_TAIL_LAPLACIAN = [
    [2, -1, 0, -1, 0, 0],
    [-1, 4, -1, 0, -1, -1],
    [0, -1, 1, 0, 0, 0],
    [-1, 0, 0, 2, -1, 0],
    [0, -1, 0, -1, 3, -1],
    [0, -1, 0, 0, -1, 2],
]


def naive_determinant(m: list[list[int]]) -> int:
    if not m:
        return 1
    return sum(
        (-1) ** j * x * naive_determinant([row[:j] + row[j + 1 :] for row in m[1:]])
        for j, x in enumerate(m[0])
    )


def test_ragged_and_non_square_rows_are_rejected():
    checks = (
        determinant,
        lambda rows: linalg.fraction_free_determinant(
            rows, zero=0, one=1, exact_div=linalg.exact_int_div
        ),
        lambda rows: linalg.expansion_determinant(rows, zero=0, one=1),
        is_upper_triangular,
    )
    for rows in ([[1, 2], [3]], [[1, 2, 3], [4, 5, 6]], [[1], []], [[1, 2]], [[]]):
        for check in checks:
            with pytest.raises(ValueError, match="^matrix must be square$"):
                check(rows)


@pytest.mark.parametrize("ring", [INTEGERS, polynomial_ring(2)], ids=["int", "poly"])
def test_ring_determinant_rejects_ragged_rows(ring):
    with pytest.raises(ValueError):
        ring.det([[ring.weight(1)], []])


def test_determinant_converts_no_entries():
    # entries are used as given: a float or a string is not read as an int,
    # and a float is refused as input, not reported as an inexact division
    for rows in ([[2.9, 0], [0, "3"]], [[2.0, 0], [0, 3]], [[2.5, 0], [0, 3]]):
        with pytest.raises(TypeError, match="must be int"):
            determinant(rows)


def test_laplacian_of_running_example():
    assert laplacian(HOUSE_TAIL) == HOUSE_TAIL_LAPLACIAN


def test_laplacian_edge_cases():
    assert laplacian(Graph(3)) == [[0] * 3 for _ in range(3)]
    assert laplacian(Graph(2, [(1, 2)])) == [[1, -1], [-1, 1]]


def test_laplacian_invariants():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8))
        lap = laplacian(g)
        for i, row in enumerate(lap):
            assert sum(row) == 0
            assert [r[i] for r in lap] == row
        if g.n >= 1:
            assert determinant(lap) == 0


def test_minor_determinant_golden():
    def minor(m):
        return determinant([r[1:] for r in m[1:]])

    assert minor(HOUSE_TAIL_LAPLACIAN) == 11
    assert minor([[5]]) == 1  # empty determinant
    assert minor(laplacian(Graph(2, [(1, 2)]))) == 1


def test_determinant_special_cases():
    assert determinant([]) == 1
    assert linalg.expansion_determinant([], zero=0, one=1) == 1
    assert determinant([[0]]) == 0
    assert determinant([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    with pytest.raises(ValueError):
        determinant([[1, 2, 3], [4, 5, 6]])
    # zero column short-circuits
    assert determinant([[0, 1], [0, 2]]) == 0
    # a zero pivot on a symmetric matrix forces a swap, at step 0 or later
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[1, 1, 0], [1, 1, 1], [0, 1, 0]]) == -1
    assert determinant([[2, 1, 0], [1, 0, 0], [0, 0, 0]]) == 0


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(23)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert determinant(m) == naive_determinant(m)


def test_upper_triangular_determinant_is_diagonal_product():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [
            [rng.randint(-5, 5) if j >= i else 0 for j in range(n)] for i in range(n)
        ]
        assert is_upper_triangular(rows)
        expected = 1
        for i, r in enumerate(rows):
            expected *= r[i]
        assert determinant(rows) == expected


def test_is_upper_triangular():
    assert is_upper_triangular([[0] * 3 for _ in range(3)])
    assert is_upper_triangular([])
    assert not is_upper_triangular(HOUSE_TAIL_LAPLACIAN)
    with pytest.raises(ValueError):
        is_upper_triangular([[1, 2, 3], [4, 5, 6]])
    x1 = MultiPoly.variable(2, 1)
    assert is_upper_triangular([[x1, x1], [MultiPoly.zero(2), x1]])
    assert not is_upper_triangular([[x1, x1], [x1, x1]])


def test_rank_one_update():
    m = [[0] * 3 for _ in range(2)]
    out = rank_one_update(m, [1, 2], [3, 4, 5])
    assert out == [[3, 4, 5], [6, 8, 10]]
    assert rank_one_update(m, [0, 0], [1, 1, 1]) == m
    # a length mismatch raises instead of truncating
    for a, b in [([1, 2, 3], [1, 1, 1]), ([1], [1, 1, 1]), ([1, 2], [1, 1]), ([1, 2], [1] * 4)]:
        with pytest.raises(ValueError):
            rank_one_update(m, a, b)
    with pytest.raises(ValueError):
        rank_one_update([[1, 2], [3]], [1, 1], [1, 1])


def _count_divisions(monkeypatch, rows) -> tuple[int, int]:
    """The determinant of rows and the number of exact divisions it took."""
    calls = 0
    divide = linalg.exact_int_div

    def counted(num, den):
        nonlocal calls
        calls += 1
        return divide(num, den)

    monkeypatch.setattr(linalg, "exact_int_div", counted)
    det = determinant(rows)
    monkeypatch.undo()
    return det, calls


def test_symmetric_input_eliminates_the_upper_triangle_only(monkeypatch):
    g = random_graph(random.Random(5), 30, 0.4)
    tau = matrix_tree_count(g)
    lap = laplacian(g)
    n = len(lap)
    reduced = [row[1:] for row in lap[1:]]
    m = len(reduced)

    def two_step(d: int) -> int:
        # per sweep over pivots k, k+1: one for the pivot, then per row
        # i >= k+2 two multipliers and the d - i entries from column i on
        return sum(1 + sum(d - i + 2 for i in range(k + 2, d)) for k in range(0, d - 1, 2))

    assert _count_divisions(monkeypatch, reduced) == (tau, two_step(m))
    assert two_step(m) == 2331  # (m-1)m(m+1)/6 = 4060 one pivot at a time
    # L + 11^T is symmetric too: det = n^2 tau
    ones = [1] * n
    assert _count_divisions(monkeypatch, rank_one_update(lap, ones, ones)) == (
        n * n * tau, two_step(n)
    )
    assert two_step(n) == 2570
    # L + e_1 1^T is not: every entry right of the pivot column, det = n tau
    e1 = [1] + [0] * (n - 1)
    assert _count_divisions(monkeypatch, rank_one_update(lap, e1, ones)) == (
        n * tau, (n - 1) * n * (2 * n - 1) // 6
    )


@pytest.mark.parametrize(
    "g",
    [
        Graph(4, [(1, 3), (3, 4)]),  # isolated vertex 2: zero first pivot
        Graph(6, [(1, 2), (2, 3), (4, 5), (5, 6), (4, 6)]),  # zero last pivot
        Graph(7, [(1, 2), (3, 4), (4, 5), (6, 7)]),
        Graph(3),
    ],
)
def test_reduced_laplacian_of_a_disconnected_graph_is_singular(g):
    assert determinant([row[1:] for row in laplacian(g)[1:]]) == 0


@st.composite
def symmetric_matrices(draw, max_n=6):
    n = draw(st.integers(0, max_n))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        # a zero diagonal is drawn about half the time, so swaps are common
        rows[i][i] = draw(st.one_of(st.just(0), st.integers(-4, 4)))
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-4, 4))
    return rows


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_symmetric_determinant_matches_cofactor_expansion(rows):
    assert determinant(rows) == naive_determinant(rows)


def fraction_determinant(m: list[list[int]]) -> int:
    """Gaussian elimination over the rationals, with row swaps."""
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for row in a[k + 1 :]:
            f = row[k] / a[k][k]
            row[k:] = [x - f * y for x, y in zip(row[k:], a[k][k:])]
    assert det.denominator == 1
    return int(det)


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices(max_n=9))
def test_symmetric_determinant_up_to_9x9_matches_rational_elimination(rows):
    assert determinant(rows) == fraction_determinant(rows)


def _leading_minor(rows: list[list[int]], k: int) -> int:
    return fraction_determinant([row[:k] for row in rows[:k]])


@st.composite
def symmetric_with_leading_block(draw, block, parity):
    """A symmetric n x n matrix, n of the given parity up to 9, and an even
    k with k + 2 <= n.  Its leading (k+2) x (k+2) block is X^T B X, with X
    upper unitriangular and B = diag(e_1..e_k) (+) ``block``, the e_i drawn
    nonzero of either sign: so its leading minors of order j <= k + 2 are
    those of B, e_1..e_j for j <= k, and the two-step sweeps before k never
    meet a zero pivot.  The other entries are drawn freely."""
    n = 2 * draw(st.integers(1, 4)) + parity
    k = 2 * draw(st.integers(0, (n - 2) // 2))
    nonzero = st.integers(-4, 4).filter(bool)
    b = [[0] * (k + 2) for _ in range(k + 2)]
    for i in range(k):
        b[i][i] = draw(nonzero)
    for i, row in enumerate(block(draw), start=k):
        b[i][k : k + 2] = row
    x = [[int(i == j) or (draw(st.integers(-2, 2)) if j > i else 0) for j in range(k + 2)]
         for i in range(k + 2)]
    lead = [[sum(x[p][i] * b[p][q] * x[q][j] for p in range(k + 2) for q in range(k + 2))
             for j in range(k + 2)] for i in range(k + 2)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entry = lead[i][j] if j < k + 2 else draw(st.integers(-4, 4))
            rows[i][j] = rows[j][i] = entry
    return rows, k


def _singular_pair(draw):
    """diag(e, 0) or diag(0, e): a zero two-step pivot c0."""
    e = draw(st.integers(-4, 4))
    return [[e, 0], [0, 0]] if draw(st.booleans()) else [[0, 0], [0, e]]


def _zero_corner(draw):
    """[[0, q], [q, r]] with q nonzero: a zero a_kk but c0 = -q^2."""
    q = draw(st.integers(-3, 3).filter(bool))
    return [[0, q], [q, draw(st.integers(-3, 3))]]


def _mixed_signs(draw):
    """diag(e, -f), e and f positive: the whole matrix is indefinite."""
    return [[draw(st.integers(1, 4)), 0], [0, -draw(st.integers(1, 4))]]


@pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_two_step_falls_back_on_a_singular_leading_block(parity, data):
    # the sweep over pivots k, k+1 meets c0 = 0, and one-step elimination
    # with row swaps goes on from k with the same previous pivot
    rows, k = data.draw(symmetric_with_leading_block(_singular_pair, parity))
    assert len(rows) % 2 == parity
    assert _leading_minor(rows, k) != 0 and _leading_minor(rows, k + 2) == 0
    assert determinant(rows) == fraction_determinant(rows)


@pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_two_step_takes_a_zero_diagonal_pivot_with_a_nonzero_pair(parity, data):
    # a_kk = 0 would force a swap one pivot at a time; the pair needs none
    rows, k = data.draw(symmetric_with_leading_block(_zero_corner, parity))
    assert len(rows) % 2 == parity
    assert _leading_minor(rows, k + 1) == 0 and _leading_minor(rows, k + 2) != 0
    assert determinant(rows) == fraction_determinant(rows)


@pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_two_step_on_indefinite_input(parity, data):
    rows, k = data.draw(symmetric_with_leading_block(_mixed_signs, parity))
    # the ratios of successive leading minors are the pivots e and -f, so by
    # Jacobi's rule the leading block, and with it the matrix, is indefinite
    m0, m1, m2 = (_leading_minor(rows, j) for j in (k, k + 1, k + 2))
    assert m1 * m0 > 0 > m2 * m1
    assert determinant(rows) == fraction_determinant(rows)


@pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
@settings(max_examples=25, deadline=None)
@given(half=st.integers(1, 15), p=st.sampled_from((0.2, 0.4, 0.7, 1.0)),
       rng=st.randoms(use_true_random=False))
def test_count_matrix_tree_equals_perturbation(parity, half, p, rng, tmp_path_factory):
    # the cofactor has dimension n - 1, L + 11^T dimension n: one of each
    # parity for every n, so both ends of the two-step sweeps are checked
    g = random_graph(rng, 2 * half + parity, p)
    path = tmp_path_factory.mktemp("gnp") / "g.txt"
    path.write_text(format_edge_list(g))
    counts = []
    for method in ("matrix-tree", "perturbation"):
        with redirect_stdout(StringIO()) as out:
            assert main(["count", str(path), "--method", method, "--json"]) == 0
        counts.append(json.loads(out.getvalue())["count"])
    assert counts[0] == counts[1] == matrix_tree_count(g)
