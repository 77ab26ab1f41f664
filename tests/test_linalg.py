import random

import pytest
from hypothesis import given, settings, strategies as st

import spantree.linalg as linalg
from spantree import (
    INTEGERS,
    Graph,
    MultiPoly,
    determinant,
    is_upper_triangular,
    laplacian,
    matrix_tree_count,
    polynomial_ring,
    rank_one_update,
)
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
    for rows in ([[1, 2], [3]], [[1, 2, 3], [4, 5, 6]], [[1], []]):
        with pytest.raises(ValueError):
            determinant(rows)
        with pytest.raises(ValueError):
            is_upper_triangular(rows)


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
    # (m-1)m(m+1)/6 divisions: row i of step k runs from column i, not k+1
    assert _count_divisions(monkeypatch, reduced) == (tau, (m - 1) * m * (m + 1) // 6)
    assert (m - 1) * m * (m + 1) // 6 == 4060
    # L + 11^T is symmetric too: det = n^2 tau
    ones = [1] * n
    assert _count_divisions(monkeypatch, rank_one_update(lap, ones, ones)) == (
        n * n * tau, (n - 1) * n * (n + 1) // 6
    )
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
