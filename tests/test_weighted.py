import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from spantree import (
    ExactMatrix,
    Graph,
    MultiPoly,
    complete,
    expansion_determinant,
    ferrers_graph,
    ferrers_structure,
    fraction_free_determinant,
    matrix_tree_count,
    minor_determinant,
    oracle_count,
    perturbation_count,
    special_2_threshold_order,
    threshold_order,
    u_threshold_order,
    weighted_build_perturbation,
    weighted_cayley_prufer,
    weighted_count_ferrers,
    weighted_count_special_2threshold,
    weighted_count_threshold,
    weighted_degree,
    weighted_laplacian,
    weighted_matrix_tree_count,
    weighted_oracle,
    weighted_perturbation_count,
)
from spantree.linalg import exact_int_div
from spantree.poly import poly_prod
from spantree.weighted import PolyMatrix
from sample_graphs import (
    FERRERS3221,
    HOUSE_TAIL,
    K4,
    K23,
    SPECIAL5,
    SPECIAL5_U,
    THRESHOLD5,
    atlas_graphs,
    partitions_up_to,
    random_graph,
    threshold_graph_from_bits,
)


def x(n, i):
    return MultiPoly.variable(n, i)


def test_weighted_laplacian_goldens():
    k2 = Graph(2, [(1, 2)])
    lap = weighted_laplacian(k2)
    x1x2 = x(2, 1) * x(2, 2)
    assert lap.entry(1, 1) == x1x2
    assert lap.entry(1, 2) == -x1x2
    assert lap.entry(2, 1) == -x1x2
    assert lap.entry(2, 2) == x1x2

    empty = weighted_laplacian(Graph(3))
    assert all(empty.entry(i, j).is_zero() for i in (1, 2, 3) for j in (1, 2, 3))

    k3 = complete(3)
    assert weighted_degree(k3, 1) == x(3, 1) * x(3, 2) + x(3, 1) * x(3, 3)
    assert weighted_laplacian(k3).entry(1, 1) == weighted_degree(k3, 1)


def test_weighted_oracle_goldens():
    k3 = complete(3)
    expected = x(3, 1) * x(3, 2) * x(3, 3) * (x(3, 1) + x(3, 2) + x(3, 3))
    assert weighted_oracle(k3) == expected

    path = Graph(3, [(1, 2), (2, 3)])
    assert weighted_oracle(path) == x(3, 1) * x(3, 2) * x(3, 2) * x(3, 3)

    assert weighted_oracle(Graph(2)).is_zero()
    assert weighted_oracle(Graph(1)) == MultiPoly.const(1, 1)


def test_weighted_perturbation_matches_oracle():
    k3 = complete(3)
    ones = [1, 1, 1]
    assert weighted_perturbation_count(k3, ones, ones) == weighted_oracle(k3)
    assert weighted_perturbation_count(Graph(1), [1], [1]) == MultiPoly.const(1, 1)
    rng = random.Random(61)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 6), 0.6)
        ones = [1] * g.n
        assert weighted_perturbation_count(g, ones, ones) == weighted_oracle(g)


def test_weighted_perturbation_specializes_to_integers():
    rng = random.Random(67)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 6), 0.5)
        while True:
            a = [rng.randint(-3, 3) for _ in range(g.n)]
            b = [rng.randint(-3, 3) for _ in range(g.n)]
            if sum(a) and sum(b):
                break
        poly = weighted_perturbation_count(g, a, b)
        assert poly.substitute_all_ones() == perturbation_count(g, a, b)


def test_weighted_perturbation_rejects_zero_sums():
    n2 = Graph(2, [(1, 2)])
    zero = MultiPoly.zero(2)
    with pytest.raises(ValueError):
        weighted_perturbation_count(n2, [zero, zero], [1, 1])
    with pytest.raises(ValueError):
        weighted_perturbation_count(n2, [1], [1, 1])


def test_weighted_build_perturbation_golden():
    co = u_threshold_order(SPECIAL5, SPECIAL5_U)
    a, b, m = weighted_build_perturbation(SPECIAL5, co)
    assert m.is_upper_triangular()
    n = SPECIAL5.n
    dom_u = co.u_dominating_vertices() & co.u_set
    for pos, v in enumerate(co.order, 1):
        expected = weighted_degree(SPECIAL5, v)
        if v in dom_u:
            expected = expected + x(n, v) * x(n, v)
        assert m.entry(pos, pos) == expected
    diag_product = poly_prod(n, m.diagonal())
    denominator = len(co.u_dominating_vertices()) * len(co.u_set)
    assert diag_product.substitute_all_ones() == denominator * 8
    assert m.determinant() == diag_product


def test_weighted_build_perturbation_edgeless():
    g = Graph(3)
    co = u_threshold_order(g, ())
    a, b, m = weighted_build_perturbation(g, co)
    assert m.is_upper_triangular()
    assert all(entry.is_zero() for entry in m.diagonal())


def test_weighted_cayley_prufer():
    n3 = weighted_cayley_prufer(3)
    assert n3 == weighted_oracle(complete(3))
    assert n3.terms() == (
        ((2, 1, 1), 1),
        ((1, 2, 1), 1),
        ((1, 1, 2), 1),
    )
    assert weighted_cayley_prufer(2) == x(2, 1) * x(2, 2)
    assert weighted_cayley_prufer(1) == MultiPoly.const(1, 1)
    assert weighted_cayley_prufer(4).substitute_all_ones() == 16
    for n in range(1, 6):
        assert weighted_cayley_prufer(n) == weighted_oracle(complete(n)), n


def test_weighted_threshold_matches_oracle_up_to_six():
    for n in range(1, 7):
        for bits in range(1 << max(0, n - 1)):
            g = threshold_graph_from_bits(n, bits)
            co = threshold_order(g)
            assert weighted_count_threshold(g, co) == weighted_oracle(g), (n, bits)


def test_weighted_threshold_golden():
    co = threshold_order(THRESHOLD5)
    poly = weighted_count_threshold(THRESHOLD5, co)
    assert poly.substitute_all_ones() == 8
    with pytest.raises(ValueError):
        weighted_count_threshold(SPECIAL5, u_threshold_order(SPECIAL5, SPECIAL5_U))


def test_weighted_ferrers_matches_oracle():
    for shape in partitions_up_to(8):
        g = ferrers_graph(shape)
        assert weighted_count_ferrers(shape) == weighted_oracle(g), shape


def test_weighted_ferrers_goldens():
    poly = weighted_count_ferrers((3, 2, 2, 1))
    assert poly.substitute_all_ones() == 12
    fs = ferrers_structure(FERRERS3221)
    assert weighted_count_ferrers(fs) == weighted_oracle(FERRERS3221)
    assert weighted_count_ferrers(fs).substitute_all_ones() == 12


def test_weighted_special_matches_oracle_up_to_six():
    hits = 0
    for g in atlas_graphs(6):
        found = special_2_threshold_order(g)
        if found is None:
            continue
        hits += 1
        _, co = found
        assert weighted_count_special_2threshold(g, co) == weighted_oracle(g), g
    assert hits > 50


def test_weighted_special_golden():
    co = u_threshold_order(SPECIAL5, SPECIAL5_U)
    poly = weighted_count_special_2threshold(SPECIAL5, co)
    assert poly == weighted_oracle(SPECIAL5)
    assert poly.substitute_all_ones() == 8


def test_weighted_reductions():
    # threshold inputs: the U = V form collapses to the threshold form
    for g in (THRESHOLD5, K4):
        co = threshold_order(g)
        assert weighted_count_special_2threshold(g, co) == weighted_count_threshold(g, co)
    # staircase inputs: the U = columns form collapses to the division-free form
    for g in (FERRERS3221, K23):
        fs = ferrers_structure(g)
        co = fs.construction_order()
        assert weighted_count_special_2threshold(g, co) == weighted_count_ferrers(fs)


def test_weighted_special_degenerate():
    g = Graph(3)
    co = u_threshold_order(g, {2})
    assert weighted_count_special_2threshold(g, co).is_zero()
    single = Graph(1)
    co1 = u_threshold_order(single, ())
    assert weighted_count_special_2threshold(single, co1) == MultiPoly.const(1, 1)


def test_specialization_to_unweighted_counts():
    for g in (HOUSE_TAIL, K4, K23, THRESHOLD5, SPECIAL5, FERRERS3221):
        tau = matrix_tree_count(g)
        assert weighted_oracle(g).substitute_all_ones() == oracle_count(g) == tau
        ones = [1] * g.n
        assert weighted_perturbation_count(g, ones, ones).substitute_all_ones() == tau


def test_poly_matrix_determinant_matches_integer_determinant():
    from spantree import ExactMatrix, determinant

    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        pm = PolyMatrix([[MultiPoly.const(0, v) for v in row] for row in rows])
        expected = determinant(ExactMatrix(rows))
        assert pm.determinant() == MultiPoly.const(0, expected)


def test_poly_matrix_validation():
    with pytest.raises(ValueError):
        PolyMatrix([[MultiPoly.zero(2)], [MultiPoly.zero(2), MultiPoly.zero(2)]])
    with pytest.raises(ValueError):
        PolyMatrix([[MultiPoly.zero(2), MultiPoly.zero(3)]])
    pm = PolyMatrix([[MultiPoly.const(1, 7)]])
    assert pm.entry(1, 1) == MultiPoly.const(1, 7)
    with pytest.raises(ValueError):
        pm.entry(2, 1)


# -- the weighted Kirchhoff cofactor ----------------------------------------


def _relabeled(g, perm):
    """g with vertex v renamed perm[v - 1]."""
    return Graph(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges()])


def _renamed_variables(poly, perm):
    """poly with x_v renamed x_perm[v - 1]."""
    terms = {}
    for exps, coeff in poly.terms():
        moved = [0] * poly.nvars
        for v, e in enumerate(exps, 1):
            moved[perm[v - 1] - 1] = e
        terms[tuple(moved)] = coeff
    return MultiPoly(poly.nvars, terms)


def _value_at(poly, point):
    total = 0
    for exps, coeff in poly.terms():
        for base, e in zip(point, exps):
            coeff *= base**e
        total += coeff
    return total


def test_weighted_matrix_tree_goldens():
    assert weighted_matrix_tree_count(Graph(1)) == MultiPoly.const(1, 1)
    assert weighted_matrix_tree_count(Graph(2)).is_zero()
    assert weighted_matrix_tree_count(Graph(4, [(1, 2), (3, 4)])).is_zero()
    k3 = complete(3)
    assert weighted_matrix_tree_count(k3) == x(3, 1) * x(3, 2) * x(3, 3) * (
        x(3, 1) + x(3, 2) + x(3, 3)
    )
    path = Graph(3, [(1, 2), (2, 3)])
    assert weighted_matrix_tree_count(path) == x(3, 1) * x(3, 2) * x(3, 2) * x(3, 3)
    with pytest.raises(ValueError):
        weighted_matrix_tree_count(Graph(0))


def test_weighted_matrix_tree_matches_oracle_and_perturbation():
    # the perturbation's polynomial Bareiss takes seconds past ~8 edges
    rng = random.Random(73)
    graphs = [Graph(1), Graph(3), Graph(4, [(1, 2), (3, 4)]), HOUSE_TAIL]
    for _ in range(40):
        n = rng.randint(1, 7)
        pairs = list(combinations(range(1, n + 1), 2))
        m = rng.randint(0, min(len(pairs), 8))
        graphs.append(Graph(n, rng.sample(pairs, m)))
    assert any(not g.edge_count for g in graphs[4:])
    for g in graphs:
        ones = [1] * g.n
        poly = weighted_matrix_tree_count(g)
        assert poly == weighted_oracle(g), g
        assert poly == weighted_perturbation_count(g, ones, ones), g


def test_weighted_matrix_tree_matches_oracle_on_every_graph_up_to_six():
    for g in atlas_graphs(6):
        assert weighted_matrix_tree_count(g) == weighted_oracle(g), g


def test_weighted_matrix_tree_relabeling_permutes_variables():
    rng = random.Random(79)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 8), 0.5)
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        expected = _renamed_variables(weighted_matrix_tree_count(g), perm)
        assert weighted_matrix_tree_count(_relabeled(g, perm)) == expected, (g, perm)


def test_weighted_matrix_tree_specializes_to_counts():
    rng = random.Random(83)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 9), 0.45)
        assert weighted_matrix_tree_count(g).substitute_all_ones() == matrix_tree_count(g), g


def test_weighted_matrix_tree_at_a_point_n10():
    # beyond the oracle's reach: compare with the integer cofactor of the
    # weighted Laplacian evaluated at a random point
    rng = random.Random(89)
    for p in (0.3, 0.5):
        g = random_graph(rng, 10, p)
        point = [rng.randint(1, 9) for _ in range(g.n)]
        lap = ExactMatrix(
            [
                [
                    point[i - 1] * sum(point[w - 1] for w in g.neighbors(i))
                    if i == j
                    else (-point[i - 1] * point[j - 1] if g.has_edge(i, j) else 0)
                    for j in g.vertices
                ]
                for i in g.vertices
            ]
        )
        poly = weighted_matrix_tree_count(g)
        assert _value_at(poly, point) == minor_determinant(lap, 1, 1)
        assert poly.substitute_all_ones() == matrix_tree_count(g)


def test_expansion_determinant_goldens():
    assert expansion_determinant([], zero=0, one=1) == 1
    assert expansion_determinant([[0, 1], [1, 0]], zero=0, one=1) == -1
    assert expansion_determinant([[0, 0, 2], [0, 3, 0], [5, 0, 0]], zero=0, one=1) == -30
    assert expansion_determinant([[1, 2], [2, 4]], zero=0, one=1) == 0
    with pytest.raises(ValueError):
        expansion_determinant([[1, 2]], zero=0, one=1)


def test_expansion_determinant_over_polynomials():
    rng = random.Random(101)
    for _ in range(20):
        n = rng.randint(1, 4)
        rows = [
            [
                MultiPoly(2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)})
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        zero, one = MultiPoly.zero(2), MultiPoly.const(2, 1)
        assert expansion_determinant(rows, zero=zero, one=one) == PolyMatrix(rows).determinant()


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, chosen) if keep])


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_weighted_matrix_tree_property(g):
    poly = weighted_matrix_tree_count(g)
    assert poly == weighted_oracle(g)
    assert poly.substitute_all_ones() == matrix_tree_count(g)


# zeros drawn often, so sparse matrices exercise the skipped entries
_entries = st.one_of(st.just(0), st.integers(-9, 9))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.lists(
            st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_expansion_determinant_matches_bareiss(rows):
    expected = fraction_free_determinant(rows, zero=0, one=1, exact_div=exact_int_div)
    assert expansion_determinant(rows, zero=0, one=1) == expected
