import random
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from spantree import (
    Graph,
    MultiPoly,
    PartitionShape,
    TriangularityError,
    build_perturbation,
    complete,
    determinant,
    expansion_determinant,
    ferrers_graph,
    ferrers_structure,
    fraction_free_determinant,
    is_upper_triangular,
    matrix_tree_count,
    oracle_count,
    perturbation_count,
    special_2_threshold_order,
    threshold_order,
    u_threshold_order,
    weighted_build_perturbation,
    weighted_count_ferrers,
    weighted_count_special_2threshold,
    weighted_count_threshold,
    weighted_laplacian,
    weighted_matrix_tree_count,
    weighted_oracle,
    weighted_perturbation_count,
)
import spantree.counting
from spantree.linalg import INTEGERS, _laplacian_rows, exact_int_div, polynomial_ring
from sample_graphs import (
    FERRERS3221,
    HOUSE_TAIL,
    K4,
    K23,
    SPECIAL5,
    SPECIAL5_U,
    THRESHOLD5,
    atlas_graphs,
    labelled_special_members,
    partitions_up_to,
    random_graph,
    relabeled,
    small_graphs,
    threshold_graph_from_bits,
    weighted_cayley_prufer,
)


def x(n, i):
    return MultiPoly.variable(n, i)


def test_weighted_laplacian_goldens():
    k2 = Graph(2, [(1, 2)])
    x1x2 = x(2, 1) * x(2, 2)
    assert weighted_laplacian(k2) == [[x1x2, -x1x2], [-x1x2, x1x2]]

    empty = weighted_laplacian(Graph(3))
    assert len(empty) == 3
    assert all(len(row) == 3 and all(p.is_zero() for p in row) for row in empty)

    assert weighted_laplacian(complete(3))[0][0] == x(3, 1) * x(3, 2) + x(3, 1) * x(3, 3)


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
    with pytest.raises(ValueError):
        weighted_perturbation_count(n2, [1, -1], [1, 1])
    with pytest.raises(ValueError):
        weighted_perturbation_count(n2, [1], [1, 1])
    # the vectors are integers, so the divisor is one
    with pytest.raises(TypeError):
        weighted_perturbation_count(n2, [1, 1], [1, MultiPoly.variable(2, 1)])


def test_weighted_build_perturbation_golden():
    co = u_threshold_order(SPECIAL5, SPECIAL5_U)
    a, b, rows = weighted_build_perturbation(SPECIAL5, co)
    assert is_upper_triangular(rows)
    n = SPECIAL5.n
    dom_u = co.u_dominating_vertices() & co.u_set
    for pos, v in enumerate(co.order):
        expected = x(n, v) * sum((x(n, w) for w in SPECIAL5.neighbors(v)), MultiPoly.zero(n))
        if v in dom_u:
            expected = expected + x(n, v) * x(n, v)
        assert rows[pos][pos] == expected
    diag_product = prod((row[i] for i, row in enumerate(rows)), start=MultiPoly.const(n, 1))
    denominator = len(co.u_dominating_vertices()) * len(co.u_set)
    assert diag_product.substitute_all_ones() == denominator * 8
    assert polynomial_ring(n).det(rows) == diag_product


def test_weighted_build_perturbation_edgeless():
    g = Graph(3)
    co = u_threshold_order(g, ())
    a, b, rows = weighted_build_perturbation(g, co)
    assert is_upper_triangular(rows)
    assert all(row[i].is_zero() for i, row in enumerate(rows))
    assert polynomial_ring(g.n).det(rows).is_zero()


def test_polynomial_det_of_a_triangular_perturbation_is_linear(monkeypatch):
    # the expansion walks columns, so an upper-triangular matrix costs one
    # product per column: its diagonal product
    g = threshold_graph_from_bits(12, 0b10010000001)
    _, _, rows = weighted_build_perturbation(g, threshold_order(g))
    diag_product = prod((row[i] for i, row in enumerate(rows)), start=MultiPoly.const(g.n, 1))
    calls = []
    mul = MultiPoly.__mul__
    monkeypatch.setattr(MultiPoly, "__mul__", lambda p, q: calls.append(1) or mul(p, q))
    assert polynomial_ring(g.n).det(rows) == diag_product
    assert len(calls) <= g.n


def _build_outcome(build, g, co):
    try:
        return build(g, co)
    except (TriangularityError, ValueError) as exc:
        return type(exc)


def test_perturbation_builders_agree_across_rings():
    # the weighted perturbation at x = 1 is the integer one, on every
    # labelled special 2-threshold graph up to five vertices and on orders
    # tampered by a swap of neighbours, a flipped role or a toggled U-vertex
    pairs = labelled_special_members(5)
    assert len(pairs) == 774
    raised = 0
    for g, co in pairs:
        orders = [co]
        for i in range(g.n - 1):
            order = list(co.order)
            order[i], order[i + 1] = order[i + 1], order[i]
            orders.append(co._replace(order=tuple(order)))
        for i in range(1, g.n):
            flipped = "isolated" if co.roles[i] == "u_dominating" else "u_dominating"
            orders.append(co._replace(roles=co.roles[:i] + (flipped,) + co.roles[i + 1 :]))
        for v in g.vertices:
            orders.append(co._replace(u_set=co.u_set ^ {v}))
        for k, order in enumerate(orders):
            plain = _build_outcome(build_perturbation, g, order)
            weighted = _build_outcome(weighted_build_perturbation, g, order)
            if isinstance(plain, type):
                assert k and weighted is plain, (g, order)
                raised += 1
                continue
            (a, b, m), (wa, wb, rows) = plain, weighted
            assert len(m) == len(rows) == g.n
            assert all(len(row) == g.n for row in m + rows)
            assert is_upper_triangular(m) and is_upper_triangular(rows), (g, order)
            assert [p.substitute_all_ones() for p in wa] == list(a)
            assert [p.substitute_all_ones() for p in wb] == list(b)
            assert [
                [p.substitute_all_ones() for p in row] for row in rows
            ] == m, (g, order)
    assert raised > len(pairs)


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


def test_weighted_ferrers_of_a_relabeled_staircase():
    # a recognized structure's enumerator is its shape's, relabeled: checked
    # in both orientations, on shuffled labels
    rng = random.Random(13)
    for shape in partitions_up_to(7):
        for conjugate in (False, True):
            g = ferrers_graph(PartitionShape(shape).conjugate() if conjugate else shape)
            perm = list(g.vertices)
            rng.shuffle(perm)
            h = relabeled(g, perm)
            assert weighted_count_ferrers(ferrers_structure(h)) == weighted_oracle(h), (shape, perm)


def test_weighted_ferrers_goldens():
    poly = weighted_count_ferrers((3, 2, 2, 1))
    assert poly.substitute_all_ones() == 12
    fs = ferrers_structure(FERRERS3221)
    assert weighted_count_ferrers(fs) == weighted_oracle(FERRERS3221)
    assert weighted_count_ferrers(fs).substitute_all_ones() == 12


def test_weighted_special_matches_oracle_up_to_six():
    hits = 0
    for g in atlas_graphs(6):
        co = special_2_threshold_order(g)
        if co is None:
            continue
        hits += 1
        assert weighted_count_special_2threshold(g, co) == weighted_oracle(g), g
    assert hits > 50


def test_weighted_special_golden():
    co = u_threshold_order(SPECIAL5, SPECIAL5_U)
    poly = weighted_count_special_2threshold(SPECIAL5, co)
    assert poly == weighted_oracle(SPECIAL5)
    assert poly.substitute_all_ones() == 8


def test_weighted_reductions():
    # threshold inputs: the U = V form gives the enumerator
    for g in (THRESHOLD5, K4):
        co = threshold_order(g)
        assert weighted_count_special_2threshold(g, co) == weighted_oracle(g)
    # staircase inputs: so does the U = columns form
    for g in (FERRERS3221, K23):
        co = ferrers_structure(g).construction_order()
        assert weighted_count_special_2threshold(g, co) == weighted_oracle(g)


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
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        poly_rows = [[MultiPoly.const(0, v) for v in row] for row in rows]
        expected = determinant(rows)
        assert polynomial_ring(0).det(poly_rows) == MultiPoly.const(0, expected)


# -- the weighted Kirchhoff cofactor ----------------------------------------


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
    rng = random.Random(73)
    graphs = [Graph(1), Graph(3), Graph(4, [(1, 2), (3, 4)]), HOUSE_TAIL]
    for _ in range(40):
        n = rng.randint(1, 7)
        pairs = list(combinations(range(1, n + 1), 2))
        m = rng.randint(0, len(pairs))
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
        assert weighted_matrix_tree_count(relabeled(g, perm)) == expected, (g, perm)


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
        lap = [
            [
                point[i - 1] * sum(point[w - 1] for w in g.neighbors(i))
                if i == j
                else (-point[i - 1] * point[j - 1] if g.has_edge(i, j) else 0)
                for j in g.vertices
            ]
            for i in g.vertices
        ]
        poly = weighted_matrix_tree_count(g)
        assert _value_at(poly, point) == determinant([r[1:] for r in lap[1:]])
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
        # the Leibniz sum over all permutations is the independent,
        # division-free reference
        leibniz = zero
        for perm in permutations(range(n)):
            term = prod((row[j] for row, j in zip(rows, perm)), start=one)
            odd = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2)) & 1
            leibniz = leibniz - term if odd else leibniz + term
        assert expansion_determinant(rows, zero=zero, one=one) == leibniz


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_weighted_matrix_tree_property(g):
    poly = weighted_matrix_tree_count(g)
    assert poly == weighted_oracle(g)
    assert poly.substitute_all_ones() == matrix_tree_count(g)


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_every_cofactor_is_the_count(g):
    # Kirchhoff: deleting any vertex r's row and column gives the same
    # determinant, in both rings, disconnected graphs included
    for ring, count in ((INTEGERS, matrix_tree_count(g)),
                        (polynomial_ring(g.n), weighted_matrix_tree_count(g))):
        for r in g.vertices:
            rest = [v for v in g.vertices if v != r]
            assert ring.det(_laplacian_rows(g, rest, ring)) == count, r


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


def test_perturbations_refuse_rows_that_are_not_triangular(monkeypatch):
    # every valid order gives triangular rows, so the check is reached only
    # with the triangularity test forced to fail
    co = threshold_order(THRESHOLD5)
    monkeypatch.setattr(spantree.counting, "is_upper_triangular", lambda rows: False)
    for build in (build_perturbation, weighted_build_perturbation):
        with pytest.raises(TriangularityError):
            build(THRESHOLD5, co)
