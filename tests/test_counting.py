import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import spantree.counting
from spantree import (
    CapabilityExceededError,
    ConstructionOrder,
    ExactnessError,
    Graph,
    MultiPoly,
    build_perturbation,
    complete,
    complete_multipartite,
    determinant,
    ferrers_count,
    ferrers_graph,
    ferrers_structure,
    is_upper_triangular,
    matrix_tree_count,
    multipartite_count,
    oracle_count,
    perturbation_count,
    reduce_and_route,
    spanning_trees,
    special_2_threshold_count,
    special_2_threshold_order,
    threshold_count,
    threshold_order,
    u_threshold_order,
    weighted_count_special_2threshold,
    weighted_matrix_tree_count,
)
from spantree.linalg import exact_int_div
from spantree.recognition import derive_roles
from sample_graphs import (
    C5,
    FERRERS3221,
    HOUSE_TAIL,
    HOUSE_TAIL_TAU,
    K4,
    K23,
    SPECIAL5,
    SPECIAL5_U,
    SPECIAL26,
    SPECIAL26_TAU,
    THRESHOLD5,
    TWO_K2,
    atlas_graphs,
    construction_orders,
    labelled_special_members,
    merris_count,
    partitions_up_to,
    random_graph,
    relabeled,
    scan_order,
    small_graphs,
    threshold_graph_from_bits,
)


# -- the oracle -----------------------------------------------------------------


def test_oracle_goldens():
    assert oracle_count(HOUSE_TAIL) == HOUSE_TAIL_TAU
    path = Graph(4, [(1, 2), (2, 3), (3, 4)])
    assert oracle_count(path) == 1
    assert oracle_count(TWO_K2) == 0
    assert oracle_count(Graph(1)) == 1


def test_spanning_tree_enumeration():
    c4 = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    trees = list(spanning_trees(c4))
    assert len(trees) == 4
    assert all(len(t) == 3 for t in trees)
    assert len(set(trees)) == 4
    assert list(spanning_trees(Graph(1))) == [()]


def test_oracle_guard():
    k8 = complete(8)  # 28 edges
    with pytest.raises(CapabilityExceededError):
        oracle_count(k8)
    assert oracle_count(k8, max_edges=28) == 8**6


def test_oracle_refuses_a_negative_limit():
    # a negative limit is a bad value, not a graph that is too large
    with pytest.raises(ValueError, match="nonnegative"):
        oracle_count(Graph(1), max_edges=-5)
    with pytest.raises(ValueError, match="nonnegative"):
        list(spanning_trees(Graph(1), max_edges=-5))


# -- cofactor route ----------------------------------------------------------------


def test_matrix_tree_goldens():
    assert matrix_tree_count(HOUSE_TAIL) == 11
    assert matrix_tree_count(Graph(1)) == 1
    assert matrix_tree_count(K4) == 16


def test_oracle_matches_matrix_tree_exhaustively():
    for g in atlas_graphs(7):
        assert oracle_count(g) == matrix_tree_count(g), g


def test_oracle_matches_matrix_tree_on_random_graphs():
    rng = random.Random(17)
    done = 0
    while done < 60:
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        if g.edge_count > 20:
            continue
        assert oracle_count(g) == matrix_tree_count(g)
        done += 1


# -- rank-one perturbations ----------------------------------------------------------


def test_perturbation_count_goldens():
    co = threshold_order(THRESHOLD5)
    a, b, m = build_perturbation(THRESHOLD5, co)
    assert determinant(m) == 80
    assert perturbation_count(THRESHOLD5, _reorder(a, co.order), _reorder(b, co.order)) == 8

    k3 = complete(3)
    assert perturbation_count(k3, [1, 1, 1], [1, 1, 1]) == 3
    from spantree import laplacian, rank_one_update

    assert determinant(rank_one_update(laplacian(k3), [1, 1, 1], [1, 1, 1])) == 27


def _reorder(vec, order):
    """Map a vector indexed by order position back to vertex labels."""
    out = [0] * len(order)
    for pos, v in enumerate(order):
        out[v - 1] = vec[pos]
    return out


def test_perturbation_count_rejects_zero_sums():
    with pytest.raises(ValueError):
        perturbation_count(K4, [1, -1, 0, 0], [1, 1, 1, 1])
    with pytest.raises(ValueError):
        perturbation_count(K4, [1, 1, 1, 1], [0, 0, 0, 0])
    # vectors of the wrong length are refused, not truncated
    for a, b in [([1, 1, 1], [1, 1, 1, 1]), ([1, 1, 1, 1], [1, 1, 1, 1, 1])]:
        with pytest.raises(ValueError):
            perturbation_count(K4, a, b)


@pytest.mark.parametrize("entry", [1.0, "1", MultiPoly.const(4, 1)], ids=["float", "str", "poly"])
def test_perturbation_count_rejects_non_int_entries(entry, monkeypatch):
    # the divisor (sum a)(sum b) must be an integer, so the entries are;
    # a bad one is refused before the Laplacian is built
    monkeypatch.setattr(spantree.counting, "_laplacian_rows", lambda *a, **k: pytest.fail("built"))
    for a, b in (([entry, 1, 1, 1], [1] * 4), ([1] * 4, [1, 1, entry, 1])):
        with pytest.raises(TypeError):
            perturbation_count(K4, a, b)


def test_perturbation_count_is_vector_independent():
    rng = random.Random(29)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 7), 0.5)
        expected = matrix_tree_count(g)
        while True:
            a = [rng.randint(-4, 4) for _ in range(g.n)]
            b = [rng.randint(-4, 4) for _ in range(g.n)]
            if sum(a) and sum(b):
                break
        assert perturbation_count(g, a, b) == expected


def test_build_perturbation_threshold_golden():
    co = threshold_order(THRESHOLD5)
    a, b, m = build_perturbation(THRESHOLD5, co)
    assert a == (0, 0, 1, 0, 1)
    assert b == (1, 1, 1, 1, 1)
    assert [r[i] for i, r in enumerate(m)] == [2, 2, 4, 1, 5]
    assert is_upper_triangular(m)
    assert determinant(m) == 80


def test_build_perturbation_ferrers_golden():
    fs = ferrers_structure(FERRERS3221)
    co = fs.construction_order()
    a, b, m = build_perturbation(FERRERS3221, co)
    assert a == (0, 1, 0, 1, 1, 0, 1)
    assert b == (1, 0, 1, 0, 0, 1, 0)
    assert [r[i] for i, r in enumerate(m)] == [4, 1, 3, 2, 2, 1, 3]
    assert determinant(m) == 144
    assert exact_int_div(144, 4 * 3) == 12


def test_build_perturbation_always_triangular_with_diagonal_determinant():
    rng = random.Random(37)
    from sample_graphs import random_u_threshold_instance

    for _ in range(60):
        g, u = random_u_threshold_instance(rng, rng.randint(1, 9))
        co = u_threshold_order(g, u)
        a, b, m = build_perturbation(g, co)
        assert is_upper_triangular(m)
        prod = 1
        for i, r in enumerate(m):
            prod *= r[i]
        assert determinant(m) == prod
        if sum(a) and sum(b):
            assert prod == sum(a) * sum(b) * matrix_tree_count(g)


def test_build_perturbation_degenerate_edgeless():
    g = Graph(3)
    co = u_threshold_order(g, ())
    a, b, m = build_perturbation(g, co)
    assert a == (0, 0, 0)
    assert is_upper_triangular(m)
    with pytest.raises(ValueError):
        perturbation_count(g, a, b)  # zero vector sum: the quotient is undefined


def test_build_perturbation_rejects_foreign_orders():
    co = threshold_order(THRESHOLD5)
    with pytest.raises(ValueError):
        build_perturbation(SPECIAL5, co)


def test_exact_int_div():
    assert exact_int_div(-12, 3) == -4
    with pytest.raises(ExactnessError):
        exact_int_div(7, 2)


# -- closed forms -----------------------------------------------------------------


def test_complete_count():
    # K_n is K_{1,...,1}: one and two vertices count one tree, else n**(n-2)
    assert multipartite_count([1]) == 1
    assert multipartite_count([1] * 2) == 1
    assert multipartite_count([1] * 4) == 16
    assert multipartite_count([1] * 5) == 125
    with pytest.raises(ValueError):
        multipartite_count([1] * 0)


def test_bipartite_count():
    # K_{m,n} has m**(n-1) * n**(m-1) spanning trees
    assert multipartite_count((2, 3)) == 12
    assert multipartite_count((1, 1)) == 1
    with pytest.raises(ValueError):
        multipartite_count((0, 2))


def test_multipartite_count():
    assert multipartite_count([1, 1, 1, 1]) == 16
    assert multipartite_count([1]) == 1
    assert multipartite_count([3]) == 0
    with pytest.raises(ValueError):
        multipartite_count([])


def test_complete_formula_agrees_with_matrix_tree():
    for n in range(1, 9):
        assert multipartite_count([1] * n) == matrix_tree_count(complete(n)) == n ** max(n - 2, 0)


def test_multipartite_formula_agrees_with_matrix_tree():
    for sizes in partitions_up_to(8):
        g = complete_multipartite(sizes)
        assert multipartite_count(sizes) == matrix_tree_count(g), sizes


def test_threshold_count_goldens():
    co = threshold_order(THRESHOLD5)
    assert threshold_count(THRESHOLD5, co) == 8
    k1 = Graph(1)
    assert threshold_count(k1, threshold_order(k1)) == 1
    k3 = complete(3)
    assert threshold_count(k3, threshold_order(k3)) == 3
    assert oracle_count(k3) == 3
    with pytest.raises(ValueError):
        threshold_count(SPECIAL5, u_threshold_order(SPECIAL5, SPECIAL5_U))


def test_threshold_formula_agrees_with_matrix_tree_up_to_eight():
    for n in range(1, 9):
        for bits in range(1 << max(0, n - 1)):
            g = threshold_graph_from_bits(n, bits)
            co = threshold_order(g)
            assert co is not None
            assert threshold_count(g, co) == matrix_tree_count(g), (n, bits)


def test_ferrers_count_goldens():
    assert ferrers_count((3, 2, 2, 1)) == 12
    assert ferrers_count((1,)) == 1
    assert ferrers_count((2, 2)) == 4
    assert oracle_count(ferrers_graph((2, 2))) == 4
    fs = ferrers_structure(FERRERS3221)
    assert ferrers_count(fs) == 12


def test_ferrers_formula_agrees_with_matrix_tree():
    for shape in partitions_up_to(12):
        assert ferrers_count(shape) == matrix_tree_count(ferrers_graph(shape)), shape


def test_special_count_goldens():
    co = u_threshold_order(SPECIAL5, SPECIAL5_U)
    assert special_2_threshold_count(SPECIAL5, co) == 8
    # the searched-for subset gives the same count
    co2 = special_2_threshold_order(SPECIAL5)
    assert special_2_threshold_count(SPECIAL5, co2) == 8


def test_special_count_reductions():
    co = threshold_order(THRESHOLD5)
    assert special_2_threshold_count(THRESHOLD5, co) == merris_count(THRESHOLD5, co) == 8
    fs = ferrers_structure(FERRERS3221)
    assert special_2_threshold_count(FERRERS3221, fs.construction_order()) == ferrers_count(fs) == 12


def test_special_count_degenerate_edgeless():
    g = Graph(3)
    co = u_threshold_order(g, {1})
    assert special_2_threshold_count(g, co) == 0
    single = Graph(1)
    assert special_2_threshold_count(single, u_threshold_order(single, ())) == 1


def test_special_formula_agrees_with_matrix_tree():
    for g in atlas_graphs(7):
        co = special_2_threshold_order(g)
        if co is None:
            continue
        assert special_2_threshold_count(g, co) == matrix_tree_count(g), g
    rng = random.Random(53)
    hits = 0
    for _ in range(200):
        g = random_graph(rng, 8, rng.choice([0.25, 0.5, 0.75]))
        co = special_2_threshold_order(g)
        if co is None:
            continue
        hits += 1
        assert special_2_threshold_count(g, co) == matrix_tree_count(g)
    assert hits > 5


# -- the one formula, in both rings -------------------------------------------------

#: (degree-product formula, Kirchhoff cofactor) per ring.
RINGS = {
    "int": (special_2_threshold_count, matrix_tree_count),
    "poly": (weighted_count_special_2threshold, weighted_matrix_tree_count),
}


@pytest.mark.parametrize("ring", RINGS)
def test_one_formula_on_every_labelled_member_up_to_five(ring):
    formula, cofactor = RINGS[ring]
    members = labelled_special_members(5)
    assert len(members) == 774
    for g, co in members:
        assert formula(g, co) == cofactor(g), g


@pytest.mark.parametrize("ring", RINGS)
def test_one_formula_does_not_depend_on_the_order(ring):
    formula, _ = RINGS[ring]
    rng = random.Random(107)
    for g, co in labelled_special_members(5):
        orders = construction_orders(g, co, rng)
        assert len({formula(g, o) for o in orders}) == 1, (g, orders)


@pytest.mark.parametrize("ring", RINGS)
def test_one_formula_members_with_an_isolated_vertex_count_zero(ring):
    formula, cofactor = RINGS[ring]
    g = Graph(3, [(1, 2)])
    # the isolated U-vertex 3 comes after the last u_dominating vertex 2, so
    # 2's factor is deg + 1 = 2, not |U| = 3
    late = ConstructionOrder(
        (1, 2, 3), frozenset({1, 2, 3}), ("initial", "u_dominating", "isolated")
    )
    k4_plus = Graph(5, combinations(range(1, 5), 2))
    for h, co in [
        (g, late),
        (g, threshold_order(g)),
        (g, u_threshold_order(g, {1, 2})),
        (k4_plus, threshold_order(k4_plus)),
        (k4_plus, scan_order(k4_plus, {1, 2, 3, 4}, min)),
    ]:
        assert not formula(h, co), (h, co)
        assert not cofactor(h)


@pytest.mark.parametrize("ring", RINGS)
def test_one_formula_rejects_tampered_orders(ring):
    formula, _ = RINGS[ring]
    for g, co in [
        (SPECIAL5, u_threshold_order(SPECIAL5, SPECIAL5_U)),
        (THRESHOLD5, threshold_order(THRESHOLD5)),
        (FERRERS3221, ferrers_structure(FERRERS3221).construction_order()),
    ]:
        expected = formula(g, co)
        tampered = []
        for i, j in combinations(range(g.n), 2):
            order = list(co.order)
            order[i], order[j] = order[j], order[i]
            swapped = co._replace(order=tuple(order))
            if derive_roles(g, order, co.u_set) == list(co.roles):
                assert formula(g, swapped) == expected  # still a valid order
            else:
                tampered.append(swapped)
        for i in range(1, g.n):
            flipped = "isolated" if co.roles[i] == "u_dominating" else "u_dominating"
            tampered.append(co._replace(roles=co.roles[:i] + (flipped,) + co.roles[i + 1 :]))
        assert len(tampered) > g.n
        for bad in tampered:
            with pytest.raises(ValueError):
                formula(g, bad)



@pytest.mark.parametrize("ring", RINGS)
def test_one_formula_checks_the_factors_it_drops(ring, monkeypatch):
    # 1, 2 u_dominating, 3 isolated, 4 u_dominating: 4's factor is |U| = 4;
    # the isolated vertex 3 has one neighbor, so naming it z must fail
    formula, cofactor = RINGS[ring]
    g = Graph(4, [(1, 2), (1, 4), (2, 4), (3, 4)])
    co = threshold_order(g)
    assert (co.order, co.roles[2]) == ((1, 2, 3, 4), "isolated")
    assert formula(g, co) == cofactor(g)
    monkeypatch.setattr(ConstructionOrder, "last_u_dominating_vertex", lambda self: 3)
    with pytest.raises(ExactnessError, match="vertex 3"):
        formula(g, co)

# -- dispatch -----------------------------------------------------------------------


def test_uthreshold8_all_routes_agree():
    from sample_graphs import UTHRESHOLD8, UTHRESHOLD8_TAU, UTHRESHOLD8_U

    assert matrix_tree_count(UTHRESHOLD8) == UTHRESHOLD8_TAU
    assert oracle_count(UTHRESHOLD8) == UTHRESHOLD8_TAU
    found = special_2_threshold_order(UTHRESHOLD8)
    assert found is not None and found.u_set == UTHRESHOLD8_U
    assert special_2_threshold_count(UTHRESHOLD8, found) == UTHRESHOLD8_TAU
    co = u_threshold_order(UTHRESHOLD8, UTHRESHOLD8_U)
    assert special_2_threshold_count(UTHRESHOLD8, co) == UTHRESHOLD8_TAU


def test_auto_count_routes():
    # the house with a tail splits into the house and a bridge; C5 does not split
    cases = [
        (HOUSE_TAIL, oracle_count(HOUSE_TAIL), "blocks"),
        (C5, oracle_count(C5), "matrix-tree"),
        (THRESHOLD5, 8, "formula:threshold"),
        (FERRERS3221, 12, "formula:ferrers"),
        (SPECIAL5, 8, "formula:special-2-threshold"),
        (K4, 16, "formula:threshold"),
        (K23, 12, "formula:ferrers"),
    ]
    for g, count, method in cases:
        assert reduce_and_route(g, special_2_threshold_count, matrix_tree_count)[:2] == (
            count, method
        )


def test_auto_count_runs_the_u_search_past_24_vertices():
    assert reduce_and_route(SPECIAL26, special_2_threshold_count, matrix_tree_count)[:2] == (
        SPECIAL26_TAU, "formula:special-2-threshold"
    )
    assert matrix_tree_count(SPECIAL26) == SPECIAL26_TAU
    # the path contains 2K2: not a member, so its 29 bridges answer
    path = Graph(30, [(i, i + 1) for i in range(1, 30)])
    assert reduce_and_route(path, special_2_threshold_count, matrix_tree_count)[:2] == (
        oracle_count(path, max_edges=29), "blocks"
    )


@settings(max_examples=80, deadline=None)
@given(small_graphs(max_n=8), st.randoms(use_true_random=False))
def test_auto_count_invariant_under_relabeling(g, rng):
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    count = reduce_and_route(g, special_2_threshold_count, matrix_tree_count)[:2]
    assert reduce_and_route(
        relabeled(g, perm), special_2_threshold_count, matrix_tree_count
    )[:2] == count


_weights = st.integers(-5, 5)


@settings(max_examples=80, deadline=None)
@given(
    small_graphs(max_n=6).flatmap(
        lambda g: st.tuples(
            st.just(g),
            st.lists(_weights, min_size=g.n, max_size=g.n).filter(sum),
            st.lists(_weights, min_size=g.n, max_size=g.n).filter(sum),
        )
    )
)
def test_perturbation_count_does_not_depend_on_a_and_b(case):
    g, a, b = case
    assert perturbation_count(g, a, b) == matrix_tree_count(g)
