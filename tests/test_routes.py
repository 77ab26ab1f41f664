"""Every counting route against every other on random graphs G(n, p) with
n <= 9, in both rings: ``reduce_and_route``, ``matrix-tree``, ``perturbation`` and
``oracle``, plus ``formula`` where ``route`` applies.  The oracle runs
within its edge guard (m <= 24) where it has few enough edge subsets to
be quick, and the weighted perturbation, whose expansion determinant
takes seconds on K8 and K9, up to seven vertices."""

import pytest
from hypothesis import given, settings

from spantree import (
    Graph,
    matrix_tree_count,
    oracle_count,
    perturbation_count,
    polynomial_ring,
    reduce_and_route,
    route,
    special_2_threshold_count,
    special_2_threshold_order,
    weighted_count_special_2threshold,
    weighted_matrix_tree_count,
    weighted_oracle,
    weighted_perturbation_count,
)
from sample_graphs import gnp_graphs, oracle_fits


@settings(max_examples=150, deadline=None)
@given(gnp_graphs())
def test_every_count_route_agrees(g):
    ones = [1] * g.n
    count, _, _ = reduce_and_route(g, special_2_threshold_count, matrix_tree_count)
    routes = {
        "matrix-tree": matrix_tree_count(g),
        "perturbation": perturbation_count(g, ones, ones),
    }
    routed = route(g)
    if routed is not None:
        routes["formula"] = special_2_threshold_count(g, routed[1])
    if oracle_fits(g):
        routes["oracle"] = oracle_count(g)
    assert routes == dict.fromkeys(routes, count)


@settings(max_examples=30, deadline=None)
@given(gnp_graphs())
def test_every_weighted_route_agrees(g):
    poly, _, routed = reduce_and_route(
        g,
        weighted_count_special_2threshold,
        weighted_matrix_tree_count,
        ring=polynomial_ring(g.n),
    )
    routes = {"matrix-tree": weighted_matrix_tree_count(g)}
    if routed is not None:
        routes["formula"] = weighted_count_special_2threshold(g, routed[1])
    if g.n <= 7:
        ones = [1] * g.n
        routes["perturbation"] = weighted_perturbation_count(g, ones, ones)
    if oracle_fits(g):
        routes["oracle"] = weighted_oracle(g)
    assert routes == dict.fromkeys(routes, poly)
    assert poly.substitute_all_ones() == matrix_tree_count(g)


@pytest.mark.parametrize("weighted", [False, True], ids=["integers", "polynomials"])
def test_every_route_refuses_the_null_graph(weighted):
    # the oracle and the cofactor need a vertex, and the formula and the
    # routing through it agree with them instead of counting zero
    g = Graph(0)
    if weighted:
        formula, cofactor = weighted_count_special_2threshold, weighted_matrix_tree_count
        perturbation, oracle = weighted_perturbation_count, weighted_oracle
    else:
        formula, cofactor = special_2_threshold_count, matrix_tree_count
        perturbation, oracle = perturbation_count, oracle_count
    kwargs = {"ring": polynomial_ring(0)} if weighted else {}
    co = special_2_threshold_order(g)
    for answer in (
        lambda: formula(g, co),
        lambda: reduce_and_route(g, formula, cofactor, **kwargs),
        lambda: reduce_and_route(g, formula, None, **kwargs),
        lambda: cofactor(g),
        lambda: perturbation(g, [], []),
        lambda: oracle(g),
    ):
        with pytest.raises(ValueError):
            answer()
