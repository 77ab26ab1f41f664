"""Splitting at cut vertices and bridges: ``blocks`` and the
``reduce_and_route`` step that answers each bridge by its edge weight and
each other block by its formula or its cofactor, in both rings."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import spantree.counting
from spantree import (
    Graph,
    MultiPoly,
    blocks,
    induced_subgraph,
    matrix_tree_count,
    oracle_count,
    perturbation_count,
    polynomial_ring,
    reduce_and_route,
    route,
    special_2_threshold_count,
    weighted_count_special_2threshold,
    weighted_matrix_tree_count,
    weighted_oracle,
    weighted_perturbation_count,
)
from sample_graphs import (
    C5,
    HOUSE_TAIL,
    K4,
    TWO_K2,
    glued_graphs,
    oracle_fits,
    relabeled,
    small_graphs,
)


def weighted_auto(g: Graph) -> tuple[MultiPoly, str]:
    poly, method, _ = reduce_and_route(
        g,
        weighted_count_special_2threshold,
        weighted_matrix_tree_count,
        ring=polynomial_ring(g.n),
    )
    return poly, method


def expected_method(g: Graph) -> str:
    routed = route(g)
    if routed is not None:
        return f"formula:{routed[0]}"
    parts = blocks(g)
    return "matrix-tree" if parts is not None and len(parts) == 1 else "blocks"


def test_blocks_of_small_graphs():
    house = (1, 2, 4, 5, 6)
    found = {labels: b for b, labels in blocks(HOUSE_TAIL)}
    assert sorted(found) == [house, (2, 3)]
    assert found[house] == induced_subgraph(HOUSE_TAIL, house)[0]
    assert found[(2, 3)] == Graph(2, [(1, 2)])
    assert blocks(K4) == [(K4, (1, 2, 3, 4))]
    assert blocks(C5) == [(C5, (1, 2, 3, 4, 5))]
    # a 2-connected graph is its own one block, not a copy
    assert blocks(K4)[0][0] is K4 and blocks(C5)[0][0] is C5
    assert blocks(Graph(1)) == [(Graph(1), (1,))]
    assert blocks(TWO_K2) is None
    assert blocks(Graph(3, [(1, 2)])) is None


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=9))
def test_blocks_match_networkx(g):
    parts = blocks(g)
    nxg = nx.Graph(g.edges())
    nxg.add_nodes_from(g.vertices)
    if not nx.is_connected(nxg):
        assert parts is None
        return
    if g.n == 1:
        assert parts == [(Graph(1), (1,))]
        return
    assert sorted(labels for _, labels in parts) == sorted(
        tuple(sorted(c)) for c in nx.biconnected_components(nxg)
    )
    for b, labels in parts:
        assert b == induced_subgraph(g, labels)[0]
    assert sum(b.edge_count for b, _ in parts) == g.edge_count


def test_blocks_of_a_long_path_need_no_recursion():
    n = 100_000
    parts = blocks(Graph(n, [(i, i + 1) for i in range(1, n)]))
    assert len(parts) == n - 1
    assert sorted(labels for _, labels in parts) == [(i, i + 1) for i in range(1, n)]
    assert all(b.edge_count == 1 for b, _ in parts)
    assert all(b is parts[0][0] for b, _ in parts)  # one shared K2


def test_reduce_and_route_without_a_cofactor_answers_members_only():
    with pytest.raises(ValueError):
        reduce_and_route(HOUSE_TAIL, special_2_threshold_count, None)
    count, method, routed = reduce_and_route(K4, special_2_threshold_count, None)
    assert (count, method, routed) == (16, "formula:threshold", route(K4))


def test_disconnected_graphs_count_zero_without_a_laplacian(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no Laplacian for a disconnected graph")

    monkeypatch.setattr(spantree.counting, "_laplacian_rows", refuse)
    for g in (TWO_K2, Graph(7, [(1, 2), (2, 3), (3, 4), (1, 4), (5, 6)])):
        assert reduce_and_route(g, special_2_threshold_count, refuse)[:2] == (0, "blocks")
        assert weighted_auto(g) == (MultiPoly.zero(g.n), "blocks")


def test_chain_of_triangles_needs_no_cofactor():
    # 1000 triangles, each sharing a vertex with the next: a 2001-vertex
    # graph whose whole-graph cofactor is a 2000 x 2000 Bareiss
    k = 1000
    edges = []
    for i in range(1, k + 1):
        a, b, c = 2 * i - 1, 2 * i, 2 * i + 1
        edges += [(a, b), (b, c), (a, c)]
    g = Graph(2 * k + 1, edges)

    def refuse(*args):
        raise AssertionError("every block is a triangle, which has a formula")

    assert reduce_and_route(g, special_2_threshold_count, refuse)[:2] == (3**k, "blocks")


def test_weighted_tree_is_the_degree_monomial(monkeypatch):
    rng = random.Random(7)
    tree = Graph(200, [(v, rng.randint(1, v - 1)) for v in range(2, 201)])
    routed = []
    whole = spantree.counting.route
    monkeypatch.setattr(spantree.counting, "route", lambda g: routed.append(g.n) or whole(g))
    poly, method = weighted_auto(tree)
    assert method == "blocks"
    assert routed == [200]  # every block is a bridge, answered by its edge weight
    assert poly == MultiPoly(200, {tuple(tree.degree(v) for v in tree.vertices): 1})


def cofactor_calls(g: Graph) -> tuple[list[int], list[int]]:
    """The sizes of the blocks that ``reduce_and_route`` hands its cofactor,
    in the integers and in the polynomial ring; both answers are checked
    against the whole-graph count."""
    calls = ([], [])

    def recording(cofactor, sizes):
        return lambda block: sizes.append(block.n) or cofactor(block)

    count, _, _ = reduce_and_route(
        g, special_2_threshold_count, recording(matrix_tree_count, calls[0])
    )
    poly, _, _ = reduce_and_route(
        g,
        weighted_count_special_2threshold,
        recording(weighted_matrix_tree_count, calls[1]),
        ring=polynomial_ring(g.n),
    )
    assert poly.substitute_all_ones() == count == matrix_tree_count(g)
    return calls


def test_bridges_need_no_cofactor():
    rng = random.Random(11)
    tree = Graph(200, [(v, rng.randint(1, v - 1)) for v in range(2, 201)])
    assert cofactor_calls(tree) == ([], [])
    # triangles 1-2-3 and 4-5-6, the cycle 7..11 and the path 12-13-14,
    # joined by the bridges 3-4, 6-7 and 11-12: only the C5 has no formula
    g = Graph(14, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6), (6, 7),
                   (7, 8), (8, 9), (9, 10), (10, 11), (7, 11), (11, 12), (12, 13),
                   (13, 14)])
    assert cofactor_calls(g) == ([5], [5])


def test_weighted_blocks_multiply_with_the_bridge_monomial():
    # triangles 1-2-3 and 4-5-6 joined by the bridge 3-4
    g = Graph(6, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6)])
    triangle = weighted_oracle(Graph(3, [(1, 2), (2, 3), (1, 3)]))
    bridge = MultiPoly(6, {(0, 0, 1, 1, 0, 0): 1})
    expected = triangle.lift(6, (1, 2, 3)) * bridge * triangle.lift(6, (4, 5, 6))
    assert weighted_auto(g) == (expected, "blocks")
    assert expected == weighted_oracle(g)


@settings(max_examples=120, deadline=None)
@given(glued_graphs())
def test_glued_graphs_all_count_routes_agree(g):
    count, method, _ = reduce_and_route(g, special_2_threshold_count, matrix_tree_count)
    assert method == expected_method(g)
    assert count == matrix_tree_count(g)
    assert count == perturbation_count(g, [1] * g.n, [1] * g.n)
    if oracle_fits(g):
        assert count == oracle_count(g)


@settings(max_examples=60, deadline=None)
@given(glued_graphs())
def test_glued_graphs_all_weighted_routes_agree(g):
    poly, method = weighted_auto(g)
    assert method == expected_method(g)
    assert poly == weighted_matrix_tree_count(g)
    assert poly.substitute_all_ones() == matrix_tree_count(g)
    assert poly == weighted_perturbation_count(g, [1] * g.n, [1] * g.n)
    if oracle_fits(g):
        assert poly == weighted_oracle(g)


@settings(max_examples=80, deadline=None)
@given(glued_graphs(), st.randoms(use_true_random=False))
def test_decomposed_answers_invariant_under_relabeling(g, rng):
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    h = relabeled(g, perm)
    count = reduce_and_route(g, special_2_threshold_count, matrix_tree_count)[:2]
    assert reduce_and_route(h, special_2_threshold_count, matrix_tree_count)[:2] == count
    poly, method = weighted_auto(g)
    assert weighted_auto(h) == (poly.lift(g.n, perm), method)


def test_the_null_graph_has_no_blocks():
    assert blocks(Graph(0)) == []
