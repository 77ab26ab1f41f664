import random

import pytest

from spantree import (
    CapabilityExceededError,
    ConstructionOrder,
    Graph,
    OrderInconsistencyError,
    canonical_order,
    complete,
    complete_multipartite,
    ferrers_graph,
    ferrers_structure,
    forbidden_witness,
    nesting_report,
    special_2_threshold_order,
    threshold_order,
    u_threshold_obstruction,
    u_threshold_order,
)
import spantree.recognition
from spantree.recognition import FAMILY_PATTERNS, PATTERNS, derive_roles
from sample_graphs import (
    C5,
    FERRERS3221,
    HOUSE_TAIL,
    K4,
    SPECIAL5,
    SPECIAL5_U,
    THRESHOLD5,
    TWO_K2,
    UTHRESHOLD8,
    UTHRESHOLD8_U,
    atlas_graphs,
    partitions_up_to,
    random_graph,
    random_u_threshold_instance,
)


# -- construction orders ----------------------------------------------------


def test_threshold_order_golden():
    co = threshold_order(THRESHOLD5)
    assert co is not None
    assert co.order == (1, 5, 2, 3, 4)
    assert co.roles == ("initial", "isolated", "u_dominating", "isolated", "u_dominating")
    assert co.u_set == frozenset({1, 2, 3, 4, 5})
    co.check(THRESHOLD5)


def test_threshold_order_failures_and_trivia():
    assert threshold_order(SPECIAL5) is None
    for n in (1, 2, 5):
        co = threshold_order(complete(n))
        assert co is not None
        co.check(complete(n))


def test_u_threshold_order_golden():
    co = u_threshold_order(SPECIAL5, SPECIAL5_U)
    assert co is not None
    assert co.order == (1, 5, 2, 3, 4)
    assert co.roles == (
        "initial", "u_dominating", "u_dominating", "isolated", "u_dominating",
    )
    co.check(SPECIAL5)
    assert co.u_dominating_vertices() == frozenset({5, 2, 4})


def test_u_threshold_order_edge_cases():
    empty = Graph(4)
    co = u_threshold_order(empty, ())
    assert co is not None
    assert co.order == (1, 2, 3, 4)
    assert co.roles == ("initial", "isolated", "isolated", "isolated")
    with pytest.raises(ValueError):
        u_threshold_order(empty, {9})


def test_u_threshold_obstruction():
    for u in (frozenset(), frozenset({1, 2}), frozenset({1, 2, 3, 4})):
        assert u_threshold_order(TWO_K2, u) is None
        stuck = u_threshold_obstruction(TWO_K2, u)
        assert stuck is not None
        # certificate: no vertex of the stuck set is removable within it
        for v in stuck:
            inside = TWO_K2.neighbors(v) & stuck
            assert inside and inside != (stuck - {v}) & u
    assert u_threshold_obstruction(SPECIAL5, SPECIAL5_U) is None


def test_greedy_confluence_under_random_tie_breaks():
    rng = random.Random(5)
    for _ in range(80):
        g, u = random_u_threshold_instance(rng, rng.randint(1, 9))
        for seed in range(4):
            pick = random.Random(seed).choice
            co = u_threshold_order(g, u, tie_break=pick)
            assert co is not None
            co.check(g)


def test_roles_are_sound_on_random_instances():
    rng = random.Random(12)
    for _ in range(60):
        g, u = random_u_threshold_instance(rng, rng.randint(2, 10))
        co = u_threshold_order(g, u)
        assert co is not None
        assert derive_roles(g, co.order, co.u_set) == list(co.roles)
        co.check(g)


# -- the U-search -------------------------------------------------------------


def test_special_search_on_running_examples():
    found = special_2_threshold_order(SPECIAL5)
    assert found is not None
    u, co = found
    co.check(SPECIAL5)
    assert co.u_set == u
    # candidates are scanned in a fixed order, so the result is reproducible
    assert u == frozenset({1, 3, 4, 5})
    assert co.order == (1, 5, 2, 3, 4)

    found8 = special_2_threshold_order(UTHRESHOLD8)
    assert found8 is not None
    # the fixture's intended subset is itself valid, whatever the search returned
    assert u_threshold_order(UTHRESHOLD8, UTHRESHOLD8_U) is not None

    assert special_2_threshold_order(C5) is None


def test_special_search_returns_whole_vertex_set_for_threshold_inputs():
    found = special_2_threshold_order(THRESHOLD5)
    assert found is not None
    assert found[0] == THRESHOLD5.vertex_set()


def test_special_search_capability_guard():
    big = Graph(25)
    with pytest.raises(CapabilityExceededError):
        special_2_threshold_order(big)
    found = special_2_threshold_order(big, max_vertices=25)
    assert found is not None  # edgeless is threshold


# -- forbidden subgraphs ------------------------------------------------------


def test_forbidden_witness_goldens():
    w = forbidden_witness(SPECIAL5, "threshold")
    assert w is not None
    assert w.pattern_name == "P4"
    assert w.vertices == (1, 2, 3, 4)

    assert forbidden_witness(SPECIAL5, "special-2-threshold") is None
    assert forbidden_witness(K4, "threshold") is None

    w = forbidden_witness(TWO_K2, "special-2-threshold")
    assert w is not None
    assert w.pattern_name == "2K2"
    assert w.vertices == (1, 2, 3, 4)

    w = forbidden_witness(HOUSE_TAIL, "special-2-threshold")
    assert w is not None
    assert w.pattern_name == "House"
    assert set(w.vertices) == {1, 2, 4, 5, 6}


def test_forbidden_witness_ferrers_preconditions():
    with pytest.raises(ValueError):
        forbidden_witness(K4, "ferrers")  # odd cycle
    with pytest.raises(ValueError):
        forbidden_witness(TWO_K2, "ferrers")  # disconnected
    path = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
    w = forbidden_witness(path, "ferrers")
    assert w is not None and w.pattern_name == "2K2"
    assert forbidden_witness(ferrers_graph((3, 1)), "ferrers") is None
    with pytest.raises(ValueError):
        forbidden_witness(K4, "no-such-family")


def test_each_pattern_is_its_own_witness():
    for family, names in FAMILY_PATTERNS.items():
        if family == "ferrers":
            continue
        for name in names:
            masks = PATTERNS[name]
            n = len(masks)
            edges = [
                (u + 1, v + 1)
                for u in range(n)
                for v in range(u + 1, n)
                if masks[u] >> v & 1
            ]
            g = Graph(n, edges)
            w = forbidden_witness(g, family)
            assert w is not None
            assert w.pattern_name == name
            assert w.vertices == tuple(g.vertices)


def test_witness_subsets_induce_the_named_pattern():
    from spantree.recognition import _isomorphic, _local_adjacency

    rng = random.Random(3)
    hits = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(4, 8), 0.45)
        for family in ("threshold", "special-2-threshold"):
            w = forbidden_witness(g, family)
            if w is None:
                continue
            hits += 1
            assert _isomorphic(PATTERNS[w.pattern_name], _local_adjacency(g, w.vertices))
    assert hits > 50


# -- agreement of the characterizations ---------------------------------------


def test_threshold_agreement_exhaustive_up_to_seven():
    for g in atlas_graphs(7):
        has_order = threshold_order(g) is not None
        clean = forbidden_witness(g, "threshold") is None
        assert has_order == clean, g


def test_special_agreement_exhaustive_up_to_seven():
    for g in atlas_graphs(7):
        found = special_2_threshold_order(g) is not None
        clean = forbidden_witness(g, "special-2-threshold") is None
        assert found == clean, g


def test_special_agreement_random_eight_vertex():
    rng = random.Random(88)
    for _ in range(150):
        g = random_graph(rng, 8, rng.choice([0.2, 0.4, 0.6, 0.8]))
        found = special_2_threshold_order(g) is not None
        clean = forbidden_witness(g, "special-2-threshold") is None
        assert found == clean, g


# -- Ferrers recognition -------------------------------------------------------


def test_ferrers_structure_golden():
    fs = ferrers_structure(FERRERS3221)
    assert fs is not None
    assert fs.shape.parts == (3, 2, 2, 1)
    assert fs.row_order == (4, 5, 6, 7)
    assert fs.col_order == (1, 2, 3)
    assert fs.traversal == (1, 7, 2, 6, 5, 3, 4)
    co = fs.construction_order()
    co.check(FERRERS3221)
    assert co.u_set == frozenset({1, 2, 3})


def test_ferrers_structure_star_and_rejections():
    # canonical orientation is the tall one: the hub becomes the full column
    fs = ferrers_structure(complete_multipartite([1, 3]))
    assert fs is not None
    assert fs.shape.parts == (1, 1, 1)
    assert fs.col_order == (1,)

    assert ferrers_structure(TWO_K2) is None
    assert ferrers_structure(C5) is None
    assert ferrers_structure(K4) is None
    assert ferrers_structure(Graph(1)) is None
    path = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    assert ferrers_structure(path) is None  # neighborhoods not nested


@pytest.mark.parametrize("shape", partitions_up_to(10))
def test_ferrers_recognition_is_canonical(shape):
    from spantree import PartitionShape

    ps = PartitionShape(shape)
    fs = ferrers_structure(ferrers_graph(ps))
    assert fs is not None
    assert fs.shape in (ps, ps.conjugate())
    # canonical form: at least as many rows as columns, and recognizing the
    # canonical shape's own graph reproduces it
    assert fs.shape.rows >= fs.shape.cols
    again = ferrers_structure(ferrers_graph(fs.shape))
    assert again is not None and again.shape == fs.shape
    fs.construction_order().check(ferrers_graph(ps))


def test_every_ferrers_graph_is_u_threshold_for_its_columns():
    for shape in partitions_up_to(9):
        g = ferrers_graph(shape)
        fs = ferrers_structure(g)
        assert fs is not None
        assert u_threshold_order(g, fs.col_order) is not None


# -- canonical class order -------------------------------------------------------


def test_canonical_order_golden_chain():
    can = canonical_order(UTHRESHOLD8, UTHRESHOLD8_U)
    assert can.classes == ((4, 5), (7,), (3, 6), (8,), (1,), (2,))
    can.order.check(UTHRESHOLD8)


def test_canonical_order_single_class_cases():
    can = canonical_order(complete(4), range(1, 5))
    assert can.classes == ((1, 2, 3, 4),)
    can.order.check(complete(4))

    empty = Graph(3)
    can = canonical_order(empty, ())
    assert can.classes == ((1, 2, 3),)
    can.order.check(empty)


def test_canonical_order_class_refinements_all_validate():
    from itertools import permutations, product

    can = canonical_order(UTHRESHOLD8, UTHRESHOLD8_U)
    for perms in product(*(permutations(cls) for cls in can.classes)):
        order = tuple(v for cls in perms for v in cls)
        roles = derive_roles(UTHRESHOLD8, order, frozenset(UTHRESHOLD8_U))
        assert roles is not None
        ConstructionOrder(order, frozenset(UTHRESHOLD8_U), tuple(roles)).check(
            UTHRESHOLD8
        )


def test_canonical_order_requires_u_threshold_input():
    with pytest.raises(ValueError):
        canonical_order(C5, {1, 2})


def test_canonical_order_on_random_instances():
    rng = random.Random(42)
    for _ in range(60):
        g, u = random_u_threshold_instance(rng, rng.randint(1, 9))
        can = canonical_order(g, u)
        can.order.check(g)
        assert sorted(v for cls in can.classes for v in cls) == list(g.vertices)


# -- nesting report ---------------------------------------------------------------


def test_nesting_report_golden():
    rep = nesting_report(UTHRESHOLD8, UTHRESHOLD8_U)
    assert rep.all_hold()
    assert rep.complement_independent.counterexample is None


def test_nesting_report_ferrers_columns_side():
    g = ferrers_graph((3, 2, 2, 1))
    fs = ferrers_structure(g)
    rep = nesting_report(g, fs.col_order)
    assert rep.all_hold()


def test_nesting_report_vacuous_on_edgeless():
    empty = Graph(4)
    for u in (frozenset(), frozenset({1, 3})):
        rep = nesting_report(empty, u)
        assert rep.all_hold()


def test_nesting_report_requires_u_threshold_input():
    with pytest.raises(ValueError):
        nesting_report(TWO_K2, {1, 2})


def test_peel_result_is_rechecked_without_assert(monkeypatch):
    # a peel whose order fails the role re-derivation raises a real error,
    # which python -O cannot strip
    monkeypatch.setattr(spantree.recognition, "derive_roles", lambda g, order, u: None)
    with pytest.raises(OrderInconsistencyError):
        u_threshold_order(SPECIAL5, SPECIAL5_U)
    with pytest.raises(OrderInconsistencyError):
        special_2_threshold_order(SPECIAL5)
