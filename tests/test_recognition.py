import random
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spantree import (
    ConstructionOrder,
    Graph,
    OrderInconsistencyError,
    PartitionShape,
    blocks,
    complete,
    complete_multipartite,
    ferrers_count,
    ferrers_graph,
    ferrers_structure,
    forbidden_witness,
    induced_subgraph,
    route,
    special_2_threshold_count,
    special_2_threshold_order,
    threshold_order,
    u_threshold_order,
)
import spantree.recognition
from spantree.recognition import FAMILY_PATTERNS, PATTERNS, _adjacency, derive_roles
from sample_graphs import (
    C5,
    FERRERS3221,
    HOUSE_TAIL,
    K4,
    SPECIAL5,
    SPECIAL5_U,
    SPECIAL26,
    THRESHOLD5,
    TWO_K2,
    UTHRESHOLD8,
    UTHRESHOLD8_U,
    atlas_graphs,
    first_subset_witness,
    independent_complement_search,
    induced_pattern,
    mask_of,
    partitions_up_to,
    random_graph,
    random_u_threshold_instance,
    relabeled,
    scan_order,
    scan_peel,
    small_graphs,
    threshold_graph_from_bits,
    vertices_of,
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


def test_threshold_order_at_20000_vertices():
    # six dominating vertices spaced out over isolated ones, about 105k
    # edges: a peel that re-scanned every remaining vertex per step would
    # take minutes here
    n = 20_000
    dominating = range(n - 5000, n + 1, 1000)
    g = Graph(n, [(u, v) for v in dominating for u in range(1, v)])
    co = threshold_order(g)
    assert co is not None
    co.check(g)
    assert co.order == tuple(g.vertices)
    assert co.u_dominating_vertices() == frozenset(dominating)


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
    # a failed peel returns the stuck set W, which certifies the failure: no
    # vertex of the subgraph induced on W is isolated or U-dominating there
    for u in (frozenset(), frozenset({1, 2}), frozenset({1, 2, 3, 4})):
        assert u_threshold_order(TWO_K2, u) is None
        order, stuck = spantree.recognition._peel(_adjacency(TWO_K2), u)
        assert order is None and stuck
        for v in stuck:
            inside = TWO_K2.neighbors(v) & stuck
            assert inside and inside != (stuck - {v}) & u
    assert spantree.recognition._peel(_adjacency(SPECIAL5), SPECIAL5_U)[1] == frozenset()


@st.composite
def peel_instances(draw, max_n=12):
    """(g, W, U) for the peel, W and U as masks: a random graph with a
    random U, or a graph built from a construction order for U with one
    pair sometimes toggled, so that peels both finish and get stuck after
    some deletions.  Labels are shuffled; W is all of g or random."""
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    in_u = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if draw(st.booleans()):
        chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = {e for e, keep in zip(pairs, chosen) if keep}
    else:
        dominating = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        edges = {(u, v) for u, v in pairs if dominating[v - 1] and in_u[u - 1]}
        if pairs and draw(st.booleans()):
            edges ^= {draw(st.sampled_from(pairs))}
    perm = draw(st.permutations(range(1, n + 1)))
    g = relabeled(Graph(n, edges), list(perm))
    u = mask_of(perm[v - 1] for v in g.vertices if in_u[v - 1])
    full = mask_of(g.vertices)
    w = draw(st.one_of(st.just(full), st.integers(0, full)))
    return g, w, u


@settings(max_examples=400, deadline=None)
@given(peel_instances())
def test_peel_matches_the_scan_reference(instance):
    # the scan deletes by definition, on masks; the counters, on neighbor
    # sets within W, must delete the same vertices in the same order and
    # stop on the same stuck set
    g, w, u = instance
    adj = {v: g.neighbors(v) & frozenset(vertices_of(w)) for v in vertices_of(w)}
    order, stuck = scan_peel(g, w, u)
    assert spantree.recognition._peel(adj, frozenset(vertices_of(u))) == (
        order, frozenset(vertices_of(stuck))
    )


def test_greedy_confluence_under_random_tie_breaks():
    rng = random.Random(5)
    for _ in range(80):
        g, u = random_u_threshold_instance(rng, rng.randint(1, 9))
        for seed in range(4):
            pick = random.Random(seed).choice
            co = scan_order(g, u, pick)
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


def _reference_roles(g, order, u_set):
    """derive_roles by its definition: each later vertex's earlier
    neighbors are none, or exactly the earlier U-vertices."""
    roles = []
    for i, v in enumerate(order):
        earlier = set(order[:i])
        lower = g.neighbors(v) & earlier
        if i == 0:
            roles.append("initial")
        elif not lower:
            roles.append("isolated")
        elif lower == earlier & u_set:
            roles.append("u_dominating")
        else:
            return None
    return roles


def test_derive_roles_matches_the_definition_on_random_orders():
    # valid orders come from the peel, invalid ones mostly from shuffling
    # them or from a random U
    rng = random.Random(22)
    valid = 0
    for _ in range(600):
        n = rng.randint(1, 9)
        if rng.random() < 0.5:
            g, u = random_u_threshold_instance(rng, n)
        else:
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            u = frozenset(v for v in g.vertices if rng.random() < 0.6)
        co = u_threshold_order(g, u)
        order = list(co.order if co is not None else g.vertices)
        if co is None or rng.random() < 0.5:
            rng.shuffle(order)
        expected = _reference_roles(g, order, u)
        assert derive_roles(g, order, u) == expected, (g, order, u)
        valid += expected is not None
    assert 150 < valid < 450, valid


# -- the U-search -------------------------------------------------------------


def test_special_search_on_running_examples():
    co = special_2_threshold_order(SPECIAL5)
    assert co is not None
    co.check(SPECIAL5)
    # candidates are scanned in a fixed order, so the result is reproducible
    assert co.u_set == frozenset({1, 3, 4, 5})
    assert co.order == (1, 5, 2, 3, 4)

    found8 = special_2_threshold_order(UTHRESHOLD8)
    assert found8 is not None
    # the fixture's intended subset is itself valid, whatever the search returned
    assert u_threshold_order(UTHRESHOLD8, UTHRESHOLD8_U) is not None

    assert special_2_threshold_order(C5) is None


def test_special_search_returns_whole_vertex_set_for_threshold_inputs():
    found = special_2_threshold_order(THRESHOLD5)
    assert found is not None
    assert found.u_set == THRESHOLD5.vertex_set()


def test_special_search_matches_the_independent_complement_reference():
    for n in range(1, 6):
        pairs = list(combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [e for k, e in enumerate(pairs) if bits >> k & 1])
            assert special_2_threshold_order(g) == independent_complement_search(g)
    rng = random.Random(41)
    members = 0
    for i in range(300):
        n = rng.randint(6, 14)
        if i % 3:
            g = random_graph(rng, n, rng.choice((0.15, 0.3, 0.5, 0.7)))
        else:
            # a member, with up to three isolated vertices placed anywhere
            base, _ = random_u_threshold_instance(rng, n - rng.randint(0, 3))
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            g = relabeled(Graph(n, base.edges()), perm)
        found = special_2_threshold_order(g)
        assert found == independent_complement_search(g)
        members += found is not None
    assert members > 100


def test_special_search_peels_at_most_2n_plus_1_candidates(monkeypatch):
    # a sparse non-member: the reference tries every one of its thousands
    # of independent complements
    g = random_graph(random.Random(5), 18, 0.15)
    calls = 0
    peel = spantree.recognition._peel

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return peel(*args, **kwargs)

    monkeypatch.setattr(spantree.recognition, "_peel", counted)
    assert special_2_threshold_order(g) is None
    assert calls <= 2 * g.n + 1


def test_special_search_peels_only_u_equal_v_on_a_threshold_graph(monkeypatch):
    # U = V comes first, so a threshold graph draws no second candidate
    expected, peels, drawn = threshold_order(THRESHOLD5), [], []
    peel, candidates = spantree.recognition._peel, spantree.recognition._u_candidates

    def counted(adj):
        for u in candidates(adj):
            drawn.append(u)
            yield u

    monkeypatch.setattr(
        spantree.recognition, "_peel", lambda *args: peels.append(args) or peel(*args)
    )
    monkeypatch.setattr(spantree.recognition, "_u_candidates", counted)
    co = special_2_threshold_order(THRESHOLD5)
    assert co.u_set == THRESHOLD5.vertex_set() and co == expected
    assert drawn == [THRESHOLD5.vertex_set()]
    assert peels == [(_adjacency(THRESHOLD5), THRESHOLD5.vertex_set())]


def test_special_search_has_no_vertex_cap():
    assert special_2_threshold_order(Graph(25)).u_set == frozenset(range(1, 26))
    special_2_threshold_order(SPECIAL26).check(SPECIAL26)
    # the path contains 2K2, so no U exists
    assert special_2_threshold_order(Graph(30, [(i, i + 1) for i in range(1, 30)])) is None


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

    # the shrink deletes the highest labels first, so of 3K2's three 2K2s
    # the lowest-labeled one is left
    w = forbidden_witness(Graph(6, [(1, 2), (3, 4), (5, 6)]), "special-2-threshold")
    assert (w.pattern_name, w.vertices) == ("2K2", (1, 2, 3, 4))

    w = forbidden_witness(HOUSE_TAIL, "special-2-threshold")
    assert w is not None
    assert w.pattern_name == "House"
    assert set(w.vertices) == {1, 2, 4, 5, 6}


def test_forbidden_witness_ferrers_preconditions():
    connected = "ferrers obstruction check needs a connected graph"
    bipartite = "ferrers obstruction check needs a bipartite graph"
    for g, message in (
        (K4, bipartite),
        (C5, bipartite),
        (TWO_K2, connected),
        (Graph(6, C5.edges()), connected),  # both fail: connectivity is named
        (Graph(7, C5.edges() + ((6, 7),)), connected),
    ):
        with pytest.raises(ValueError) as exc:
            forbidden_witness(g, "ferrers")
        assert str(exc.value) == message, g
    assert forbidden_witness(Graph(1), "ferrers") is None
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
    rng = random.Random(3)
    hits = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(4, 8), 0.45)
        for family in ("threshold", "special-2-threshold"):
            w = forbidden_witness(g, family)
            if w is None:
                continue
            hits += 1
            masks = PATTERNS[w.pattern_name]
            k = len(masks)
            pattern = {(i, j) for i in range(k) for j in range(k) if masks[i] >> j & 1}
            induced = {
                (i, j)
                for i, u in enumerate(w.vertices)
                for j, v in enumerate(w.vertices)
                if g.has_edge(u, v)
            }
            # some bijection pattern vertex i -> w.vertices[p[i]] maps edges onto edges
            assert any(
                {(p[i], p[j]) for i, j in pattern} == induced
                for p in permutations(range(k))
            )
    assert hits > 50


def test_four_vertex_witnesses_are_the_first_subsets():
    rng = random.Random(17)
    hits = {"threshold": 0, "ferrers": 0}
    for _ in range(300):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        side = {v: rng.random() < 0.5 for v in range(1, n + 1)}
        h = Graph(n, [
            (u, v) for u, v in complete(n).edges() if side[u] != side[v] and rng.random() < 0.6
        ])
        cases = [(g, "threshold")] + ([(h, "ferrers")] if blocks(h) is not None else [])
        for graph, family in cases:
            w = forbidden_witness(graph, family)
            expected = first_subset_witness(graph, family)
            assert (None if w is None else (w.pattern_name, w.vertices)) == expected
            hits[family] += expected is not None
        if len(cases) == 2 and n > 1:
            # the staircase test recognizes exactly the 2K2-free h (a single
            # vertex has no staircase), and each row meets exactly the first
            # `part` columns
            fs = ferrers_structure(h)
            assert (fs is None) == (first_subset_witness(h, "ferrers") is not None), h
            if fs is not None:
                for r, part in zip(fs.row_order, fs.shape.parts):
                    assert h.neighbors(r) == frozenset(fs.col_order[:part]), (h, r)
    assert min(hits.values()) > 20


def test_four_vertex_witnesses_scan_no_subsets(monkeypatch):
    # SPECIAL5 on the highest labels with pendants on one of its vertices:
    # the first P4 sits after ~n^3/6 pendant subsets
    n = 60
    off = n - 5
    core = [(u + off, v + off) for u, v in SPECIAL5.edges()]
    g = Graph(n, core + [(v, 1 + off) for v in range(1, off + 1)])
    seen = []
    induced = spantree.recognition.induced_subgraph
    monkeypatch.setattr(
        spantree.recognition, "induced_subgraph", lambda *a: seen.append(a) or induced(*a)
    )
    w = forbidden_witness(g, "threshold")
    assert (w.pattern_name, w.vertices) == ("P4", (1, off + 1, off + 3, off + 4))
    assert seen == []


# -- agreement of the characterizations ---------------------------------------


def test_threshold_agreement_exhaustive_up_to_seven():
    for g in atlas_graphs(7):
        has_order = threshold_order(g) is not None
        clean = forbidden_witness(g, "threshold") is None
        assert has_order == clean, g


def test_special_agreement_exhaustive_up_to_seven():
    # the U-search against the subset scan, and the shrink's witness against
    # both: it exists exactly for non-members and induces its pattern
    for g in atlas_graphs(7):
        found = special_2_threshold_order(g) is not None
        assert found == (first_subset_witness(g, "special-2-threshold") is None), g
        w = forbidden_witness(g, "special-2-threshold")
        assert (w is None) == found, g
        assert found or induced_pattern(g, w.vertices, "special-2-threshold") == w.pattern_name


def _assert_threshold_peel_is_the_special_order(g):
    # the U-search sorts U = V first, and its peel is the threshold peel,
    # so classify may print the special order for a threshold graph
    co = threshold_order(g)
    if co is not None:
        assert special_2_threshold_order(g) == co, g


def test_special_order_of_a_threshold_graph_is_the_threshold_order():
    for g in atlas_graphs(7):
        _assert_threshold_peel_is_the_special_order(g)


@st.composite
def _threshold_or_random(draw):
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        return draw(small_graphs(max_n=n))
    perm = draw(st.permutations(range(1, n + 1)))
    return relabeled(threshold_graph_from_bits(n, draw(st.integers(0, 2 ** n))), perm)


@settings(max_examples=300, deadline=None)
@given(_threshold_or_random())
def test_special_order_of_a_threshold_graph_is_the_threshold_order_random(g):
    _assert_threshold_peel_is_the_special_order(g)


def test_special_agreement_random_eight_vertex():
    rng = random.Random(88)
    for _ in range(150):
        g = random_graph(rng, 8, rng.choice([0.2, 0.4, 0.6, 0.8]))
        found = special_2_threshold_order(g) is not None
        assert found == (first_subset_witness(g, "special-2-threshold") is None), g


@settings(max_examples=200, deadline=None)
@given(small_graphs(max_n=10))
def test_special_witness_is_a_minimal_non_member(g):
    w = forbidden_witness(g, "special-2-threshold")
    assume(w is not None)
    assert special_2_threshold_order(g) is None
    assert induced_pattern(g, w.vertices, "special-2-threshold") == w.pattern_name
    # minimal: deleting any one vertex leaves a member, by the reference
    for v in w.vertices:
        rest, _ = induced_subgraph(g, [u for u in w.vertices if u != v])
        assert first_subset_witness(rest, "special-2-threshold") is None, (g, w, v)


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


def test_peel_result_is_rechecked_without_assert(monkeypatch):
    # a peel whose order fails the role re-derivation raises a real error,
    # which python -O cannot strip
    monkeypatch.setattr(spantree.recognition, "derive_roles", lambda g, order, u: None)
    with pytest.raises(OrderInconsistencyError):
        u_threshold_order(SPECIAL5, SPECIAL5_U)
    with pytest.raises(OrderInconsistencyError):
        special_2_threshold_order(SPECIAL5)


# -- routing ------------------------------------------------------------------


def test_route_tries_the_cheap_recognizers_before_the_u_search():
    assert route(THRESHOLD5) == ("threshold", threshold_order(THRESHOLD5))
    assert route(FERRERS3221) == (
        "ferrers", ferrers_structure(FERRERS3221).construction_order()
    )
    family, co = route(SPECIAL5)
    assert family == "special-2-threshold"
    co.check(SPECIAL5)
    assert route(C5) is None
    # no vertex cap: every family is recognized past 24 vertices
    assert route(Graph(30))[0] == "threshold"
    assert route(ferrers_graph((20, 10)))[0] == "ferrers"
    family, co = route(SPECIAL26)
    assert family == "special-2-threshold"
    co.check(SPECIAL26)


@pytest.mark.parametrize("g", [SPECIAL5, SPECIAL26, UTHRESHOLD8], ids=["s5", "s26", "u8"])
def test_route_peels_u_equal_v_once(monkeypatch, g):
    # the threshold peel is the U-search's first candidate, so a graph that
    # fails it goes on to the U-search without peeling U = V again
    peel, peeled = spantree.recognition._peel, []
    monkeypatch.setattr(
        spantree.recognition, "_peel", lambda adj, u: peeled.append(u) or peel(adj, u)
    )
    routed = route(g)
    assert peeled.count(g.vertex_set()) == 1 and len(peeled) > 1
    monkeypatch.undo()
    assert routed == ("special-2-threshold", special_2_threshold_order(g))


@st.composite
def _shuffled_u_threshold_members(draw):
    """A random U-threshold graph on up to 40 vertices, with up to three
    isolated vertices added and every label shuffled."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    g, _ = random_u_threshold_instance(rng, draw(st.integers(1, 37)))
    extra = draw(st.integers(0, 3))
    perm = draw(st.permutations(range(1, g.n + extra + 1)))
    return relabeled(Graph(g.n + extra, g.edges()), list(perm))


@settings(max_examples=300, deadline=None)
@given(_shuffled_u_threshold_members())
def test_two_k2_screen_never_fires_on_a_member(g):
    assert spantree.recognition._two_k2_screen(_adjacency(g)) is None


@settings(max_examples=300, deadline=None)
@given(small_graphs(max_n=12), st.sets(st.integers(1, 12)))
def test_two_k2_screen_names_an_induced_2k2(g, dropped):
    found = spantree.recognition._two_k2_screen(_adjacency(g))
    if found is not None:
        assert induced_pattern(g, found, "threshold") == "2K2", (g, found)
        assert route(g) is None
    # within a vertex subset too, as the special 2-threshold shrink runs it
    w = g.vertex_set() - dropped
    found = spantree.recognition._two_k2_screen({v: g.neighbors(v) & w for v in sorted(w)})
    if found is not None:
        assert set(found) <= w and induced_pattern(g, found, "threshold") == "2K2", (g, w, found)


def test_two_k2_screen_turns_a_long_path_away_before_the_u_search(monkeypatch):
    n = 20_000
    g = Graph(n, [(v, v + 1) for v in range(1, n)])
    monkeypatch.setattr(spantree.recognition, "_u_search", lambda *a: pytest.fail("U-search ran"))
    assert spantree.recognition._two_k2_screen(_adjacency(g)) == (2, 3, 5, 6)
    assert route(g) is None


def test_ferrers_member_routes_before_the_u_search(monkeypatch):
    # a shuffled staircase with 2,000 vertices and many trees
    shape = PartitionShape((1000,) + (2,) * 500 + (1,) * 499)
    perm = list(range(1, 2001))
    random.Random(23).shuffle(perm)
    g = relabeled(ferrers_graph(shape), perm)
    monkeypatch.setattr(spantree.recognition, "_u_search", lambda *a: pytest.fail("U-search ran"))
    family, co = route(g)
    assert family == "ferrers"
    assert special_2_threshold_count(g, co) == ferrers_count(shape) > 1


def test_last_u_dominating_vertex():
    co = u_threshold_order(SPECIAL5, SPECIAL5_U)
    last = max(i for i, r in enumerate(co.roles) if r == "u_dominating")
    assert co.last_u_dominating_vertex() == co.order[last]
    with pytest.raises(ValueError):
        threshold_order(Graph(3)).last_u_dominating_vertex()


@pytest.mark.parametrize(
    "order, u_set, roles, message",
    [
        ((1, 2, 3, 3, 5), {1}, 5, "order is not a permutation of the vertices"),
        (None, {1, 6}, 5, "u_set contains vertices outside the graph"),
        (None, None, 4, "roles and order lengths differ"),
    ],
)
def test_construction_order_check_refuses_a_malformed_order(order, u_set, roles, message):
    co = threshold_order(THRESHOLD5)
    bad = ConstructionOrder(order or co.order, frozenset(u_set or co.u_set), co.roles[:roles])
    with pytest.raises(ValueError, match=f"^{message}$"):
        bad.check(THRESHOLD5)
