"""Acceptance suite: one test per criterion, each printing a PASS or FAIL
line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import random
import time
from itertools import combinations, permutations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from spantree import (
    Graph,
    MultiPoly,
    build_perturbation,
    complete,
    determinant,
    ferrers_count,
    ferrers_graph,
    ferrers_structure,
    is_upper_triangular,
    laplacian,
    matrix_tree_count,
    oracle_count,
    perturbation_count,
    rank_one_update,
    special_2_threshold_count,
    special_2_threshold_order,
    threshold_count,
    threshold_order,
    u_threshold_order,
    weighted_count_ferrers,
    weighted_count_special_2threshold,
    weighted_count_threshold,
    weighted_oracle,
)
from spantree.recognition import ConstructionOrder, derive_roles
from sample_graphs import (
    FERRERS3221,
    HOUSE_TAIL,
    K4,
    K23,
    SPECIAL5,
    THRESHOLD5,
    UTHRESHOLD8,
    UTHRESHOLD8_U,
    atlas_graphs,
    first_subset_witness,
    merris_count,
    neighbor_masks,
    partitions_up_to,
    random_graph,
    random_u_threshold_instance,
    threshold_graph_from_bits,
    weighted_cayley_prufer,
)


def _passed(n: int, message: str) -> None:
    print(f"criterion {n}: PASS - {message}")


def criterion(n: int, summary: str):
    """Print the FAIL line before letting the assertion propagate."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {n}: FAIL - {summary}")
                raise

        return wrapper

    return decorate


@criterion(1, "golden counts")
def test_criterion_1_golden_counts():
    start = time.perf_counter()

    def formula_count(g):
        co = threshold_order(g)
        if co is not None:
            return threshold_count(g, co)
        fs = ferrers_structure(g)
        if fs is not None:
            return ferrers_count(fs)
        co = special_2_threshold_order(g)
        if co is not None:
            return special_2_threshold_count(g, co)
        return None

    cases = [
        ("six-vertex sample", HOUSE_TAIL, 11),
        ("K4", K4, 16),
        ("K23", K23, 12),
        ("threshold5", THRESHOLD5, 8),
        ("ferrers(3,2,2,1)", FERRERS3221, 12),
        ("special5", SPECIAL5, 8),
    ]
    for name, g, expected in cases:
        routes = {
            "matrix-tree": matrix_tree_count(g),
            "oracle": oracle_count(g),
        }
        formula = formula_count(g)
        if formula is not None:
            routes["formula"] = formula
        else:
            # the generic sample is in no family; the all-ones perturbation
            # stands in as its third independent route
            routes["perturbation"] = perturbation_count(g, [1] * g.n, [1] * g.n)
        for route, value in routes.items():
            assert value == expected, (name, route, value)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"golden suite took {elapsed:.2f}s, budget is 1s"
    _passed(1, f"six golden counts agree on all routes in {elapsed * 1000:.0f}ms")


@criterion(2, "perturbation worked examples")
def test_criterion_2_perturbation_worked_examples():
    co = threshold_order(THRESHOLD5)
    a, b, m = build_perturbation(THRESHOLD5, co)
    assert [r[i] for i, r in enumerate(m)] == [2, 2, 4, 1, 5]
    assert determinant(m) == 80
    assert threshold_count(THRESHOLD5, co) == 8
    assert 80 == sum(a) * sum(b) * 8

    fs = ferrers_structure(FERRERS3221)
    a, b, m = build_perturbation(FERRERS3221, fs.construction_order())
    assert [r[i] for i, r in enumerate(m)] == [4, 1, 3, 2, 2, 1, 3]
    assert determinant(m) == 144
    assert ferrers_count(fs) == 12
    assert 144 == sum(a) * sum(b) * 12
    _passed(2, "triangular diagonals (2,2,4,1,5)/det 80 and (4,1,3,2,2,1,3)/det 144")


def _triangular_perturbation_exists(g: Graph) -> bool:
    """Independent route: try every subset as U, not just the pruned
    candidates; verify any success by building the triangular matrix."""
    for bits in range(1 << g.n):
        u = frozenset(v for v in g.vertices if bits >> (v - 1) & 1)
        co = u_threshold_order(g, u)
        if co is not None:
            _, _, m = build_perturbation(g, co)
            assert is_upper_triangular(m)
            return True
    return False


def _triangular_orders(g: Graph):
    """Every (order, B) such that L, permuted along the order, plus a b^T
    is upper triangular for some 0/1 vector a, with b the indicator of B.
    Orders are grown from the front, sharing no code with the peel.

    Entry (i, j), i > j, is a_i b_j minus one on an edge and a_i b_j off
    one, so it is zero exactly when vertex i's earlier neighbors are
    either none (a_i = 0) or the earlier vertices of B (a_i = 1).  A
    prefix failing that is pruned; which vertices came first and which of
    them are in B is all a later vertex sees, so a state with no
    completion is remembered and never grown again."""
    nbrs = neighbor_masks(g)
    full = (1 << g.n) - 1
    dead = set()

    def grow(order, seen, b):
        if seen == full:
            yield tuple(order), b
            return
        if (seen, b) in dead:
            return
        found = False
        for v in g.vertices:
            bit = 1 << (v - 1)
            lower = nbrs[v] & seen
            if seen & bit or lower and lower != b:
                continue
            order.append(v)
            for b_next in (b, b | bit):
                for pair in grow(order, seen | bit, b_next):
                    found = True
                    yield pair
            order.pop()
        if not found:
            dead.add((seen, b))

    return grow([], 0, 0)


def _confirm_triangular(g: Graph, order: tuple[int, ...], b_mask: int) -> None:
    """Build the permuted L + a b^T of a found order and check it."""
    lap = laplacian(g)
    rows = [[lap[u - 1][v - 1] for v in order] for u in order]
    nbrs, seen, a = neighbor_masks(g), 0, []
    for v in order:
        a.append(int(nbrs[v] & seen != 0))
        seen |= 1 << (v - 1)
    b = [b_mask >> (v - 1) & 1 for v in order]
    assert is_upper_triangular(rank_one_update(rows, a, b)), (g, order)


def _four_legs_agree(g: Graph) -> bool:
    """Assert that the U-search, the forbidden patterns, the perturbation
    over every U and the order search all say whether g is special
    2-threshold, check the order search's first order as a triangular
    matrix, and return the verdict."""
    by_search = special_2_threshold_order(g) is not None
    by_patterns = first_subset_witness(g, "special-2-threshold") is None
    by_perturbation = _triangular_perturbation_exists(g)
    first = next(_triangular_orders(g), None)
    by_orders = first is not None
    assert by_search == by_patterns == by_perturbation == by_orders, g
    if first is not None:
        _confirm_triangular(g, *first)
    return by_orders


def _order_of(g: Graph, order: tuple[int, ...], b_mask: int) -> ConstructionOrder:
    """The construction order of a pair the order search found, U = B."""
    u = frozenset(v for v in order if b_mask >> (v - 1) & 1)
    return ConstructionOrder(order, u, tuple(derive_roles(g, order, u)))


@criterion(3, "characterization agreement")
def test_criterion_3_characterizations_agree_up_to_seven():
    start = time.perf_counter()
    graphs = atlas_graphs(7, connected_only=True)
    assert len(graphs) == 996
    rng = random.Random(20251019)
    members = pairs_checked = weighted_checked = 0
    for g in graphs:
        if not _four_legs_agree(g):
            continue
        # the count holds on every valid (order, U), U = B, not only the
        # peel's; the weighted formula is checked on the first 20 of the
        # sampled pairs
        members += 1
        pairs = list(_triangular_orders(g))
        tau, enumerator = oracle_count(g), weighted_oracle(g)
        for i, pair in enumerate(rng.sample(pairs, min(200, len(pairs)))):
            co = _order_of(g, *pair)
            assert special_2_threshold_count(g, co) == tau, (g, co)
            pairs_checked += 1
            if i < 20:
                assert weighted_count_special_2threshold(g, co) == enumerator, (g, co)
                weighted_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"sweep took {elapsed:.1f}s, budget is 300s"
    _passed(
        3,
        f"four characterizations agree on all 996 connected graphs; the count holds "
        f"on {pairs_checked} (order, U) pairs of {members} members, the weighted "
        f"count on {weighted_checked} of them, in {elapsed:.1f}s",
    )


@st.composite
def _eight_or_nine_vertex_graphs(draw):
    """A random graph on 8 or 9 vertices: G(n, p), or a U-threshold graph
    (a member) with one vertex pair sometimes toggled, so that members,
    near-members and far non-members all turn up."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([8, 9]))
    if draw(st.booleans()):
        return random_graph(rng, n, draw(st.sampled_from([0.2, 0.5, 0.8])))
    g, _ = random_u_threshold_instance(rng, n)
    edges = set(g.edges())
    if draw(st.booleans()):
        edges ^= {tuple(sorted(rng.sample(range(1, n + 1), 2)))}
    return Graph(n, edges)


@settings(max_examples=100, deadline=None)
@given(_eight_or_nine_vertex_graphs())
def test_characterizations_agree_on_eight_and_nine_vertices(g):
    if _four_legs_agree(g):
        # the count on the first valid (order, U) the order search finds
        co = _order_of(g, *next(_triangular_orders(g)))
        assert special_2_threshold_count(g, co) == matrix_tree_count(g), (g, co)


@criterion(4, "perturbation identity")
def test_criterion_4_perturbation_identity_500_triples():
    rng = random.Random(20250810)
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.4, 0.6, 0.8]))
        while True:
            a = [rng.randint(-5, 5) for _ in range(g.n)]
            b = [rng.randint(-5, 5) for _ in range(g.n)]
            if sum(a) and sum(b):
                break
        det = determinant(rank_one_update(laplacian(g), a, b))
        assert det == sum(a) * sum(b) * matrix_tree_count(g)
    _passed(4, "det(L + a b^T) = (sum a)(sum b) tau on 500 random triples")


@criterion(5, "canonical class order")
def test_criterion_5_canonical_order_golden():
    g, u = UTHRESHOLD8, frozenset(UTHRESHOLD8_U)
    chain = ((4, 5), (7,), (3, 6), (8,), (1,), (2,))

    def side_and_degrees(v):
        return v in u, len(g.neighbors(v) & u), len(g.neighbors(v) - u)

    # the classes are the vertices of one side with equal degrees into U and
    # into its complement
    keys = [{side_and_degrees(v) for v in cls} for cls in chain]
    assert all(len(k) == 1 for k in keys) and len(set().union(*keys)) == len(chain)
    # the chain is the one order of the classes that admits a construction
    # order, and every refinement of it is one
    admitted = [
        p for p in permutations(chain)
        if derive_roles(g, [v for cls in p for v in cls], u) is not None
    ]
    assert admitted == [chain], admitted
    refinements = 0
    for perms in product(*(permutations(cls) for cls in chain)):
        order = tuple(v for cls in perms for v in cls)
        roles = derive_roles(g, order, u)
        assert roles is not None, order
        ConstructionOrder(order, u, tuple(roles)).check(g)
        refinements += 1
    _passed(5, f"class chain (4,5)<(7)<(3,6)<(8)<(1)<(2); all {refinements} refinements valid")


@criterion(6, "nesting clauses")
def test_criterion_6_nesting_clauses_on_200_instances():
    rng = random.Random(6)
    for _ in range(200):
        g, u = random_u_threshold_instance(rng, rng.randint(1, 10))
        co = u_threshold_order(g, u)
        assert co is not None
        comp = g.vertex_set() - co.u_set
        in_u = [v for v in co.order if v in co.u_set]
        # the order restricted to U is a threshold order of G[U]: each
        # U-vertex meets none or all of the U-vertices before it
        for i, v in enumerate(in_u):
            before = set(in_u[:i])
            assert g.neighbors(v) & before in (set(), before), (g, u)
        # (a) the complement of U is independent
        assert not any(g.neighbors(v) & comp for v in comp), (g, u)
        # (b) the complement's neighborhoods form a chain under inclusion,
        # (c) and so do the U-vertices' neighborhoods restricted to the complement
        restricted = [g.neighbors(v) & comp for v in in_u]
        for sets in ([g.neighbors(v) for v in comp], restricted):
            assert all(x <= y or y <= x for x, y in combinations(sets, 2)), (g, u)
        # (d) those restrictions shrink (weakly) along the threshold order
        assert all(y <= x for x, y in zip(restricted, restricted[1:])), (g, u)
    _passed(6, "all four nesting clauses hold on 200 constructed instances")


@criterion(7, "weighted suite")
def test_criterion_7_weighted_suite():
    for n in range(1, 7):
        for bits in range(1 << max(0, n - 1)):
            g = threshold_graph_from_bits(n, bits)
            co = threshold_order(g)
            assert weighted_count_threshold(g, co) == weighted_oracle(g), (n, bits)

    for shape in partitions_up_to(8):
        assert weighted_count_ferrers(shape) == weighted_oracle(ferrers_graph(shape))

    special_hits = 0
    for g in atlas_graphs(6):
        co = special_2_threshold_order(g)
        if co is None:
            continue
        special_hits += 1
        assert weighted_count_special_2threshold(g, co) == weighted_oracle(g)
    assert special_hits > 50

    for n in range(1, 6):
        assert weighted_cayley_prufer(n) == weighted_oracle(complete(n))

    x1, x2, x3 = (MultiPoly.variable(3, i) for i in (1, 2, 3))
    assert weighted_cayley_prufer(3) == x1 * x2 * x3 * (x1 + x2 + x3)

    golden = [
        (HOUSE_TAIL, 11), (K4, 16), (K23, 12),
        (THRESHOLD5, 8), (FERRERS3221, 12), (SPECIAL5, 8),
    ]
    for g, expected in golden:
        assert weighted_oracle(g).substitute_all_ones() == expected
    _passed(7, f"weighted closed forms equal the oracle (incl. {special_hits} "
               "special instances); all-ones specializes to the golden counts")


@criterion(8, "reduction identities")
def test_criterion_8_reduction_identities():
    for g in (THRESHOLD5, K4):
        co = threshold_order(g)
        assert special_2_threshold_count(g, co) == merris_count(g, co)
        assert weighted_count_special_2threshold(g, co) == weighted_oracle(g)
    for g in (FERRERS3221, K23):
        fs = ferrers_structure(g)
        co = fs.construction_order()
        assert special_2_threshold_count(g, co) == ferrers_count(fs.shape)
        assert weighted_count_special_2threshold(g, co) == weighted_oracle(g)
    _passed(8, "U = V gives Merris' threshold count, U = columns the staircase "
               "count, and both the weighted enumerator")
