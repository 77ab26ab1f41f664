"""Weighted spanning-tree enumerators as exact polynomials.

Every edge {i, j} carries the weight x_i * x_j, one variable per vertex, and
the enumerator of a graph is the sum over its spanning trees of the product
of their edge weights.  Setting every variable to 1
(``MultiPoly.substitute_all_ones``) recovers the plain counts, which the
tests exploit throughout.

The formula, the cofactor and the perturbation count are the generic
bodies of ``counting`` over ``polynomial_ring(n)``, w(v) = x_v.
"""

from __future__ import annotations

from typing import Sequence

from .counting import _cofactor, _degree_product, _perturbation, _perturbed_rows, spanning_trees
from .graph import Graph, PartitionShape, ferrers_graph
from .linalg import _laplacian_rows, polynomial_ring
from .poly import MultiPoly
from .recognition import ConstructionOrder, FerrersStructure, ferrers_structure


def weighted_laplacian(g: Graph) -> list[list[MultiPoly]]:
    """The rows of L(G; w) with w = x_v: weighted degrees on the diagonal,
    -x_i*x_j on edges, zero elsewhere."""
    return _laplacian_rows(g, g.vertices, polynomial_ring(g.n))


def weighted_oracle(g: Graph, *, max_edges: int | None = None) -> MultiPoly:
    """Enumerator by brute force: one monomial per spanning tree, exponents
    the tree's degree sequence.  Subject to the oracle edge guard."""
    terms: dict[tuple[int, ...], int] = {}
    for tree in spanning_trees(g, max_edges=max_edges):
        exps = [0] * g.n
        for u, v in tree:
            exps[u - 1] += 1
            exps[v - 1] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + 1
    return MultiPoly(g.n, terms)


def weighted_matrix_tree_count(g: Graph) -> MultiPoly:
    """Enumerator as the weighted Kirchhoff cofactor: the expansion
    determinant of L(G; w) without one row and column, without any
    division, exponential in n."""
    return _cofactor(g, polynomial_ring(g.n))


def weighted_perturbation_count(g: Graph, a: Sequence[int], b: Sequence[int]) -> MultiPoly:
    """det(L(G; w) + a b^T) divided exactly by the integer (sum a)(sum b)."""
    return _perturbation(g, a, b, polynomial_ring(g.n))


def weighted_build_perturbation(
    g: Graph, co: ConstructionOrder
) -> tuple[tuple[MultiPoly, ...], tuple[MultiPoly, ...], list[list[MultiPoly]]]:
    """Weighted Laplacian relabeled along the construction order, perturbed
    by the outer product of a (x_v on u_dominating vertices) and b (x_v on
    U-vertices): the perturbation with w = x_v.  Triangular for every valid
    order; raises TriangularityError otherwise.  Returns (a, b, rows)."""
    return _perturbed_rows(g, co, polynomial_ring(g.n))


def weighted_count_threshold(g: Graph, co: ConstructionOrder) -> MultiPoly:
    """Closed form for threshold graphs: the weighted degree-product formula
    on a construction order with U = V."""
    if co.u_set != g.vertex_set():
        raise ValueError("threshold enumerator needs a construction order with U = V")
    return weighted_count_special_2threshold(g, co)


def weighted_count_ferrers(
    fs: FerrersStructure | PartitionShape | Sequence[int],
) -> MultiPoly:
    """Closed form for staircase graphs: the weighted degree-product formula
    on the staircase traversal.  A bare shape uses ferrers_graph's labeling
    (rows first, then columns, each in diagram order); a recognized
    structure's row i is row_order[i-1], adjacent to the first parts[i-1]
    columns of col_order, so its enumerator is the shape's, relabeled."""
    if isinstance(fs, FerrersStructure):
        labels = fs.row_order + fs.col_order
        return weighted_count_ferrers(fs.shape).lift(len(labels), labels)
    g = ferrers_graph(fs)
    return weighted_count_special_2threshold(g, ferrers_structure(g).construction_order())


def weighted_count_special_2threshold(g: Graph, co: ConstructionOrder) -> MultiPoly:
    """The degree-product formula with w = x_v: the neighbor sum of each
    vertex (plus x_v in both D and U), times prod x_v, over (sum over D)
    (sum over U)."""
    return _degree_product(g, co, polynomial_ring(g.n))
