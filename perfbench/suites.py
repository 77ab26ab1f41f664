"""Seeded generators for the benchmark suites, the suite manifest, and the
independent reference answers every CLI output is checked against.

Nothing here imports ``spantree``: the references come from published
closed forms applied to the generator's own parameters, from a modular
determinant written here, or from small searches written here, so a wrong
answer from the program cannot also be a wrong reference.

Every generated graph is connected (a disconnected graph counts 0 trees,
which would make the counting and weighted work trivial) and its vertex
labels are shuffled, so labels never encode the construction order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from math import ceil, prod

import numpy as np

#: Primes below 2**31, so products of two residues fit in int64.
PRIMES = (2147483629, 2147483587)

WORKLOADS = ("count_family", "count_general", "classify", "weighted")

#: CLI subcommand each workload drives.
COMMAND = {
    "count_family": "count",
    "count_general": "count",
    "classify": "classify",
    "weighted": "weighted",
}


@dataclass
class Case:
    """One generated graph with its provenance and reference answers."""

    name: str
    n: int
    edges: list[tuple[int, int]]
    family: str
    params: dict
    why: str
    #: Exact spanning-tree count when a closed form gives it, else None.
    tau: int | None = None
    #: tau modulo each of PRIMES (always filled).
    tau_mod: dict[int, int] = field(default_factory=dict)
    #: Expected memberships; None where the construction does not decide it.
    member: dict[str, bool | None] = field(default_factory=dict)
    #: Weighted check: (prime, point, enumerator value at point mod prime).
    wpoint: tuple[int, list[int], int] | None = None

    def manifest(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "m": len(self.edges),
            "family": self.family,
            "params": self.params,
            "why": self.why,
        }


# ---------------------------------------------------------------------------
# Graph helpers (adjacency as a list of sets, vertices 1..n)


def adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n + 1)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def connected(n: int, adj: list[set[int]]) -> bool:
    seen = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def is_threshold(n: int, adj: list[set[int]]) -> bool:
    """Threshold iff repeatedly deleting an isolated or dominating vertex
    empties the graph (Chvatal-Hammer)."""
    alive = set(range(1, n + 1))
    deg = {v: len(adj[v]) for v in alive}
    while alive:
        k = len(alive)
        v = next((v for v in alive if deg[v] in (0, k - 1)), None)
        if v is None:
            return False
        alive.remove(v)
        for w in adj[v]:
            if w in alive:
                deg[w] -= 1
    return True


def bipartition(n: int, adj: list[set[int]]) -> tuple[list[int], list[int]] | None:
    color = {1: 0}
    stack = [1]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in color:
                color[w] = 1 - color[v]
                stack.append(w)
            elif color[w] == color[v]:
                return None
    if len(color) != n:
        return None
    return [v for v in color if color[v] == 0], [v for v in color if color[v] == 1]


def nested(adj: list[set[int]], side: list[int]) -> bool:
    ordered = sorted(side, key=lambda v: -len(adj[v]))
    return all(adj[b] <= adj[a] for a, b in zip(ordered, ordered[1:]))


def is_ferrers(n: int, adj: list[set[int]]) -> bool:
    """Connected bipartite with both sides' neighbourhoods nested."""
    sides = bipartition(n, adj)
    return (
        sides is not None
        and all(sides)
        and nested(adj, sides[0])
        and nested(adj, sides[1])
    )


def induced_2k2(edges, adj: list[set[int]]) -> tuple[int, int, int, int] | None:
    """Two edges with no edge between them, or None (exhaustive)."""
    for (a, b), (c, d) in combinations(edges, 2):
        if len({a, b, c, d}) == 4 and not ({c, d} & (adj[a] | adj[b])):
            return a, b, c, d
    return None


def sampled_2k2(edges, adj, rng: random.Random, tries: int = 20000):
    """Induced 2K2 found by sampling edge pairs, falling back to the
    exhaustive scan; dense random graphs hit one within a few draws."""
    if len(edges) < 200:
        return induced_2k2(edges, adj)
    for _ in range(tries):
        (a, b), (c, d) = rng.sample(edges, 2)
        if len({a, b, c, d}) == 4 and not ({c, d} & (adj[a] | adj[b])):
            return a, b, c, d
    return induced_2k2(edges, adj)


def relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    out = []
    for u, v in edges:
        a, b = perm[u - 1], perm[v - 1]
        out.append((a, b) if a < b else (b, a))
    out.sort()
    return out


def edge_list_text(n: int, edges) -> str:
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# References


def det_mod(rows, p: int) -> int:
    """Determinant modulo the prime p by Gaussian elimination in int64."""
    a = np.array([[x % p for x in row] for row in rows], dtype=np.int64)
    n = a.shape[0]
    det = 1
    for k in range(n):
        nz = np.flatnonzero(a[k:, k])
        if nz.size == 0:
            return 0
        piv = k + int(nz[0])
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            det = -det
        pk = int(a[k, k])
        det = det * pk % p
        f = a[k + 1 :, k] * pow(pk, p - 2, p) % p
        a[k + 1 :, k:] = (a[k + 1 :, k:] - f[:, None] * a[k, k:]) % p
    return det % p


def reduced_laplacian(n: int, adj, weight=None) -> list[list[int]]:
    """Laplacian with vertex 1's row and column removed.  With a point
    ``weight`` (weight[v] = x_v) edge {i, j} carries x_i * x_j."""
    x = weight or [1] * (n + 1)
    rows = []
    for i in range(2, n + 1):
        row = [0] * (n - 1)
        for j in adj[i]:
            w = x[i] * x[j]
            row[i - 2] += w
            if j != 1:
                row[j - 2] -= w
        rows.append(row)
    return rows


def tau_residues(n: int, adj) -> dict[int, int]:
    if n == 1:
        return {p: 1 for p in PRIMES}
    lap = reduced_laplacian(n, adj)
    return {p: det_mod(lap, p) for p in PRIMES}


def merris_tau(n: int, adj) -> int:
    """Threshold graphs have Laplacian spectrum equal to the conjugate of
    their degree sequence (Merris 1994), so tau = prod_{i<n} d*_i / n."""
    degs = [len(adj[v]) for v in range(1, n + 1)]
    conj = [sum(1 for d in degs if d >= i) for i in range(1, n)]
    num = prod(conj)
    if num % n:
        raise ValueError("Merris product not divisible by n: not threshold")
    return num // n


def ferrers_tau(parts: list[int]) -> int:
    """Ehrenborg-van Willigenburg: product of the row and column lengths,
    over the first row times the first column."""
    conj = [sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1)]
    return prod(parts) * prod(conj) // (parts[0] * conj[0])


def with_references(case: Case, rng: random.Random, weighted: bool = False) -> Case:
    adj = adjacency(case.n, case.edges)
    if case.family == "threshold":
        case.tau = merris_tau(case.n, adj)
    elif case.family == "ferrers":
        case.tau = ferrers_tau(case.params["shape"])
    if case.tau is not None and case.n > 300:
        case.tau_mod = {p: case.tau % p for p in PRIMES}
    else:
        case.tau_mod = tau_residues(case.n, adj)
        if case.tau is not None and any(case.tau % p != r for p, r in case.tau_mod.items()):
            raise ValueError(f"{case.name}: closed form disagrees with the determinant")
    if weighted:
        p = PRIMES[0]
        x = [0] + [rng.randrange(2, p) for _ in range(case.n)]
        value = det_mod(reduced_laplacian(case.n, adj, x), p) if case.n > 1 else 1
        case.wpoint = (p, x[1:], value)
    case.member = {
        "threshold": is_threshold(case.n, adj),
        "ferrers": is_ferrers(case.n, adj),
        "special": case.member.get("special"),
    }
    return case


# ---------------------------------------------------------------------------
# Generators.  Each returns edges on 1..n in construction order; _case
# shuffles the labels.


def threshold_edges(n: int, share: float, rng: random.Random) -> tuple[list, str]:
    """Add vertices 1..n in order, each dominating (joined to all earlier)
    or isolated.  About ``share`` of them dominate, one drawn from each of
    equal slices of the order, so the edge count barely varies with the
    seed; the last one dominates, so the graph is connected."""
    k = max(1, round(share * (n - 1)))
    dom = {2 + int((i + rng.random()) * (n - 1) / k) for i in range(k)} | {n}
    roles = ["d" if v in dom else "i" for v in range(2, n + 1)]
    edges = [(u, v) for v in sorted(dom) for u in range(1, v)]
    return edges, "".join(roles)


def random_shape(rows: int, cols: int, rng: random.Random) -> list[int]:
    """A staircase with rows jittered around the diagonal, so the box count
    barely varies with the seed."""
    parts = sorted(
        (max(1, ceil(cols * (rows - i - rng.random()) / rows)) for i in range(rows)),
        reverse=True,
    )
    parts[0] = cols
    return parts


def independent_sets(n: int, adj) -> int:
    """Number of independent sets, the empty one included: the candidates
    the U-search tries before it gives up on a non-member."""
    closed = [0] + [(1 << v) | sum(1 << w for w in adj[v]) for v in range(1, n + 1)]
    memo: dict[int, int] = {}

    def count(mask: int) -> int:
        if mask == 0:
            return 1
        if mask in memo:
            return memo[mask]
        v = max(vertices_in(mask), key=lambda u: (closed[u] & mask).bit_count())
        total = count(mask & ~(1 << v)) + count(mask & ~closed[v])
        memo[mask] = total
        return total

    return count(((1 << n) - 1) << 1)


def vertices_in(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def median_draw(draw, key, tries: int = 5):
    """The draw with the median key among ``tries`` draws: keeps the seed's
    randomness while narrowing how much work one graph can bring."""
    draws = sorted((draw() for _ in range(tries)), key=key)
    return draws[tries // 2]


def ferrers_edges(parts: list[int]) -> tuple[int, list]:
    r = len(parts)
    return r + parts[0], [(i, r + j) for i, p in enumerate(parts, 1) for j in range(1, p + 1)]


def u_threshold_edges(n: int, u_size: int, rng: random.Random):
    """A construction order for a random U of the given size: every vertex
    enters isolated or joined to all earlier U-vertices (U-vertices by a
    coin flip, the others always).  Returns None when the draw is
    disconnected."""
    in_u = [True] * u_size + [False] * (n - u_size)
    rng.shuffle(in_u)
    in_u[0] = True
    edges = []
    earlier_u: list[int] = []
    for v in range(1, n + 1):
        dominating = v > 1 and earlier_u and (not in_u[v - 1] or rng.random() < 0.5)
        if dominating:
            edges.extend((u, v) for u in earlier_u)
        if in_u[v - 1]:
            earlier_u.append(v)
    if not connected(n, adjacency(n, edges)):
        return None
    return edges, sorted(v for v in range(1, n + 1) if in_u[v - 1])


def random_connected(n: int, m: int, rng: random.Random) -> list:
    """Random spanning tree plus m - n + 1 random extra edges."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u, v = rng.sample(range(1, n + 1), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def gnp_connected(n: int, p: float, rng: random.Random) -> list:
    while True:
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
        if connected(n, adjacency(n, edges)):
            return edges


def blocks_and_trees(n: int, rng: random.Random) -> tuple[list, list[str]]:
    """Blocks glued at cut vertices, then pendant trees up to n vertices.
    Blocks are cycles, dense random blocks, threshold blocks and Ferrers
    blocks, so some blocks are family members."""
    edges: list[tuple[int, int]] = []
    kinds: list[str] = []
    size = 1
    while size < n * 0.7:
        kind = rng.choice(("cycle", "dense", "threshold", "ferrers"))
        k = rng.randint(4, max(4, min(16, n // 4)))
        if kind == "cycle":
            local = [(i, i % k + 1) for i in range(1, k + 1)]
        elif kind == "dense":
            local = gnp_connected(k, 0.5, rng)
        elif kind == "threshold":
            local, _ = threshold_edges(k, 0.5, rng)
        else:
            k, local = ferrers_edges(random_shape(max(2, k // 2), max(2, k - k // 2), rng))
        if size + k - 1 > n:
            break
        glue = rng.randint(1, size)
        names = {1: glue}
        names.update({i: size + i - 1 for i in range(2, k + 1)})
        edges.extend((names[a], names[b]) for a, b in local)
        size += k - 1
        kinds.append(kind)
    while size < n:
        size += 1
        edges.append((rng.randint(1, size - 1), size))
    return sorted((min(a, b), max(a, b)) for a, b in edges), kinds


def split_with_net(clique: int, indep: int, p: float, rng: random.Random) -> list:
    """Split graph (clique 1..clique, independent rest) with a planted
    induced Net, a forbidden pattern for special 2-threshold graphs; split
    graphs have no induced 2K2, so the obstruction scan must go deep."""
    n = clique + indep
    edges = [(u, v) for u in range(1, clique + 1) for v in range(u + 1, clique + 1)]
    for x in range(clique + 1, n + 1):
        nbrs = [c for c in range(1, clique + 1) if rng.random() < p] or [rng.randint(1, clique)]
        edges.extend((c, x) for c in nbrs)
    # Net on clique vertices 1, 2, 3 and pendants clique+1..clique+3
    planted = {clique + 1: 1, clique + 2: 2, clique + 3: 3}
    edges = [
        (c, x)
        for c, x in edges
        if not (x in planted and c <= 3 and c != planted[x])
    ]
    edges.extend((c, x) for x, c in planted.items() if (c, x) not in edges)
    return sorted(set(edges))


# ---------------------------------------------------------------------------
# Suites


def _case(rng, name, n, edges, family, params, why, member=None) -> Case:
    return Case(name, n, relabel(n, edges, rng), family, params, why, member=dict(member or {}))


def _threshold(rng, name, n, share, why, m=None) -> Case:
    """Threshold member; with ``m``, the share is redrawn until the graph
    has exactly m edges (weighted closed-form cost follows m closely)."""
    for _ in range(2000):
        if m is not None:
            share = round(rng.uniform(0.1, 0.9), 3)
        edges, roles = threshold_edges(n, share, rng)
        if m is None or len(edges) == m:
            return _case(rng, name, n, edges, "threshold",
                         {"n": n, "dominating_share": share, "roles": roles}, why, {"special": True})
    raise RuntimeError(f"{name}: no threshold graph with {m} edges in 2000 draws")


def _ferrers(rng, name, rows, cols, why) -> Case:
    parts = random_shape(rows, cols, rng)
    n, edges = ferrers_edges(parts)
    return _case(rng, name, n, edges, "ferrers", {"shape": parts}, why, {"special": True})


def _special(rng, name, n, why, m=None) -> Case:
    """U-threshold member that is neither threshold nor Ferrers, with
    exactly ``m`` edges when m is given."""
    for _ in range(20000):
        u_size = n - rng.randint(2, 4)
        drawn = u_threshold_edges(n, u_size, rng)
        if drawn is None or (m is not None and len(drawn[0]) != m):
            continue
        edges, u_set = drawn
        adj = adjacency(n, edges)
        if not is_threshold(n, adj) and not is_ferrers(n, adj):
            return _case(rng, name, n, edges, "special-2-threshold",
                         {"n": n, "u_set": u_set}, why, {"special": True})
    raise RuntimeError(f"{name}: no special 2-threshold draw in 20000 tries")


def _non_member(rng, name, n, draw, params, why, key=None) -> Case:
    """Draw until the graph is connected and has an induced 2K2, which rules
    out all three families (2K2 is forbidden in each).  With ``key``, keep
    the median-key graph of several such draws."""

    def valid():
        for _ in range(1000):
            edges = draw()
            adj = adjacency(n, edges)
            if connected(n, adj) and sampled_2k2(edges, adj, rng) is not None:
                return edges
        raise RuntimeError(f"{name}: no draw with an induced 2K2 in 1000 tries")

    edges = valid() if key is None else median_draw(valid, lambda e: key(adjacency(n, e)))
    return _case(rng, name, n, edges, "general", params, why, {"special": False})


def suite_count_family(rng: random.Random) -> list[Case]:
    # Slots are sized so the percentiles fall inside plateaus of alike calls:
    # ranks 2-4 (three n = 300 graphs) around latency_p90_ms and ranks 13-20
    # (eight n = 60 graphs) around latency_p50_ms, not on a step between two
    # graphs.
    cases = []
    sizes = [(1000, 0.08)] + [(300, 0.3)] * 3 + [(200, 0.5), (150, 0.5), (100, 0.5), (80, 0.7)]
    sizes += [(60, 0.5)] * 8 + [(30, 0.5), (20, 0.5), (12, 0.5)]
    for i, (n, p) in enumerate(sizes):
        cases.append(_threshold(rng, f"thr{i:02d}", n, p,
                                "threshold: parse, O(n^2) peel, order check, formula"))
    for i, (r, c) in enumerate([(160, 140), (120, 100), (90, 80), (60, 50), (40, 30),
                                (25, 20), (15, 12), (8, 6)]):
        cases.append(_ferrers(rng, f"fer{i:02d}", r, c,
                              "Ferrers: failed peel, staircase recognition, formula"))
    for i, n in enumerate([24, 22, 20, 18, 16, 14, 12, 10]):
        cases.append(_special(rng, f"s2t{i:02d}", n,
                              "special 2-threshold: both recognizers fail, U-search hits"))
    return cases


def suite_count_general(rng: random.Random) -> list[Case]:
    # The five G(100, p) are the costliest calls, and eight G(50, p) (31-37 ms
    # each) take ranks 11-18 of 31 with ten cheaper calls below them, so
    # latency_p90_ms and latency_p50_ms fall inside plateaus.
    cases = []
    for i, n in enumerate([26, 30, 34, 38, 42, 44] + [50] * 8 + [100] * 5):
        cases.append(_non_member(
            rng, f"gnp{i:02d}", n, lambda n=n: gnp_connected(n, 0.4, rng), {"n": n, "p": 0.4},
            "dense G(n,p): no family, U-search capped, Bareiss on the full Laplacian"))
    for i, n in enumerate([30, 40, 50, 60, 70, 80, 90, 100, 105, 110, 115, 120]):
        kinds: list[str] = []

        def draw(n=n, kinds=kinds):
            edges, k = blocks_and_trees(n, rng)
            kinds[:] = k
            return edges

        case = _non_member(rng, f"blk{i:02d}", n, draw, {"n": n},
                           "blocks and pendant trees: what reductions before Bareiss would shrink")
        case.params["blocks"] = list(kinds)
        cases.append(case)
    return cases


def suite_classify(rng: random.Random) -> list[Case]:
    cases = []
    # Five alike at the top, so latency_p90_ms falls inside a plateau, and
    # seven n = 14 graphs next to the two smallest split graphs hold
    # latency_p50_ms.
    for i, n in enumerate([18] * 5 + [16] * 4 + [14] * 7):
        cases.append(_non_member(
            rng, f"spa{i:02d}", n, lambda n=n: random_connected(n, n + 2, rng),
            {"n": n, "m": n + 2}, "sparse non-member: U-search runs to exhaustion",
            key=lambda adj, n=n: independent_sets(n, adj)))
    for i, (k, s) in enumerate([(7, 9), (7, 9), (6, 9), (6, 9), (6, 7), (6, 7), (5, 7), (5, 7)]):
        p = rng.uniform(0.3, 0.6)
        n = k + s
        cases.append(_case(rng, f"spl{i:02d}", n, split_with_net(k, s, p, rng), "split",
                           {"clique": k, "independent": s, "p": round(p, 4)},
                           "2K2-free non-member with a planted Net: deep witness scan",
                           {"special": False}))
    for i, n in enumerate([24, 20, 16, 12]):
        cases.append(_threshold(rng, f"thr{i:02d}", n, 0.5, "threshold member: all recognizers hit"))
    for i, (r, c) in enumerate([(6, 5), (5, 5), (5, 4), (4, 3)]):
        cases.append(_ferrers(rng, f"fer{i:02d}", r, c, "Ferrers member: peel fails, staircase hits"))
    for i, n in enumerate([22, 18, 14, 11]):
        cases.append(_special(rng, f"s2t{i:02d}", n, "special 2-threshold member: U-search hits"))
    return cases


def probe_classify(rng: random.Random) -> list[Case]:
    """Family members above the U-search cap.  classify refuses them today
    (exit 3) although a cheaper recognizer has settled them; they run once
    per run outside the timed passes and are listed, never hidden."""
    return [
        _threshold(rng, "big_thr0", rng.randint(25, 32), 0.5, "threshold member above the U-search cap"),
        _threshold(rng, "big_thr1", rng.randint(33, 40), 0.5, "threshold member above the U-search cap"),
        _ferrers(rng, "big_fer0", 16, rng.randint(10, 16), "Ferrers member above the U-search cap"),
    ]


def suite_weighted(rng: random.Random) -> list[Case]:
    # Edge counts are fixed per slot: closed-form and perturbation costs grow
    # steeply with m, and a free m would let one graph dominate the pass.
    cases = []
    for i, (n, m) in enumerate([(8, 14), (8, 13), (7, 12), (7, 11), (6, 10), (6, 9)]):
        cases.append(_threshold(rng, f"thr{i:02d}", n, None, "threshold member: weighted closed form", m=m))
    for i, (r, c) in enumerate([(4, 4), (5, 3), (4, 3), (3, 3)]):
        cases.append(_ferrers(rng, f"fer{i:02d}", r, c, "Ferrers member: division-free closed form"))
    for i, (n, m) in enumerate([(8, 12), (7, 10), (7, 10), (6, 8)]):
        cases.append(_special(rng, f"s2t{i:02d}", n,
                              "special 2-threshold member: closed form with two divisions", m=m))
    # The perturbation's cost swings up to threefold with the vertex labels
    # (they fix the elimination order), and every shape's cost spreads by
    # 0.2-0.5 of its mean from graph to graph, so no single call is steady.
    # The percentiles are therefore placed inside large bands of alike calls:
    # about 80 calls of 10-20 ms ((5, 5), (6, 5) and four members) hold
    # latency_p50_ms, about 28 calls of 20-35 ms (mostly (5, 6)) hold
    # latency_p90_ms, and the costliest calls, the (6, 7) graphs, stay above
    # it.  (6, 6) and (7, 7) spread by half their mean with long tails and
    # are left out.
    sizes = [(6, 7)] * 4 + [(7, 6)] * 2 + [(5, 6)] * 24 + [(6, 5)] * 32 + [(5, 5)] * 44
    for i, (n, m) in enumerate(sizes):
        cases.append(_non_member(
            rng, f"gen{i:02d}", n, lambda n=n, m=m: random_connected(n, m, rng),
            {"n": n, "m": m}, "non-member: perturbation Bareiss over MultiPoly"))
    return cases


SUITES = {
    "count_family": suite_count_family,
    "count_general": suite_count_general,
    "classify": suite_classify,
    "weighted": suite_weighted,
}


def build_suite(workload: str, seed: int) -> tuple[list[Case], list[Case]]:
    """The workload's timed suite and its out-of-pass probe (may be empty),
    both with references, fully determined by (workload, seed)."""
    rng = random.Random(f"{workload}/{seed}")
    cases = SUITES[workload](rng)
    probe = probe_classify(rng) if workload == "classify" else []
    weighted = workload == "weighted"
    for case in cases + probe:
        with_references(case, rng, weighted)
    return cases, probe
