"""Immutable simple graphs on vertices 1..n, family constructors, and the
edge-list text format used by the CLI."""

from __future__ import annotations

import json
import re
from typing import Iterable, NamedTuple

from .errors import EdgeListParseError


class Graph:
    """Simple undirected graph on vertices 1..n.

    No loops, no parallel edges; adjacency is symmetric by construction.
    Instances are immutable values, safe to share; operations that look like
    mutation return new graphs.  Vertices are 1-indexed throughout the
    package so worked examples keep their positional labels.

    Adjacency is one frozenset of neighbors per vertex, and nothing else:
    recognition, routing and the witness scans all read these sets, so a
    graph takes O(n + m) space whatever its labels.  A graph read by the
    bulk parser from a text that lists its edges strictly ascending keeps
    those pairs, so ``edges`` returns them unsorted and the CLI's JSON
    echo of them is written from the text (``_edges_json``).
    """

    __slots__ = ("n", "_neighbors", "_pairs")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        self.n = n
        adj: list[set[int]] = [set() for _ in range(n + 1)]
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u}, {v}) out of range 1..{n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            adj[u].add(v)
            adj[v].add(u)
        self._neighbors = tuple(frozenset(s) for s in adj)
        self._pairs: tuple[list[int], list[int]] | None = None

    @classmethod
    def _from_neighbors(
        cls,
        n: int,
        neighbors: tuple[frozenset[int], ...],
        pairs: tuple[list[int], list[int]] | None,
    ) -> Graph:
        """The graph on 1..n whose neighbor sets (entry 0 empty) the caller
        has already built symmetric and loop-free from its edges.  ``pairs``
        is None or those edges as the lists (us, vs) of their ends, sorted
        strictly ascending with each u < v: nothing is checked again."""
        g = object.__new__(cls)
        g.n = n
        g._neighbors = neighbors
        g._pairs = pairs
        return g

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (u, v) pairs with u < v, sorted: the parser's pairs
        when it kept them (only sorted ones are kept), else rebuilt from
        the neighbor sets and sorted."""
        if self._pairs is not None:
            return tuple(zip(*self._pairs))
        return tuple(
            sorted((u, v) for u in self.vertices for v in self._neighbors[u] if u < v)
        )

    @property
    def edge_count(self) -> int:
        return sum(len(self._neighbors[v]) for v in self.vertices) // 2

    def check_vertex(self, v: int) -> None:
        if not (1 <= v <= self.n):
            raise ValueError(f"vertex {v} out of range 1..{self.n}")

    def neighbors(self, v: int) -> frozenset[int]:
        self.check_vertex(v)
        return self._neighbors[v]

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return len(self._neighbors[v])

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return v in self._neighbors[u]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._neighbors == other._neighbors

    def __hash__(self) -> int:
        return hash((self.n, self._neighbors))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {list(self.edges())!r})"


class PartitionShape(NamedTuple("PartitionShape", [("parts", tuple[int, ...])])):
    """A weakly decreasing sequence of positive integers.

    Generates staircase-shaped bipartite graphs via :func:`ferrers_graph`;
    ``parts[i]`` is the number of boxes in row i+1 of the diagram.  Every
    construction checks the parts, ``_make`` and ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int]) -> PartitionShape:
        parts = tuple(parts)
        if not parts:
            raise ValueError("shape must have at least one part")
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"parts must be positive, got {p}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
        return super().__new__(cls, parts)

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def rows(self) -> int:
        return len(self.parts)

    @property
    def cols(self) -> int:
        return self.parts[0]

    @property
    def total(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "PartitionShape":
        """Transpose of the diagram: part j of the result counts rows with at
        least j boxes.  One walk up the weakly decreasing parts: O(rows +
        cols)."""
        rows, conj = self.rows, []
        for j in range(1, self.cols + 1):
            while self.parts[rows - 1] < j:
                rows -= 1
            conj.append(rows)
        return PartitionShape(conj)


def complete(n: int) -> Graph:
    """The graph on n >= 1 vertices in which every pair is an edge."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    return complete_multipartite([1] * n)


def _part_sizes(sizes: Iterable[int]) -> list[int]:
    """``sizes`` as a list; ValueError when there is no part or one is not positive."""
    sizes = list(sizes)
    if not sizes:
        raise ValueError("need at least one part")
    if any(s < 1 for s in sizes):
        raise ValueError(f"part sizes must be positive, got {sizes}")
    return sizes


def complete_multipartite(sizes: Iterable[int]) -> Graph:
    """Vertices grouped contiguously by part, in input order; two vertices
    form an edge iff they lie in different parts.  Each part is joined to
    the later ones, so the build is O(n + m) even with no edges."""
    sizes = _part_sizes(sizes)
    n = sum(sizes)
    edges, end = [], 0
    for s in sizes:
        edges += [(u, v) for u in range(end + 1, end + s + 1) for v in range(end + s + 1, n + 1)]
        end += s
    return Graph(n, edges)


def ferrers_graph(shape: PartitionShape | Iterable[int]) -> Graph:
    """Bipartite graph of a diagram: row i and column j are adjacent iff the
    diagram has a box at (i, j), i.e. j <= parts[i-1].

    Rows are labeled 1..m and columns m+1..m+cols, so the vertex order is
    rows first, then columns, each by diagram index.
    """
    if not isinstance(shape, PartitionShape):
        shape = PartitionShape(shape)
    m = shape.rows
    edges = [
        (i, m + j) for i, length in enumerate(shape.parts, 1) for j in range(1, length + 1)
    ]
    return Graph(m + shape.cols, edges)


def induced_subgraph(g: Graph, w: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Restriction of g to the vertex subset w, relabeled 1..|w|.

    Returns (subgraph, labels) where labels[i-1] is the original vertex that
    became vertex i; labels are ascending.  Only the kept vertices'
    neighbor sets are read.
    """
    kept = set(w)
    keep = sorted(kept)
    for v in keep:
        g.check_vertex(v)
    return _relabeled(keep, [(u, v) for v in keep for u in g._neighbors[v] if u < v and u in kept])


def _relabeled(keep: list[int], edges: Iterable[tuple[int, int]]) -> tuple[Graph, tuple[int, ...]]:
    """The ascending vertices ``keep`` and ``edges`` among them, relabeled
    1..len(keep), as ``induced_subgraph`` returns them."""
    index = {v: i for i, v in enumerate(keep, 1)}
    return Graph(len(keep), [(index[u], index[v]) for u, v in edges]), tuple(keep)


#: The block of every bridge; graphs are immutable, so all bridges share it.
_K2 = Graph(2, [(1, 2)])


def blocks(g: Graph) -> list[tuple[Graph, tuple[int, ...]]] | None:
    """Biconnected components of a connected graph, or None when g is
    disconnected.

    Each block comes as (subgraph, labels) like ``induced_subgraph``: the
    block relabeled 1..k, labels[i-1] the original vertex i.  A bridge is a
    block with two vertices, one shared K2 for all bridges; a graph with one
    vertex is one block, and a 2-connected graph is its own one block, g
    itself with labels 1..n.  Tarjan's depth-first search runs on an explicit
    stack, so deep graphs need no recursion, and each block's edges are
    popped off the search's edge stack: O(n + m) in all.
    """
    if g.n == 0:
        return []
    nbrs = g._neighbors
    disc = [0] * (g.n + 1)
    low = [0] * (g.n + 1)
    disc[1] = low[1] = clock = 1
    stack = [(1, 0, iter(nbrs[1]))]
    edge_stack: list[tuple[int, int]] = []
    found: list[list[tuple[int, int]]] = []
    while stack:
        v, parent, it = stack[-1]
        for w in it:
            if not disc[w]:
                clock += 1
                disc[w] = low[w] = clock
                edge_stack.append((v, w))
                stack.append((w, v, iter(nbrs[w])))
                break
            if w != parent and disc[w] < disc[v]:
                edge_stack.append((v, w))  # back edge, pushed from below
                low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:  # u separates v's subtree: a block ends
                    edges = []
                    while True:
                        e = edge_stack.pop()
                        edges.append(e)
                        if e == (u, v):
                            break
                    found.append(edges)
    if clock < g.n:
        return None
    if not found:
        return [(Graph(1), (1,))]
    if len(found) == 1 and len(found[0]) > 1:  # g is 2-connected: its own block
        return [(g, tuple(g.vertices))]
    return [
        (_K2, tuple(sorted(edges[0])))  # a bridge
        if len(edges) == 1
        else _relabeled(sorted({x for e in edges for x in e}), edges)
        for edges in found
    ]


def parse_int(token: str) -> int:
    """The integer written in ``token``: ASCII decimal digits, with an
    optional leading minus so that a negative value reaches the range check
    that names it.  What else ``int()`` takes (a plus sign, underscores,
    surrounding spaces, other scripts' digits) raises ValueError."""
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {token!r}")
    return int(token)


#: Largest vertex count an edge-list header may declare; a graph is built
#: with one neighbor set per vertex, so a short file must not ask for more.
MAX_PARSED_VERTICES = 100_000


def parse_edge_list(text: str, *, source: str = "<input>") -> Graph:
    """Parse the package's edge-list format.

    Line 1 is "n m" with 1 <= n <= MAX_PARSED_VERTICES; each of the
    following m lines is "u v" with 1 <= u < v <= n.  Fields are separated
    by spaces or tabs, lines end at '\\n', '\\r\\n' or '\\r', '#' starts a
    comment, and blank lines are ignored.
    Duplicate or loop edges, and any deviation from the format, raise
    :class:`EdgeListParseError`.

    A well-formed text whose lines each join two fields by one space (tabs
    may sit beside it), with '\\n' line ends and no blank line, comment or
    leading zero, is read in bulk; that path accepts a subset of what the
    line parser accepts and builds the same graph.  Every other text goes
    to the line parser, which words every error.
    """
    g = _parse_bulk(text)
    return g if g is not None else _parse_lines(text, source)


#: Deletes the ASCII digits and tabs of a text: what is left of a text
#: whose every line joins two fields by one space is one space a line.
_DIGITS_AND_TABS = str.maketrans("", "", "0123456789\t")


def _parse_bulk(text: str) -> Graph | None:
    """The graph in ``text`` read in one tokenizing pass and one build
    loop; None for any text not proved well formed here, which the line
    parser then reads or rejects.

    The body is the text without its leading and trailing blanks and line
    ends.  Deleting its digits and tabs must leave one space on each line
    and nothing else but the line ends: then each line holds one space and
    otherwise only digits and tabs.  The fields are decoded by
    ``json.loads`` once each space and line end becomes a comma.  JSON
    reads that array only when every comma sits between two digit runs (a
    tab is JSON whitespace, so it may sit beside the comma), and then its
    ints are exactly the tokens, two a line.  A tab alone between two
    fields, two spaces, a blank line or a '\\r' fails the first test; a
    leading zero, an empty field or a field past ``int()``'s digit limit
    fails the decode.  Those texts are left to the line parser.

    The loop that builds the neighbor lists checks each pair as it goes: a
    pair with u >= v declines, a label above n declines on its list's
    IndexError, and a label 0 is the only way list 0 fills, which is
    checked once after the loop.  Once every pair has 1 <= u < v <= n, a
    duplicate edge is the only way the neighbor sets can hold fewer than
    2m entries.  The loop also notes whether the pairs come strictly
    ascending, u first, then v; the graph keeps them only then, so that
    ``Graph.edges`` and ``_edges_json`` need no sort.
    """
    body = text.strip(" \t\n")
    if body.translate(_DIGITS_AND_TABS) != " \n" * body.count("\n") + " ":
        return None
    try:
        ints = json.loads("[" + body.replace(" ", ",").replace("\n", ",") + "]")
    except ValueError:
        return None
    n, m = ints[0], ints[1]
    if not (1 <= n <= MAX_PARSED_VERTICES and len(ints) == 2 * m + 2):
        return None
    us, vs = ints[2::2], ints[3::2]
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    ascending, last_u, last_v = True, 0, 0
    try:
        for u, v in zip(us, vs):
            if u >= v:
                return None
            adj[u].append(v)
            adj[v].append(u)
            if u != last_u:
                if u < last_u:
                    ascending = False
                last_u = u
            elif v <= last_v:
                ascending = False
            last_v = v
    except IndexError:  # a label above n
        return None
    if adj[0]:  # a label 0
        return None
    neighbors = tuple(map(frozenset, adj))
    if sum(map(len, neighbors)) != 2 * m:
        return None
    return Graph._from_neighbors(n, neighbors, (us, vs) if ascending else None)


def _edges_json(g: Graph, text: str) -> str:
    """``json.dumps(g.edges())`` for the graph g that ``parse_edge_list``
    read from ``text``.  When g kept its pairs, the bulk parser read it
    from a text that lists them strictly ascending.  If that body also
    holds no tab, each edge line is ``u v`` in canonical digits and the
    lines are the array's items in order: the array is then the text after
    the header with each space made ", " and each line end "], [".  Every
    other graph is encoded from its sorted edges."""
    if g._pairs is not None and "\t" not in (body := text.strip(" \t\n")):
        edges = body.partition("\n")[2]
        return "[[" + edges.replace(" ", ", ").replace("\n", "], [") + "]]" if edges else "[]"
    return json.dumps(g.edges())


#: The line parser's separators: lines end at '\n', '\r\n' or '\r', and
#: fields are separated by runs of spaces and tabs.  Any other character,
#: other Unicode whitespace included, stays in its field for the checks.
_LINE_END = re.compile(r"\r\n?|\n")
_FIELD_GAP = re.compile(r"[ \t]+")


def _parse_lines(text: str, source: str) -> Graph:
    """``parse_edge_list`` line by line, for every text the bulk path
    declines: comments, '\\r' line ends, other runs of spaces and tabs,
    and every error, each raised as :class:`EdgeListParseError` naming its
    line."""

    def fail(lineno: int, msg: str) -> EdgeListParseError:
        return EdgeListParseError(f"{source}:{lineno}: {msg}")

    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(_LINE_END.split(text), 1):
        data = raw.split("#", 1)[0].strip(" \t")
        if data:
            rows.append((lineno, _FIELD_GAP.split(data)))
    if not rows:
        raise EdgeListParseError(f"{source}: empty input, expected 'n m' header")

    lineno, header = rows[0]
    if len(header) != 2:
        raise fail(lineno, f"header must be 'n m', got {' '.join(header)!r}")
    try:
        n, m = parse_int(header[0]), parse_int(header[1])
    except ValueError:
        raise fail(lineno, f"header must be two integers, got {' '.join(header)!r}")
    if n < 1 or m < 0:
        raise fail(lineno, f"need n >= 1 and m >= 0, got n={n} m={m}")
    if n > MAX_PARSED_VERTICES:
        raise fail(lineno, f"n={n} exceeds the limit of {MAX_PARSED_VERTICES} vertices")
    if len(rows) - 1 != m:
        raise EdgeListParseError(
            f"{source}: header promises {m} edges but {len(rows) - 1} edge lines found"
        )

    seen: set[tuple[int, int]] = set()
    for lineno, fields in rows[1:]:
        if len(fields) != 2:
            raise fail(lineno, f"edge line must be 'u v', got {' '.join(fields)!r}")
        try:
            u, v = parse_int(fields[0]), parse_int(fields[1])
        except ValueError:
            raise fail(lineno, f"edge line must be two integers, got {' '.join(fields)!r}")
        if u == v:
            raise fail(lineno, f"loop edge {u} {v}")
        if not (1 <= u < v <= n):
            raise fail(lineno, f"edge {u} {v} must satisfy 1 <= u < v <= {n}")
        if (u, v) in seen:
            raise fail(lineno, f"duplicate edge {u} {v}")
        seen.add((u, v))
    return Graph(n, seen)


def format_edge_list(g: Graph) -> str:
    """Render a graph in the edge-list format accepted by parse_edge_list."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
