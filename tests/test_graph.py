import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from spantree import (
    EdgeListParseError,
    Graph,
    PartitionShape,
    complete,
    complete_multipartite,
    ferrers_graph,
    format_edge_list,
    induced_subgraph,
    parse_edge_list,
)
import spantree.graph
from sample_graphs import (
    FIXTURES,
    HOUSE_TAIL,
    K4,
    assert_simple,
    mask_of,
    partitions_up_to,
    vertices_of,
)


def test_graph_rejects_loops_and_bad_vertices():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(3, [(2, 4)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_graph_set_semantics():
    g = Graph(3, [(1, 2), (2, 1), (1, 2)])
    assert g.edge_count == 1
    assert g.edges() == ((1, 2),)


def test_complete():
    g = complete(4)
    assert g.edge_count == 6
    assert all(g.degree(v) == 3 for v in g.vertices)
    assert complete(1).edge_count == 0
    assert complete(5).edge_count == 10
    with pytest.raises(ValueError):
        complete(0)


def test_complete_multipartite():
    g = complete_multipartite([2, 3])
    assert g.edge_count == 6
    assert all(g.has_edge(u, v) for u in (1, 2) for v in (3, 4, 5))
    assert complete_multipartite([1, 1, 1, 1]) == complete(4)
    assert complete_multipartite([3]).edge_count == 0
    assert complete_multipartite([3]).n == 3
    with pytest.raises(ValueError):
        complete_multipartite([])
    with pytest.raises(ValueError):
        complete_multipartite([2, 0])


def test_complete_multipartite_joins_exactly_the_pairs_in_different_parts():
    # parts are built one by one against the later parts; check against
    # every vertex pair
    rng = random.Random(30)
    for _ in range(300):
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(1, 5))]
        part = [i for i, s in enumerate(sizes) for _ in range(s)]
        n = len(part)
        pairs = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if part[u - 1] != part[v - 1]
        ]
        g = complete_multipartite(sizes)
        assert g == Graph(n, pairs), sizes
        assert g.edges() == tuple(pairs), sizes


def test_ferrers_graph_labeling_and_degrees():
    g = ferrers_graph((3, 2, 2, 1))
    assert g.n == 7
    assert g.edge_count == 8
    # rows 1..4 carry the part sizes, columns 5..7 the conjugate
    assert [g.degree(v) for v in (1, 2, 3, 4)] == [3, 2, 2, 1]
    assert [g.degree(v) for v in (5, 6, 7)] == [4, 3, 1]
    assert ferrers_graph((1,)).edges() == ((1, 2),)
    assert ferrers_graph((2, 2)) == complete_multipartite([2, 2])


@pytest.mark.parametrize("shape", partitions_up_to(9))
def test_ferrers_graph_degree_invariants(shape):
    ps = PartitionShape(shape)
    g = ferrers_graph(ps)
    assert_simple(g)
    assert g.edge_count == ps.total
    conj = ps.conjugate()
    for i, part in enumerate(ps.parts, 1):
        assert g.degree(i) == part
    for j, part in enumerate(conj.parts, 1):
        assert g.degree(ps.rows + j) == part


def test_partition_shape_validation():
    # every way to build a named tuple checks the parts
    shape = PartitionShape((2, 1))
    replace, make = (lambda p: shape._replace(parts=p)), (lambda p: PartitionShape._make([p]))
    for parts in [(), (2, 3), (2, 0)]:
        for build in (PartitionShape, replace, make):
            with pytest.raises(ValueError):
                build(parts)
    assert shape._replace(parts=(3, 3)) == PartitionShape._make([(3, 3)]) == PartitionShape((3, 3))


def test_conjugate_examples():
    assert PartitionShape((3, 2, 2, 1)).conjugate().parts == (4, 3, 1)
    assert PartitionShape((1,)).conjugate().parts == (1,)
    assert PartitionShape((5,)).conjugate().parts == (1, 1, 1, 1, 1)


def test_conjugate_of_a_wide_shape_walks_the_parts_once():
    # rows x cols is 1.09e9 cells; the walk takes rows + cols steps
    assert PartitionShape((50_000,) * 21_800).conjugate().parts == (21_800,) * 50_000


@pytest.mark.parametrize("shape", partitions_up_to(10))
def test_conjugate_is_an_involution(shape):
    ps = PartitionShape(shape)
    assert ps.conjugate().conjugate() == ps


def test_induced_subgraph():
    sub, labels = induced_subgraph(HOUSE_TAIL, {1, 2, 3, 4})
    assert labels == (1, 2, 3, 4)
    assert sub.edges() == ((1, 2), (1, 4), (2, 3))  # a path 4-1-2-3
    whole, labels = induced_subgraph(HOUSE_TAIL, HOUSE_TAIL.vertices)
    assert whole == HOUSE_TAIL
    pair, _ = induced_subgraph(K4, {1, 2})
    assert pair == Graph(2, [(1, 2)])
    with pytest.raises(ValueError):
        induced_subgraph(K4, {1, 9})


def test_induced_subgraph_composes():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 9)
        g = Graph(
            n,
            [
                (u, v)
                for u in range(1, n + 1)
                for v in range(u + 1, n + 1)
                if rng.random() < 0.4
            ],
        )
        a = {v for v in g.vertices if rng.random() < 0.7}
        b = {v for v in g.vertices if rng.random() < 0.7}
        sub_a, labels_a = induced_subgraph(g, a)
        inner = {i for i, old in enumerate(labels_a, 1) if old in b}
        twice, labels_inner = induced_subgraph(sub_a, inner)
        direct, labels_direct = induced_subgraph(g, a & b)
        assert twice == direct
        assert tuple(labels_a[i - 1] for i in labels_inner) == labels_direct


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(1, 300)))
def test_vertices_of_round_trips_mask_of(vertices):
    # the bitmask helpers of the test references (the package keeps no
    # bitmask of a vertex set)
    mask = mask_of(vertices)
    assert vertices_of(mask) == sorted(vertices)
    assert mask_of(vertices_of(mask)) == mask


def test_constructors_produce_valid_graphs():
    for g in (HOUSE_TAIL, K4, complete(6), complete_multipartite([2, 3, 1]), ferrers_graph((4, 2, 1))):
        assert_simple(g)


def test_parse_edge_list_round_trip():
    for path in FIXTURES.glob("*.txt"):
        g = parse_edge_list(path.read_text(), source=path.name)
        assert_simple(g)
        again = parse_edge_list(format_edge_list(g))
        assert again == g


@pytest.mark.parametrize(
    "text",
    [
        "",  # empty
        "junk\n",  # bad header
        "3\n",  # header too short
        "3 1\n",  # missing edge line
        "3 1\n1 2\n2 3\n",  # extra edge line
        "3 1\n1 1\n",  # loop
        "3 1\n2 1\n",  # u >= v
        "3 2\n1 2\n1 2\n",  # duplicate
        "3 1\n1 4\n",  # out of range
        "3 1\n1 x\n",  # non-integer
        # forms int() reads but the format does not
        "1_2 0\n",
        "+4 1\n1 2\n",
        "4 1\n1 +2\n",
        "4 1\n1 2_0\n",
        "4 1\n1 \u0662\n",  # an Arabic-Indic two
        "0 0\n",  # no vertices
        "1000000000 0\n",  # more vertices than a header may declare
    ],
)
def test_parse_edge_list_rejects(text):
    with pytest.raises(EdgeListParseError):
        parse_edge_list(text)


@pytest.mark.parametrize("line", ["1", "1 2 3"])
def test_parse_edge_list_wants_two_fields_per_edge_line(line):
    with pytest.raises(EdgeListParseError) as exc:
        parse_edge_list(f"3 1\n{line}\n", source="g.txt")
    assert str(exc.value) == f"g.txt:2: edge line must be 'u v', got {line!r}"


def test_parse_edge_list_vertex_cap(monkeypatch):
    monkeypatch.setattr(spantree.graph, "MAX_PARSED_VERTICES", 5)
    assert parse_edge_list("5 1\n4 5\n").n == 5
    with pytest.raises(EdgeListParseError, match="exceeds the limit of 5 vertices"):
        parse_edge_list("6 1\n4 5\n")


def test_parsed_edges_are_sorted_whatever_the_file_order():
    text = "4 3\n3 4\n1 2\n2 3\n"
    assert spantree.graph._parse_bulk(text) is not None
    assert parse_edge_list(text).edges() == ((1, 2), (2, 3), (3, 4))


def test_parse_edge_list_comments_and_blanks():
    g = parse_edge_list("# leading comment\n\n3 1  # header\n1 2 # edge\n")
    assert g.n == 3 and g.edges() == ((1, 2),)
    # '+', '_' or text outside ASCII in a comment leave the fields readable
    for comment in ("# caf\u00e9", "# a+b", "# a_b"):
        g = parse_edge_list(f"{comment}\n3 2\n1 2\n1 3  {comment}\n")
        assert g.edges() == ((1, 2), (1, 3)), comment


# Text near the format (digits, blanks, comment marks, signs) and any text.
# Runs of five or more digits are left out: a header may ask for up to
# 100,000 vertices, and the graph is built with that many.
_edge_list_text = st.one_of(
    st.text(alphabet="0123456789 \t\n#-+.x", max_size=60),
    st.text(max_size=60),
).filter(lambda text: not re.search(r"[\d_]{5,}", text))


@settings(max_examples=150, deadline=None)
@given(_edge_list_text)
def test_parse_edge_list_raises_only_its_own_error(text):
    try:
        g = parse_edge_list(text)
    except EdgeListParseError:
        return
    assert_simple(g)


def _parse_outcome(parse, text):
    """The graph ``parse`` builds from ``text``, or its error message."""
    try:
        return parse(text)
    except EdgeListParseError as exc:
        return str(exc)


def _line_parser(text):
    return spantree.graph._parse_lines(text, "<input>")


# Field edits the format refuses or reads differently from int(): a leading
# zero is read, a sign, an underscore or a '#' right after the digits are not.
_FIELD_EDITS = ("{}",) * 12 + ("0{}", "00{}", "+{}", "-{}", "{}_0", "{}#")
# Field separators and line ends, the plain ones most often; '\x0b', '\x0c'
# and '\u2028' are whitespace to str.split() and line breaks to
# splitlines(), but neither to the format, so a text using them is refused.
_SEPARATORS = (" ",) * 4 + ("\t", " \t ", "\x0b", "\x0c", "\u2028")
_LINE_ENDS = ("\n",) * 6 + ("\r\n", "\x0b", "\x0c", "\u2028")


@st.composite
def _near_format_text(draw):
    """An edge list that is mostly well formed: a header over up to six
    vertices, edges mostly ordered and in range, then edits drawn
    from the characters and forms the line parser treats specially.  Half
    the texts take only each choice's first, plain option, so only their
    values vary."""
    plain = draw(st.booleans())

    def pick(choices):
        return draw(st.sampled_from(choices[:1] if plain else choices))

    n = draw(st.integers(0, 6))
    near = st.tuples(st.integers(0, n + 1), st.integers(0, n + 1))
    inside = st.tuples(st.integers(1, max(n, 1)), st.integers(1, max(n, 1))).map(sorted)
    edges = draw(st.lists(st.one_of(inside, inside, near), max_size=6))
    m = max(0, len(edges) + draw(st.sampled_from((0, 0, 0, 0, 1, -1))))
    lines = []
    for row in [(n, m), *edges]:
        fields = [pick(_FIELD_EDITS).format(x) for x in row]
        fields = (fields + [str(n)])[: pick((2, 2, 2, 2, 1, 3))]
        indent, tail = pick(("", "", " ", "\t")), pick(("", "", " ", " # c"))
        lines.append(indent + pick(_SEPARATORS).join(fields) + tail)
        if draw(st.integers(0, 7)) == 0:
            lines.append(pick(("", " ", "# c", "\t#")))
    text = "".join(line + pick(_LINE_ENDS) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\n")


@settings(max_examples=300, deadline=None)
@given(_near_format_text())
def test_bulk_and_line_parsers_agree(text):
    # the bulk path builds the line parser's graph or declines, and
    # parse_edge_list builds that graph or raises the same message
    expected = _parse_outcome(_line_parser, text)
    got = _parse_outcome(parse_edge_list, text)
    bulk = spantree.graph._parse_bulk(text)
    if isinstance(expected, str):
        assert got == expected
        assert bulk is None
        return
    for g in (got, bulk) if bulk is not None else (got,):
        assert isinstance(g, Graph)
        assert g == expected
        assert g._neighbors == expected._neighbors
        assert hash(g) == hash(expected)
        # the bulk path's kept pairs, sorted, are the edges rebuilt from
        # the line parser's neighbor sets
        assert g.edges() == expected.edges()


#: The layout the bulk path reads, once the text's leading and trailing
#: blanks and line ends are stripped: lines of two canonical numbers joined
#: by one space, with tabs beside either number.
_BULK_SHAPE = re.compile(r"(?:\t*(?:0|[1-9][0-9]*)\t* \t*(?:0|[1-9][0-9]*)\t*(?:\n|\Z))+")


@settings(max_examples=300, deadline=None)
@given(_near_format_text())
def test_bulk_path_reads_exactly_the_well_formed_texts_of_its_layout(text):
    shaped = _BULK_SHAPE.fullmatch(text.strip(" \t\n")) is not None
    well_formed = isinstance(_parse_outcome(_line_parser, text), Graph)
    assert (spantree.graph._parse_bulk(text) is not None) == (shaped and well_formed)


_MALFORMED = {
    "duplicate-written-v-u": (
        "3 2\n1 2\n2 1\n",
        "g.txt:3: edge 2 1 must satisfy 1 <= u < v <= 3",
    ),
    "duplicate": ("3 2\n1 2\n1 2\n", "g.txt:3: duplicate edge 1 2"),
    "duplicate-crlf": ("3 2\r\n1 3\r\n1 3\r\n", "g.txt:3: duplicate edge 1 3"),
    "loop": ("3 1\n2 2\n", "g.txt:2: loop edge 2 2"),
    "out-of-range": ("3 1\n1 4\n", "g.txt:2: edge 1 4 must satisfy 1 <= u < v <= 3"),
    "reversed": ("3 1\n2 1\n", "g.txt:2: edge 2 1 must satisfy 1 <= u < v <= 3"),
    "vertex-zero": ("3 1\n0 2\n", "g.txt:2: edge 0 2 must satisfy 1 <= u < v <= 3"),
    # the bulk path checks these inside its build loop, or on list 0 after it
    "vertex-zero-first": (
        "3 2\n0 2\n1 3\n",
        "g.txt:2: edge 0 2 must satisfy 1 <= u < v <= 3",
    ),
    "vertex-zero-last": (
        "3 2\n1 2\n0 3\n",
        "g.txt:3: edge 0 3 must satisfy 1 <= u < v <= 3",
    ),
    "v-is-n-plus-1": ("3 2\n1 2\n2 4\n", "g.txt:3: edge 2 4 must satisfy 1 <= u < v <= 3"),
    "both-above-n": ("3 2\n1 2\n4 5\n", "g.txt:3: edge 4 5 must satisfy 1 <= u < v <= 3"),
    # past an index-sized int: the bulk path's list index raises IndexError too
    "label-past-any-index": (
        "3 1\n1 100000000000000000000\n",
        "g.txt:2: edge 1 100000000000000000000 must satisfy 1 <= u < v <= 3",
    ),
    "reversed-after-valid": (
        "3 3\n1 2\n1 3\n3 2\n",
        "g.txt:4: edge 3 2 must satisfy 1 <= u < v <= 3",
    ),
    "duplicate-in-sorted-order": ("3 3\n1 2\n1 3\n1 3\n", "g.txt:4: duplicate edge 1 3"),
    "out-of-range-commented": (
        "# c\n3 1\n2 9  # far\n",
        "g.txt:3: edge 2 9 must satisfy 1 <= u < v <= 3",
    ),
    "too-few-edge-lines": (
        "3 2\n1 2\n",
        "g.txt: header promises 2 edges but 1 edge lines found",
    ),
    "too-many-edge-lines": (
        "3 1\n1 2\n2 3\n",
        "g.txt: header promises 1 edges but 2 edge lines found",
    ),
    "one-field": ("3 1\n1\n", "g.txt:2: edge line must be 'u v', got '1'"),
    "three-fields": ("3 1\n1 2 3\n", "g.txt:2: edge line must be 'u v', got '1 2 3'"),
    "no-vertices": ("0 0\n", "g.txt:1: need n >= 1 and m >= 0, got n=0 m=0"),
    "past-the-vertex-limit": (
        "100001 0\n",
        "g.txt:1: n=100001 exceeds the limit of 100000 vertices",
    ),
    # past int()'s digit limit: the bulk path declines, the line parser words it
    "huge-edge-field": (
        "3 1\n1 " + "2" * 100_000 + "\n",
        "g.txt:2: edge line must be two integers, got '1 " + "2" * 100_000 + "'",
    ),
    # one field: the bulk path's shape check declines it before any decode
    "huge-single-field": (
        "2" * 100_000 + "\n",
        "g.txt:1: header must be 'n m', got '" + "2" * 100_000 + "'",
    ),
    "huge-header-field": (
        "2" * 100_000 + " 0\n",
        "g.txt:1: header must be two integers, got '" + "2" * 100_000 + " 0'",
    ),
}


@pytest.mark.parametrize("case", _MALFORMED)
def test_malformed_edge_lists_keep_their_messages(case):
    text, message = _MALFORMED[case]
    for parse in (parse_edge_list, spantree.graph._parse_lines):
        with pytest.raises(EdgeListParseError) as exc:
            parse(text, source="g.txt")
        assert str(exc.value) == message
    assert spantree.graph._parse_bulk(text) is None


def test_well_formed_text_skips_the_line_parser(monkeypatch):
    # text that JSON decodes once its spaces and line ends are commas; the
    # layouts it does not decode are in _DECODE_PATHS
    def refuse(text, source):
        raise AssertionError("line parser called")

    texts = ["3 2\n1 2\n2 3\n", "\n 3 \t2\n1 2\n2\t 3 ", "1 0", "4 1\n1 \t4\n\n"]
    expected = [_line_parser(text) for text in texts]
    monkeypatch.setattr(spantree.graph, "_parse_lines", refuse)
    for text, g in zip(texts, expected):
        assert parse_edge_list(text) == g


# Texts by the step that settles them.  The shape check passes a body
# whose every line joins two fields by one space, with tabs beside it, and
# JSON then decodes the comma-joined fields unless one is not a canonical
# number ("invalid"); any other blank layout or a '\r' is declined before
# the decode.  Every text the bulk path leaves goes to the line parser.
_DECODE_PATHS = {
    "canonical": ("4 3\n1 2\n2 3\n3 4\n", "json"),
    "tab-beside-a-space": ("4 3\n1 \t2\n2\t 3\n3 4\n", "json"),
    "leading-zero": ("4 3\n01 2\n2 3\n3 4\n", "invalid"),
    "tab-then-space": ("4 1\n1\t2 3\n", "invalid"),
    "tab": ("4 3\n1\t2\n2 3\n3 4\n", "declined"),
    "blank-run": ("4 3\n1  2\n2 3\n3 4\n", "declined"),
    "blank-line": ("4 3\n1 2\n\n2 3\n3 4\n", "declined"),
    "trailing-blanks": ("4 3  \n1 2 \n2 3\n3 4\n", "declined"),
    "carriage-return": ("4 3\r\n1 2\r\n2 3\r\n3 4\r\n", "declined"),
}

#: What ``_parse_bulk`` and then ``parse_edge_list`` record, by path.
_DECODE_RECORDS = {
    "json": (["json"], ["json"]),
    "invalid": (["invalid"], ["invalid", "lines"]),
    "declined": ([], ["lines"]),
}


@pytest.mark.parametrize("case", _DECODE_PATHS)
def test_bulk_decode_paths(case, monkeypatch):
    text, path = _DECODE_PATHS[case]
    expected = _parse_outcome(_line_parser, text)
    decoded = []
    loads, parse_lines = spantree.graph.json.loads, spantree.graph._parse_lines

    def spy(s):
        try:
            ints = loads(s)
        except ValueError:
            decoded.append("invalid")
            raise
        decoded.append("json")
        return ints

    def lines(text, source):
        decoded.append("lines")
        return parse_lines(text, source)

    monkeypatch.setattr(spantree.graph.json, "loads", spy)
    monkeypatch.setattr(spantree.graph, "_parse_lines", lines)
    bulk_records, parse_records = _DECODE_RECORDS[path]
    g = spantree.graph._parse_bulk(text)
    assert decoded == bulk_records
    if path == "json":
        assert g == expected and g.edges() == expected.edges()
        assert g._neighbors == expected._neighbors
    else:
        assert g is None
    decoded.clear()
    g = _parse_outcome(parse_edge_list, text)
    assert decoded == parse_records
    assert g == expected
    if isinstance(expected, Graph):
        assert g.edges() == expected.edges()
        assert g._neighbors == expected._neighbors


@st.composite
def _written_graph(draw):
    """A random simple graph on up to 8 vertices, as (n, its edges in the
    order its text lists them): sorted or shuffled."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return n, sorted(edges) if draw(st.booleans()) else edges


@settings(max_examples=300, deadline=None)
@given(_written_graph())
def test_bulk_graph_keeps_its_pairs_exactly_when_they_ascend(written):
    n, edges = written
    text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    g = spantree.graph._parse_bulk(text)
    expected = Graph(n, edges)
    assert g == expected
    assert g._ascending == (edges == sorted(edges))
    assert g.edges() == expected.edges()
    assert spantree.graph._edges_json(g, text) == json.dumps(expected.edges())


def test_the_package_s_own_layout_takes_the_fast_echo(monkeypatch):
    # format_edge_list writes sorted "u v" lines, so the JSON edge array is
    # written from the text and no edge tuple is built
    graphs = [Graph(1), Graph(5), HOUSE_TAIL, K4, complete_multipartite([2, 3, 1])]
    texts = [format_edge_list(g) for g in graphs]
    expected = [json.dumps(g.edges()) for g in graphs]
    parsed = [parse_edge_list(text) for text in texts]

    def refuse(self):
        raise AssertionError("edges() called")

    monkeypatch.setattr(Graph, "edges", refuse)
    for g, text, array in zip(parsed, texts, expected):
        assert spantree.graph._edges_json(g, text) == array


@pytest.mark.parametrize(
    "text",
    [
        "4 3\n2 4\n1 2\n1 3\n",  # unsorted lines
        "4 3\n1 \t2\n1 3\n2 4\n",  # a tab beside a space
        "4 3\r\n1 2\r\n1 3\r\n2 4\r\n",  # read by the line parser
        "4 3 # c\n1 2\n1 3\n2 4",  # a comment
    ],
)
def test_other_layouts_echo_the_sorted_edges(text):
    g = parse_edge_list(text)
    assert spantree.graph._edges_json(g, text) == "[[1, 2], [1, 3], [2, 4]]"


def test_parse_edge_list_at_the_vertex_limit():
    # the largest header allowed: a 100,000-vertex path and an edgeless graph
    n = spantree.graph.MAX_PARSED_VERTICES
    assert n == 100_000
    path = parse_edge_list(f"{n} {n - 1}\n" + "".join(f"{v} {v + 1}\n" for v in range(1, n)))
    assert (path.n, path.edge_count) == (n, n - 1)
    assert path.neighbors(1) == {2} and path.neighbors(n) == {n - 1}
    empty = parse_edge_list(f"{n} 0\n")
    assert (empty.n, empty.edge_count) == (n, 0)


def test_repr_round_trips_and_equality_refuses_other_types():
    for g in (Graph(1), HOUSE_TAIL, complete(4)):
        assert eval(repr(g)) == g
    assert (Graph(1) == 1) is False
