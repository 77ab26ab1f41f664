import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from spantree import (
    ConstructionOrder,
    Graph,
    PartitionShape,
    complete,
    ferrers_graph,
    format_edge_list,
    matrix_tree_count,
    parse_edge_list,
    threshold_order,
    weighted_count_threshold,
    weighted_matrix_tree_count,
    weighted_oracle,
    weighted_perturbation_count,
)
import spantree.cli
import spantree.recognition
from spantree.cli import main
from spantree.graph import MAX_PARSED_VERTICES
from sample_graphs import FIXTURES, SPECIAL26

FAMILY_FIXTURES = {
    "k4.txt": 16,
    "k23.txt": 12,
    "threshold5.txt": 8,
    "special5.txt": 8,
    "ferrers3221.txt": 12,
}
ALL_COUNTS = dict(
    FAMILY_FIXTURES,
    **{"house_with_tail.txt": 11, "c5.txt": 5, "two_k2.txt": 0, "uthreshold8.txt": 160},
)


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_count_auto_on_fixtures(capsys):
    for name, expected in ALL_COUNTS.items():
        payload = run_json(capsys, "count", fixture(name), "--json")
        assert payload["count"] == expected, name
        assert payload["polynomial"] is None


def test_count_methods_agree_on_fixtures(capsys):
    for name, expected in ALL_COUNTS.items():
        for method in ("matrix-tree", "perturbation", "oracle"):
            payload = run_json(capsys, "count", fixture(name), "--method", method, "--json")
            assert payload["count"] == expected, (name, method)
            assert payload["method"] == method


def test_count_formula_matches_matrix_tree_where_applicable(capsys):
    for name in ALL_COUNTS:
        code, out, err = run(capsys, "count", fixture(name), "--method", "formula", "--json")
        if code == 2:
            assert name in ("house_with_tail.txt", "c5.txt", "two_k2.txt")
            continue
        formula = json.loads(out)
        cofactor = run_json(capsys, "count", fixture(name), "--method", "matrix-tree", "--json")
        assert formula["count"] == cofactor["count"], name
        assert formula["method"].startswith("formula:")


def test_count_human_output(capsys):
    code, out, err = run(capsys, "count", fixture("house_with_tail.txt"))
    assert code == 0
    assert out.startswith("11 (method: blocks)")


def test_bad_jobs_and_search_limit_exit_2(capsys):
    # the oracle runs in one process, so count has no --jobs; no command
    # has a search limit: recognition and witnesses are uncapped
    for argv in (
        ("count", fixture("k4.txt"), "--method", "oracle", "--jobs", "2"),
        ("classify", fixture("k4.txt"), "--u-search-limit", "5"),
        ("count", fixture("k4.txt"), "--u-search-limit", "5"),
        ("weighted", fixture("k4.txt"), "--u-search-limit", "5"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv


def test_count_verify(capsys):
    code, out, err = run(capsys, "count", fixture("threshold5.txt"), "--verify")
    assert code == 0
    assert "oracle check: 8 ok" in out


def test_count_takes_the_edge_count_only_under_verify(capsys, monkeypatch):
    # the edge count sizes the oracle's guard, which only --verify runs
    reads, edge_count = [], Graph.edge_count
    counted = property(lambda g: reads.append(g.n) or edge_count.fget(g))
    monkeypatch.setattr(Graph, "edge_count", counted)
    path = fixture("threshold5.txt")
    assert run(capsys, "count", path) == (0, "8 (method: formula:threshold)\n", "")
    assert reads == []
    assert run(capsys, "count", path, "--verify")[0] == 0
    assert reads and set(reads) == {5}


def test_count_verify_exits_4_when_the_oracle_disagrees(capsys, monkeypatch):
    formula = spantree.cli.special_2_threshold_count
    monkeypatch.setattr(spantree.cli, "special_2_threshold_count", lambda g, co: formula(g, co) + 1)
    code, out, err = run(capsys, "count", fixture("threshold5.txt"), "--verify")
    assert (code, out) == (4, "")
    assert err == "internal error: oracle disagrees: method formula:threshold gave 9, oracle 8\n"


@pytest.mark.parametrize("method", ["oracle", "auto"])
def test_count_verify_runs_the_oracle_once(capsys, monkeypatch, method):
    # an oracle answer is its own check, so no method counts the subsets twice
    calls, oracle = [], spantree.cli.oracle_count
    monkeypatch.setattr(
        spantree.cli, "oracle_count", lambda *a, **k: calls.append(a) or oracle(*a, **k)
    )
    argv = ("count", fixture("house_with_tail.txt"), "--method", method, "--verify")
    code, out, err = run(capsys, *argv)
    assert (code, err, len(calls)) == (0, "", 1)
    assert out.endswith("\noracle check: 11 ok\n")
    # over the edge limit the guard still refuses before any output
    monkeypatch.setenv("SPANTREE_ORACLE_LIMIT", "3")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "") and err.startswith("error: oracle enumeration over 7 edges")


def test_count_complete_needs_a_vertex(capsys):
    assert run(capsys, "count", "--complete", "0") == (2, "", "error: --complete needs n >= 1\n")


@pytest.mark.parametrize("method", ["matrix-tree", "perturbation", "oracle"])
@pytest.mark.parametrize(
    "flag", [["--complete", "5"], ["--ferrers", "3,2,2,1"], ["--multipartite", "2,3"]]
)
def test_count_family_flag_refuses_other_methods(capsys, flag, method):
    # a family flag is counted by its formula; no other method is silently
    # replaced by it
    message = f"error: {flag[0]} is counted by its formula; --method {method} does not apply\n"
    assert run(capsys, "count", *flag, "--method", method) == (2, "", message)
    for kept in ("auto", "formula"):
        code, out, err = run(capsys, "count", *flag, "--method", kept)
        assert (code, err) == (0, "") and out == run(capsys, "count", *flag)[1]


def test_text_output_lists_no_edges(capsys, monkeypatch):
    # only --json echoes the input edges
    monkeypatch.setattr(Graph, "edges", lambda self: pytest.fail("edges listed"))
    for cmd in ("count", "classify", "weighted"):
        for name in ("threshold5.txt", "house_with_tail.txt"):
            code, out, err = run(capsys, cmd, fixture(name))
            assert (code, err) == (0, ""), (cmd, name)


@pytest.mark.parametrize(
    "edges, method",
    [
        (lambda n: [(v, v + 1) for v in range(1, n)], "blocks"),
        (lambda n: [(v, n) for v in range(1, n)], "formula:threshold"),
        (
            lambda n: [(1, c) for c in range(n // 2 + 1, n + 1)]
            + [(r, n) for r in range(2, n // 2 + 1)],
            "formula:ferrers",
        ),
    ],
    ids=["path", "star-hub-n", "double-star-column-n"],
)
def test_count_long_sparse_inputs_skip_the_u_search(capsys, monkeypatch, tmp_path, edges, method):
    # a path, a star whose hub has the highest label and a double star (rows
    # 1..n/2, row 1 joined to every column, the full column labelled n):
    # each is settled by the 2K2 screen, the threshold peel or the
    # staircase, in O(n + m), before the U-search
    n = 20_000
    path = tmp_path / "g.txt"
    # edges written highest first: the echo must sort them
    path.write_text(f"{n} {n - 1}\n" + "".join(f"{u} {v}\n" for u, v in reversed(edges(n))))
    monkeypatch.setattr(spantree.recognition, "_u_search", lambda *a: pytest.fail("U-search ran"))
    payload = run_json(capsys, "count", str(path), "--json")
    assert (payload["count"], payload["method"]) == (1, method)
    g = parse_edge_list(path.read_text())
    rebuilt = sorted([u, v] for u in g.vertices for v in g.neighbors(u) if u < v)
    assert payload["input"]["edges"] == rebuilt
    assert run(capsys, "count", str(path)) == (0, f"1 (method: {method})\n", "")


def test_count_family_flags(capsys):
    assert run_json(capsys, "count", "--complete", "4", "--json")["count"] == 16
    payload = run_json(capsys, "count", "--ferrers", "3,2,2,1", "--json")
    assert payload["count"] == 12
    assert payload["method"] == "formula:ferrers"
    assert run_json(capsys, "count", "--multipartite", "2,3", "--json")["count"] == 12
    assert run_json(capsys, "count", "--multipartite", "2,2,2", "--json")["count"] == 384
    code, _, _ = run(capsys, "count", "--ferrers", "3,2,2,1", "--verify")
    assert code == 0


def test_count_verify_refuses_a_family_flag_before_building_it(capsys, monkeypatch):
    refused = {
        ("--complete", "8"): 28,
        ("--complete", "100000"): 4999950000,
        ("--ferrers", "9,9,9"): 27,
        ("--multipartite", "5,5"): 25,
        ("--multipartite", "1500,1500"): 2250000,
    }
    for name in ("complete", "complete_multipartite", "ferrers_graph"):
        monkeypatch.setattr(spantree.cli, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
    for flag, edges in refused.items():
        code, out, err = run(capsys, "count", *flag, "--verify")
        assert (code, out) == (3, ""), flag
        assert err == (
            f"error: oracle enumeration over {edges} edges exceeds the limit "
            "of 24; raise max_edges to override\n"
        ), flag
    monkeypatch.undo()
    in_limit = {
        ("--complete", "5"): 125,
        ("--ferrers", "3,3,2"): 36,
        ("--multipartite", "2,2,2"): 384,
    }
    for flag, count in in_limit.items():
        payload = run_json(capsys, "count", *flag, "--verify", "--json")
        assert (payload["count"], payload["verified_against_oracle"]) == (count, True), flag


def test_count_flag_misuse(capsys):
    assert run(capsys, "count")[0] == 2
    assert run(capsys, "count", fixture("k4.txt"), "--complete", "3")[0] == 2
    assert run(capsys, "count", "--complete", "3", "--ferrers", "1")[0] == 2
    assert run(capsys, "count", "--ferrers", "nope")[0] == 2
    assert run(capsys, "count", "--ferrers", "2,3")[0] == 2  # not weakly decreasing
    assert run(capsys, "count", "--multipartite", "0,2")[0] == 2
    assert run(capsys, "count", fixture("no_such_file.txt"))[0] == 2


@pytest.mark.parametrize(
    "flag, raw",
    [
        ("--ferrers", "3,,2"),
        ("--ferrers", "3,2,"),
        ("--ferrers", ""),
        ("--ferrers", " "),
        ("--multipartite", ",2,,2,"),
        ("--multipartite", "2, ,2"),
    ],
)
def test_count_family_flag_refuses_an_empty_field(capsys, flag, raw):
    code, out, err = run(capsys, "count", flag, raw)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} expects comma-separated integers, got {raw!r}\n"


@pytest.mark.parametrize(
    "text, argv, limit, message",
    [
        ("1_2 2\n1 2\n3 4\n", (), None, ":1: header must be two integers, got '1_2 2'"),
        ("+4 1\n1 +2\n", (), None, ":1: header must be two integers, got '+4 1'"),
        ("4 1\n1 +2\n", (), None, ":2: edge line must be two integers, got '1 +2'"),
        (None, ("--complete", "1_0"), None, "argument --complete: invalid int value: '1_0'"),
        (None, ("--complete", "+3"), None, "argument --complete: invalid int value: '+3'"),
        (None, ("--multipartite", "\u0663,2"), None,
         "--multipartite expects comma-separated integers, got '\u0663,2'"),
        (None, ("--ferrers", "2,+1"), None, "--ferrers expects comma-separated integers, got '2,+1'"),
        (None, ("--ferrers", "2, 1"), None, "--ferrers expects comma-separated integers, got '2, 1'"),
        ("4 3\n1 2\n2 3\n3 4\n", ("--method", "oracle"), "2_4",
         "SPANTREE_ORACLE_LIMIT must be an integer, got '2_4'"),
    ],
)
def test_integers_are_ascii_digits_only(capsys, tmp_path, monkeypatch, text, argv, limit, message):
    # int() also reads signs, underscores and other scripts' digits; each
    # such value exits 2 instead of being reinterpreted
    if text is not None:
        path = tmp_path / "g.txt"
        path.write_text(text, encoding="utf-8")
        argv = (str(path), *argv)
    if limit is not None:
        monkeypatch.setenv("SPANTREE_ORACLE_LIMIT", limit)
    try:
        code = main(["count", *argv])
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert message in out.err


@pytest.mark.parametrize(
    "char", ["\u2003", "\xa0", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"],
    ids=["em-space", "no-break-space", "vt", "ff", "fs", "nel", "line-separator"],
)
@pytest.mark.parametrize("place", ["separator", "line-end"])
def test_other_whitespace_separates_nothing(capsys, tmp_path, char, place):
    # str.split() and splitlines() read these as field gaps or line breaks;
    # the format has only spaces, tabs and '\n', '\r\n' or '\r', so each
    # reaches the checks and exits 2 naming its line
    if place == "separator":
        text, line = "2 1\n1" + char + "2\n", 2
    else:
        text, line = "2 1" + char + "1 2\n", 1
    path = tmp_path / "g.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "count", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}:{line}: ")


def test_count_converts_the_count_to_decimal_once(capsys, monkeypatch):
    # --json prints the count through json alone; the text line is built
    # only in text mode
    conversions = []

    class Count(int):
        def __format__(self, spec):
            conversions.append(spec)
            return format(int(self), spec)

        def __str__(self):
            conversions.append("str")
            return int.__repr__(self)

        __repr__ = __str__

    monkeypatch.setattr(
        spantree.cli, "multipartite_count", lambda sizes: Count(len(sizes) ** (len(sizes) - 2))
    )
    assert run_json(capsys, "count", "--complete", "30", "--json")["count"] == 30**28
    assert conversions == []
    text = f"{30**28} (method: formula:complete)\n"
    assert run(capsys, "count", "--complete", "30") == (0, text, "")
    assert conversions == [""]


def test_classify_special5(capsys):
    payload = run_json(capsys, "classify", fixture("special5.txt"), "--json")
    cls = payload["classification"]
    assert cls["threshold"] is False
    assert cls["special_2_threshold"] is True
    assert cls["ferrers"] is False
    assert cls["u_set"]
    witnesses = {w["family"]: w for w in payload["witnesses"]}
    assert witnesses["threshold"]["pattern"] == "P4"
    assert witnesses["threshold"]["vertices"] == [1, 2, 3, 4]
    assert "special-2-threshold" not in witnesses


def test_classify_round_trips_the_construction_order(capsys):
    for name in ("threshold5.txt", "special5.txt", "ferrers3221.txt", "uthreshold8.txt", "k4.txt"):
        payload = run_json(capsys, "classify", fixture(name), "--json")
        co_json = payload["construction_order"]
        assert co_json is not None
        g = parse_edge_list((FIXTURES / name).read_text(), source=name)
        co = ConstructionOrder(
            tuple(co_json["order"]),
            frozenset(co_json["u_set"]),
            tuple(co_json["roles"]),
        )
        co.check(g)


def test_classify_two_k2(capsys):
    payload = run_json(capsys, "classify", fixture("two_k2.txt"), "--json")
    cls = payload["classification"]
    assert cls["threshold"] is False
    assert cls["special_2_threshold"] is False
    patterns = {(w["family"], w["pattern"]) for w in payload["witnesses"]}
    assert ("special-2-threshold", "2K2") in patterns
    vertices = {tuple(w["vertices"]) for w in payload["witnesses"]}
    assert vertices == {(1, 2, 3, 4)}
    # ferrers obstruction check does not apply to a disconnected graph
    assert all(w["family"] != "ferrers" for w in payload["witnesses"])


def test_classify_five_cycle(capsys):
    # connected but not bipartite: the staircase obstruction check is skipped
    payload = run_json(capsys, "classify", fixture("c5.txt"), "--json")
    cls = payload["classification"]
    assert cls == {
        "threshold": False,
        "special_2_threshold": False,
        "ferrers": False,
        "u_set": None,
        "ferrers_shape": None,
        "ferrers_traversal": None,
    }
    families = [w["family"] for w in payload["witnesses"]]
    assert families == ["threshold", "special-2-threshold"]
    assert payload["witnesses"][1]["pattern"] == "C5"
    assert payload["construction_order"] is None


@pytest.mark.parametrize("family", ["threshold", "special-2-threshold"])
def test_classify_does_not_drop_a_failing_witness(capsys, monkeypatch, family):
    # only the ferrers scan has a precondition to skip; any other
    # family's error ends the command before it prints
    def fail(*args):
        raise ValueError("planted witness failure")

    if family == "special-2-threshold":
        # one call answers this family, witness or order
        monkeypatch.setattr(spantree.cli, "_special_2_threshold", fail)
    else:
        real = spantree.cli.forbidden_witness
        monkeypatch.setattr(
            spantree.cli,
            "forbidden_witness",
            lambda g, fam: fail() if fam == family else real(g, fam),
        )
    code, out, err = run(capsys, "classify", fixture("c5.txt"), "--json")
    assert code != 0 and out == ""
    assert "planted witness failure" in err


def test_classify_searches_the_whole_graph_at_most_once(capsys, monkeypatch):
    # the witness shrink ends in the whole graph's U-search only when no
    # chunk can go, and hands classify the order it found there: a member
    # peels U = V on all of V once, a non-member at most once
    real, members = spantree.recognition._peel, 0
    for path in sorted(FIXTURES.glob("*.txt")):
        vertices, whole = parse_edge_list(path.read_text()).vertex_set(), []
        monkeypatch.setattr(
            spantree.recognition,
            "_peel",
            lambda adj, u: whole.append(adj.keys() == u == vertices) or real(adj, u),
        )
        payload = run_json(capsys, "classify", str(path), "--json")
        member = payload["classification"]["special_2_threshold"]
        assert member <= sum(whole) <= 1, path.name
        members += member
    assert members >= 5


def test_classify_ferrers_fixture(capsys):
    payload = run_json(capsys, "classify", fixture("ferrers3221.txt"), "--json")
    cls = payload["classification"]
    assert cls["ferrers"] is True
    assert cls["ferrers_shape"] == [3, 2, 2, 1]
    assert cls["ferrers_traversal"] == [1, 7, 2, 6, 5, 3, 4]


def test_classify_human_output(capsys):
    code, out, _ = run(capsys, "classify", fixture("threshold5.txt"))
    assert code == 0
    assert "threshold: yes" in out
    assert "ferrers: no" in out


def test_capability_exit_codes(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SPANTREE_ORACLE_LIMIT", "3")
    assert run(capsys, "count", fixture("k4.txt"), "--method", "oracle")[0] == 3
    monkeypatch.setenv("SPANTREE_ORACLE_LIMIT", "28")
    code, out, _ = run(capsys, "count", fixture("k4.txt"), "--method", "oracle")
    assert code == 0 and out.startswith("16")
    monkeypatch.delenv("SPANTREE_ORACLE_LIMIT")

    # K25 minus three disjoint edges is not special 2-threshold: classify
    # answers it with the Octahedron those edges leave, no guard refuses it
    big = tmp_path / "big.txt"
    edges = [e for e in complete(25).edges() if e not in ((1, 2), (3, 4), (5, 6))]
    big.write_text(format_edge_list(Graph(25, edges)))
    payload = run_json(capsys, "classify", str(big), "--json")
    assert {"family": "special-2-threshold", "pattern": "Octahedron",
            "vertices": [1, 2, 3, 4, 5, 6]} in payload["witnesses"]


@pytest.mark.parametrize("n", [25, 100, 200])
def test_classify_names_the_octahedron_at_any_size(capsys, tmp_path, n):
    # K_n minus three disjoint edges on the six highest labels: its only
    # forbidden induced subgraph is the Octahedron there
    missing = ((n - 5, n - 4), (n - 3, n - 2), (n - 1, n))
    path = tmp_path / "big.txt"
    path.write_text(format_edge_list(Graph(n, [e for e in complete(n).edges() if e not in missing])))
    payload = run_json(capsys, "classify", str(path), "--json")
    assert payload["classification"]["special_2_threshold"] is False
    assert {"family": "special-2-threshold", "pattern": "Octahedron",
            "vertices": list(range(n - 5, n + 1))} in payload["witnesses"]


def test_classify_exits_4_when_the_shrink_names_no_pattern(capsys, monkeypatch):
    # a witness table without the 2K2 cannot name what two_k2 shrinks to:
    # an internal error, never a silent answer
    keys = spantree.recognition._witness_keys
    monkeypatch.setattr(
        spantree.recognition,
        "_witness_keys",
        lambda: {k: name for k, name in keys().items() if name != "2K2"},
    )
    code, out, err = run(capsys, "classify", fixture("two_k2.txt"))
    assert (code, out) == (4, "")
    assert err.startswith("internal error:")


def test_special_members_past_24_vertices_use_the_formula(capsys, tmp_path):
    path = tmp_path / "special26.txt"
    path.write_text(format_edge_list(SPECIAL26))
    payload = run_json(capsys, "count", str(path), "--json")
    assert payload["method"] == "formula:special-2-threshold"
    assert payload["count"] == matrix_tree_count(SPECIAL26)
    payload = run_json(capsys, "weighted", str(path), "--json")
    assert payload["method"] == "formula:special-2-threshold"
    assert payload["polynomial"] == str(weighted_matrix_tree_count(SPECIAL26))
    # K25 minus two disjoint edges is a member, neither threshold nor Ferrers
    big = tmp_path / "big.txt"
    g = Graph(25, [e for e in complete(25).edges() if e not in ((1, 2), (3, 4))])
    big.write_text(format_edge_list(g))
    payload = run_json(capsys, "classify", str(big), "--json")
    cls = payload["classification"]
    assert (cls["threshold"], cls["special_2_threshold"], cls["ferrers"]) == (False, True, False)
    raw = payload["construction_order"]
    ConstructionOrder(tuple(raw["order"]), frozenset(raw["u_set"]), tuple(raw["roles"])).check(g)


def test_count_prints_counts_past_4300_digits(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "count", "--complete", "3000")
    # the limit is lifted only while the count is printed
    assert (code, sys.get_int_max_str_digits()) == (0, limit)
    sys.set_int_max_str_digits(0)
    try:
        expected = f"{3000 ** 2998} (method: formula:complete)\n"
    finally:
        sys.set_int_max_str_digits(limit)
    assert out == expected
    code, out, _ = run(capsys, "count", "--complete", "3000", "--json")
    assert (code, sys.get_int_max_str_digits()) == (0, limit)
    assert f'"count": {expected.split()[0]},' in out


def test_count_prints_where_the_digit_limit_cannot_be_lifted(capsys, monkeypatch):
    # CPython 3.10 before 3.10.7 has no set_int_max_str_digits: the count
    # prints as it is, and the limit is neither read nor changed
    limit = sys.get_int_max_str_digits()
    monkeypatch.delattr(sys, "set_int_max_str_digits")
    assert run(capsys, "count", "--complete", "5") == (0, "125 (method: formula:complete)\n", "")
    assert sys.get_int_max_str_digits() == limit


def test_closed_stdout_exits_1_quietly():
    # K20000's count has 86,013 digits, more than a pipe holds, so the
    # write fails once the reader has gone
    env = {**os.environ, "PYTHONPATH": str(Path(spantree.cli.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "spantree.cli", "count", "--complete", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env,
    )
    assert proc.stdout.read(10) == b"9950692100"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_huge_integers_in_input_exit_2_at_once(capsys, tmp_path):
    # the int-to-str guard stays on while input is parsed, so a
    # 100,000-digit header fails fast instead of a quadratic conversion
    path = tmp_path / "huge.txt"
    path.write_text("9" * 100_000 + " 0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "count", str(path))
    assert (code, out) == (2, "")
    assert "header must be two integers" in err
    assert time.perf_counter() - start < 1


def test_family_flags_past_the_vertex_limit_exit_2(capsys):
    cap = MAX_PARSED_VERTICES
    for flag, value in (
        ("--complete", str(cap + 1)),
        ("--complete", "10000000"),
        ("--multipartite", f"{cap // 2},{cap // 2},1"),
        # rows plus the first part: 1 + cap vertices
        ("--ferrers", str(cap)),
        ("--ferrers", "1000000000"),
    ):
        code, out, err = run(capsys, "count", flag, value)
        assert (code, out) == (2, ""), (flag, value)
        assert f"limit of {cap}" in err, (flag, value)
    # at the limit the flags still answer: both are stars, with one tree
    assert run(capsys, "count", "--ferrers", str(cap - 1))[1] == "1 (method: formula:ferrers)\n"
    assert run(capsys, "count", "--multipartite", f"1,{cap - 1}")[1] == "1 (method: formula:bipartite)\n"


def test_classify_recognized_members_past_the_search_cap(capsys, tmp_path):
    # members past 24 vertices are answered by their own recognizers, with
    # no forbidden-subgraph search
    members = {
        "k25": complete(25),
        "edgeless25": Graph(25),
        "ferrers30": ferrers_graph(
            PartitionShape([15, 12, 12, 9, 7, 7, 4, 3, 1, 1, 1, 1, 1, 1, 1])
        ),
    }
    for name, g in members.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(format_edge_list(g))
        payload = run_json(capsys, "classify", str(path), "--json")
        cls = payload["classification"]
        assert cls["special_2_threshold"], name
        assert cls["threshold"] == (name != "ferrers30"), name
        assert cls["ferrers"] == (name == "ferrers30"), name
        raw = payload["construction_order"]
        co = ConstructionOrder(tuple(raw["order"]), frozenset(raw["u_set"]), tuple(raw["roles"]))
        co.check(g)
        assert raw["u_set"] == cls["u_set"], name
    # a small member gets the U-search's own answer
    payload = run_json(capsys, "classify", fixture("k4.txt"), "--json")
    assert payload["classification"]["u_set"] == [1, 2, 3, 4]


def test_exactness_exit_code(capsys, monkeypatch):
    from spantree.errors import ExactnessError
    import spantree.cli as cli

    def boom(g):
        raise ExactnessError("synthetic failure")

    monkeypatch.setattr(cli, "matrix_tree_count", boom)
    code, _, err = run(capsys, "count", fixture("house_with_tail.txt"), "--method", "matrix-tree")
    assert code == 4
    assert "synthetic failure" in err


def test_internal_check_exit_code(capsys, monkeypatch):
    # a peel whose order fails its own re-check raises OrderInconsistencyError
    monkeypatch.setattr("spantree.recognition.derive_roles", lambda *args: None)
    code, out, err = run(capsys, "classify", fixture("k4.txt"))
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: peeling produced an order")


def test_out_of_memory_exit_code(capsys, monkeypatch):
    # running out of memory is a refusal with one error line, not a traceback
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(spantree.cli, "reduce_and_route", exhausted)
    for cmd in ("count", "weighted"):
        code, out, err = run(capsys, cmd, fixture("ferrers3221.txt"))
        assert (code, out, err) == (3, "", "error: out of memory\n"), cmd


def test_negative_oracle_limit_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("SPANTREE_ORACLE_LIMIT", "-5")
    for cmd in ("count", "weighted"):
        code, _, err = run(capsys, cmd, fixture("k4.txt"), "--method", "oracle")
        assert code == 2
        assert "nonnegative" in err


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n1 1\n")
    code, _, err = run(capsys, "count", str(bad))
    assert code == 2
    assert "loop" in err


def test_weighted_cli_formula(capsys):
    payload = run_json(capsys, "weighted", fixture("threshold5.txt"), "--json")
    assert payload["method"] == "formula:threshold"
    g = parse_edge_list((FIXTURES / "threshold5.txt").read_text())
    expected = weighted_count_threshold(g, threshold_order(g))
    assert payload["polynomial"] == str(expected)
    assert payload["count"] is None


def test_weighted_cli_methods_agree(capsys):
    g = parse_edge_list((FIXTURES / "special5.txt").read_text())
    expected = str(weighted_oracle(g))
    for method in ("auto", "perturbation", "oracle"):
        payload = run_json(capsys, "weighted", fixture("special5.txt"), "--method", method, "--json")
        assert payload["polynomial"] == expected, method


def test_weighted_cli_auto_uses_the_weighted_cofactor_off_the_families(capsys):
    # C5 is 2-connected; the house with a tail splits, two disjoint edges too
    for name, method in (
        ("house_with_tail.txt", "blocks"), ("c5.txt", "matrix-tree"), ("two_k2.txt", "blocks")
    ):
        g = parse_edge_list((FIXTURES / name).read_text())
        payload = run_json(capsys, "weighted", fixture(name), "--json")
        assert payload["method"] == method, name
        assert payload["classification"] is None and payload["construction_order"] is None
        assert payload["polynomial"] == str(weighted_oracle(g)), name
        assert payload["polynomial"] == str(weighted_perturbation_count(g, [1] * g.n, [1] * g.n))
    assert run_json(capsys, "weighted", fixture("two_k2.txt"), "--json")["polynomial"] == "0"


def test_weighted_cli_matrix_tree_method(capsys):
    # the method a weighted answer reports can be asked for by name
    for name in ("c5.txt", "house_with_tail.txt"):
        auto = run_json(capsys, "weighted", fixture(name), "--json")
        payload = run_json(capsys, "weighted", fixture(name), "--method", "matrix-tree", "--json")
        assert payload["method"] == "matrix-tree", name
        assert payload["polynomial"] == auto["polynomial"], name
        assert payload["classification"] is None and payload["construction_order"] is None


def test_weighted_cli_formula_rejects_generic_graphs(capsys):
    assert run(capsys, "weighted", fixture("house_with_tail.txt"), "--method", "formula")[0] == 2


def test_json_schema_keys(capsys):
    for argv in (
        ("classify", fixture("k4.txt"), "--json"),
        ("count", fixture("k4.txt"), "--json"),
        ("weighted", fixture("k4.txt"), "--json"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        # compact: one line, keys sorted
        assert out.count("\n") == 1 and out == json.dumps(json.loads(out), sort_keys=True) + "\n"
        payload = json.loads(out)
        for key in ("input", "classification", "method", "count", "polynomial", "witnesses", "construction_order"):
            assert key in payload, (argv[0], key)


def _assert_echoes(capsys, path, g):
    """``count``, ``classify`` and ``weighted --json`` on the file at
    ``path`` echo g's sorted edges, in the bytes ``json.dumps`` writes for
    the whole payload."""
    for command in ("count", "classify", "weighted"):
        code, out, err = run(capsys, command, str(path), "--json")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["input"]["edges"] == [list(e) for e in g.edges()]
        assert payload["input"]["path"] == str(path)
        assert out == json.dumps(payload, sort_keys=True) + "\n"


@st.composite
def _written_graph(draw):
    """A graph on at most 9 vertices and an edge-list text of it: lines
    sorted or shuffled, one space, a tab beside a space or a tab between
    fields, '\\n' or '\\r\\n' line ends, perhaps a comment line, perhaps
    no final line end."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if draw(st.booleans()):
        edges.sort()
    sep = draw(st.sampled_from((" ", " \t", "\t ", "\t")))
    end = draw(st.sampled_from(("\n", "\r\n")))
    lines = [f"{n}{sep}{len(edges)}", *(f"{u}{sep}{v}" for u, v in edges)]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "# a comment")
    return Graph(n, edges), end.join(lines) + draw(st.sampled_from((end, "")))


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_written_graph())
@example((Graph(1), "1 0\n"))
@example((Graph(4), "4 0"))
@example((Graph(3, [(1, 2), (2, 3)]), "3 2\n2 3\n1 2\n"))
def test_json_edge_echo_is_the_sorted_edges_in_any_layout(capsys, tmp_path, written):
    g, text = written
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode())
    _assert_echoes(capsys, path, g)


def test_json_edge_echo_leaves_a_path_that_looks_like_json_alone(capsys, tmp_path):
    # the echo is placed at "input"."edges" only: a path spelling that key,
    # an empty array, a NUL escape, quotes, a backslash or a non-ASCII
    # letter is written as any other path is
    g = Graph(4, [(1, 2), (1, 3), (2, 4)])
    for name in ('"edges": [] "input"', "q\"u'o\\te", "\\u0000\"", "caf\u00e9"):
        for layout, text in (("sorted", format_edge_list(g)), ("shuffled", "4 3\n2 4\n1 2\n1 3\n")):
            path = tmp_path / f"{name} {layout}.txt"
            path.write_text(text, encoding="utf-8")
            _assert_echoes(capsys, path, g)


def test_a_path_holding_a_nul_is_refused_before_any_output(capsys):
    # so no string of a payload holds the NUL of the edge echo's slot
    code, out, err = run(capsys, "count", "g\0.txt", "--json")
    assert (code, out) == (2, "") and err.startswith("error: ")
