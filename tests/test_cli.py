import json

import pytest

from spantree import (
    ConstructionOrder,
    Graph,
    PartitionShape,
    complete,
    ferrers_graph,
    format_edge_list,
    parse_edge_list,
    threshold_order,
    weighted_count_threshold,
    weighted_oracle,
    weighted_perturbation_count,
)
import spantree.counting
from spantree.cli import main
from sample_graphs import FIXTURES

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
    assert out.startswith("11 (method: matrix-tree)")


def test_count_oracle_jobs(capsys):
    payload = run_json(
        capsys, "count", fixture("k4.txt"), "--method", "oracle", "--jobs", "2", "--json"
    )
    assert payload["count"] == 16


def test_count_oracle_jobs_clamped_to_cpu_count(capsys, monkeypatch):
    started = []

    class FakePool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(spantree.counting.multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(spantree.counting.os, "cpu_count", lambda: 3)
    payload = run_json(
        capsys, "count", fixture("k4.txt"), "--method", "oracle", "--jobs", "1000", "--json"
    )
    assert payload["count"] == 16
    assert started == [3]


def test_bad_jobs_and_search_limit_exit_2(capsys):
    for argv in (
        ("count", fixture("k4.txt"), "--method", "oracle", "--jobs", "0"),
        ("count", fixture("k4.txt"), "--jobs", "-2"),
        ("count", fixture("k4.txt"), "--jobs", "two"),
        ("count", fixture("house_with_tail.txt"), "--u-search-limit", "-1"),
        ("weighted", fixture("house_with_tail.txt"), "--u-search-limit", "-1"),
        ("classify", fixture("k4.txt"), "--u-search-limit", "-1"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2, argv
        assert f"argument {argv[-2]}" in capsys.readouterr().err, argv
    payload = run_json(
        capsys, "count", fixture("house_with_tail.txt"), "--u-search-limit", "0", "--json"
    )
    assert payload["method"] == "matrix-tree"


def test_count_verify(capsys):
    code, out, err = run(capsys, "count", fixture("threshold5.txt"), "--verify")
    assert code == 0
    assert "oracle check: 8 ok" in out


def test_count_family_flags(capsys):
    assert run_json(capsys, "count", "--complete", "4", "--json")["count"] == 16
    payload = run_json(capsys, "count", "--ferrers", "3,2,2,1", "--json")
    assert payload["count"] == 12
    assert payload["method"] == "formula:ferrers"
    assert run_json(capsys, "count", "--multipartite", "2,3", "--json")["count"] == 12
    assert run_json(capsys, "count", "--multipartite", "2,2,2", "--json")["count"] == 384
    code, _, _ = run(capsys, "count", "--ferrers", "3,2,2,1", "--verify")
    assert code == 0


def test_count_flag_misuse(capsys):
    assert run(capsys, "count")[0] == 2
    assert run(capsys, "count", fixture("k4.txt"), "--complete", "3")[0] == 2
    assert run(capsys, "count", "--complete", "3", "--ferrers", "1")[0] == 2
    assert run(capsys, "count", "--ferrers", "nope")[0] == 2
    assert run(capsys, "count", "--ferrers", "2,3")[0] == 2  # not weakly decreasing
    assert run(capsys, "count", "--multipartite", "0,2")[0] == 2
    assert run(capsys, "count", fixture("no_such_file.txt"))[0] == 2


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

    # K25 minus two disjoint edges: neither threshold nor Ferrers, so the
    # U-search cap still refuses it
    big = tmp_path / "big.txt"
    edges = [e for e in complete(25).edges() if e not in ((1, 2), (3, 4))]
    big.write_text(format_edge_list(Graph(25, edges)))
    assert run(capsys, "classify", str(big))[0] == 3
    assert run(capsys, "classify", str(big), "--u-search-limit", "25")[0] == 0


def test_classify_recognized_members_past_the_search_cap(capsys, tmp_path):
    # n > --u-search-limit, but recognized as threshold or Ferrers first
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
    # below the cap the answer is the U-search's own, unchanged
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
    for name in ("house_with_tail.txt", "c5.txt", "two_k2.txt"):
        g = parse_edge_list((FIXTURES / name).read_text())
        payload = run_json(capsys, "weighted", fixture(name), "--json")
        assert payload["method"] == "matrix-tree", name
        assert payload["classification"] is None and payload["construction_order"] is None
        assert payload["polynomial"] == str(weighted_oracle(g)), name
        assert payload["polynomial"] == str(weighted_perturbation_count(g, [1] * g.n, [1] * g.n))
    assert run_json(capsys, "weighted", fixture("two_k2.txt"), "--json")["polynomial"] == "0"


def test_weighted_cli_formula_rejects_generic_graphs(capsys):
    assert run(capsys, "weighted", fixture("house_with_tail.txt"), "--method", "formula")[0] == 2


def test_json_schema_keys(capsys):
    for argv in (
        ("classify", fixture("k4.txt"), "--json"),
        ("count", fixture("k4.txt"), "--json"),
        ("weighted", fixture("k4.txt"), "--json"),
    ):
        payload = run_json(capsys, *argv)
        for key in ("input", "classification", "method", "count", "polynomial", "witnesses", "construction_order"):
            assert key in payload, (argv[0], key)
