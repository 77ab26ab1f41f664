"""Long sparse inputs and full-size cofactors, each run through the CLI in a
fresh process under a 60 s timeout and, where given, an address-space cap.

Recognition reads neighbour sets only, and classify searches the whole graph
for U at most once, so every long input stays near O(n + m). The caps catch
a return to per-vertex bit masks: one n-bit mask per vertex, about 1.2 GB on
the double star, breaks either cap. On CPython 3.11 (Linux x86-64) every
capped run peaks under 130 MiB of address space; the path and star counts
keep the 1 GiB they were first given, the rest 512 MiB. The tab-separated
path is left to the line parser; the reversed path is read in bulk, but its
edge echo is encoded from the parsed graph, so both must match the path's.
G(120, 0.4) and G(121, 0.4) are counted by the cofactor (dimension n - 1)
and by det(L + 11^T) (dimension n): between them they end the two-pivot
Bareiss sweeps on both parities at full big-integer size.
`count --multipartite 100000 --verify` builds the one-part (edgeless) graph
for the oracle part by part in O(n + m).
"""

import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import spantree
from spantree import ConstructionOrder, parse_edge_list
from sample_graphs import induced_pattern

GIB, HALF_GIB, N = 1 << 30, 1 << 29, 100_000
ENV = dict(os.environ, PYTHONPATH=str(Path(spantree.__file__).parents[1]))
#: n, threshold, special 2-threshold and ferrers membership, and the edges
GRAPHS = {
    "path": (N, (False, False, False), lambda n: [(v, v + 1) for v in range(1, n)]),
    "star-hub-n": (N, (True, True, True), lambda n: [(v, n) for v in range(1, n)]),
    # rows 1..n/2, row 1 joined to every column, the full column labelled n
    "double-star-column-n": (N, (False, True, True),
                             lambda n: [(1, c) for c in range(n // 2 + 1, n + 1)]
                             + [(r, n) for r in range(2, n // 2 + 1)]),
    # a hub labelled n joined to both ends of every matching edge
    "windmill": (30_001, (False, False, False),
                 lambda n: [e for v in range(1, n, 2) for e in ((v, v + 1), (v, n), (v + 1, n))]),
}
COUNT_CAPS = {"star-hub-n": GIB, "double-star-column-n": HALF_GIB, "windmill": HALF_GIB}


def _write(tmp_path, n, edges, sep=" "):
    path = tmp_path / "g.txt"
    path.write_text(f"{n}{sep}{len(edges)}\n" + "".join(f"{u}{sep}{v}\n" for u, v in edges))
    return str(path)


def _child(argv, cap=None):
    limit = cap and (lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    return subprocess.run([sys.executable, *argv], env=ENV, capture_output=True, text=True,
                          timeout=60, preexec_fn=limit)


def _cli(*argv, cap=None):
    proc = _child(["-m", "spantree.cli", *argv, "--json"], cap)
    assert proc.returncode == 0, proc.stderr
    # the windmill's count, 3^15000, has more digits than int() takes: kept as text
    return json.loads(proc.stdout, parse_int=lambda s: int(s) if len(s) <= 4300 else s)


def test_the_cap_holds_in_the_child():
    assert _child(["-c", "bytearray(1 << 30)"], HALF_GIB).returncode != 0


@pytest.mark.parametrize("name", COUNT_CAPS)
def test_count_long_inputs(tmp_path, name):
    n, _, edges = GRAPHS[name]
    _cli("count", _write(tmp_path, n, edges(n)), cap=COUNT_CAPS[name])


def test_the_path_counts_and_echoes_alike_tab_separated_and_reversed(tmp_path):
    edges = GRAPHS["path"][2](N)
    a, b, c = (_cli("count", _write(tmp_path, N, e, sep), cap=GIB)
               for e, sep in ((edges, " "), (edges, "\t"), (edges[::-1], " ")))
    key = lambda r: (r["count"], r["input"]["edges"])
    assert key(a) == key(b) == key(c)


@pytest.mark.parametrize("name", GRAPHS)
def test_classify_long_inputs(tmp_path, name):
    n, expected, edges = GRAPHS[name]
    path = _write(tmp_path, n, edges(n))
    payload = _cli("classify", path, cap=HALF_GIB)
    cls = payload["classification"]
    assert (cls["threshold"], cls["special_2_threshold"], cls["ferrers"]) == expected
    g = parse_edge_list(Path(path).read_text())
    for w in payload["witnesses"]:
        assert induced_pattern(g, tuple(w["vertices"]), w["family"]) == w["pattern"], w
    # of the inputs outside the ferrers family only the path is connected
    # and bipartite, which a ferrers witness needs
    assert [w["family"] for w in payload["witnesses"]] == [
        family
        for family, member in zip(("threshold", "special-2-threshold", "ferrers"), expected)
        if not member and (family != "ferrers" or name == "path")
    ]
    if expected[1]:
        raw = payload["construction_order"]
        ConstructionOrder(tuple(raw["order"]), frozenset(raw["u_set"]), tuple(raw["roles"])).check(g)


@pytest.mark.parametrize("n", [120, 121])
def test_cofactor_and_perturbation_agree_on_gnp(tmp_path, n):
    rng = random.Random(n)
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.4]
    path = _write(tmp_path, n, edges)
    counts = {_cli("count", path, "--method", m)["count"] for m in ("matrix-tree", "perturbation")}
    assert len(counts) == 1


def test_verify_multipartite_one_part_of_100000():
    payload = _cli("count", "--multipartite", str(N), "--verify")
    assert (payload["count"], payload["verified_against_oracle"]) == (0, True)
