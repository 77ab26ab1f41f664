"""One-shot calibration against the re-anchor timings in ROADMAP.md.

Usage (from the repository root):

    python3 perfbench/calibrate.py

Times, once each, the ROADMAP rows that finish in under about 10 s (the
K30 witness scan and the n = 8 weighted perturbation are left out), so a
first benchmark baseline can be set beside that table.  This is not a
workload: it calls library functions directly and checks nothing beyond
agreement with the benchmark's modular determinant.  The record goes to
.bench_out/calibration.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
from time import perf_counter

from run import OUT, SRC, git_sha


def main(argv=None) -> int:
    argparse.ArgumentParser(description="Time the ROADMAP re-anchor rows once each.").parse_args(argv)
    if not (SRC / "spantree" / "__init__.py").is_file():
        print(f"error: no spantree package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spantree import (Graph, complete, forbidden_witness, matrix_tree_count,
                          special_2_threshold_order, threshold_order,
                          weighted_perturbation_count)
    from suites import (adjacency, gnp_connected, independent_sets, random_connected,
                        tau_residues)

    rng = random.Random("calibrate")
    g100 = Graph(100, gnp_connected(100, 0.3, rng))
    g200 = Graph(200, gnp_connected(200, 0.3, rng))
    while True:
        sparse = Graph(24, random_connected(24, 34, rng))
        if special_2_threshold_order(sparse) is None:
            break
    while True:  # the expected edge count, 0.6 * C(7, 2) = 12.6
        g7 = Graph(7, gnp_connected(7, 0.6, rng))
        if g7.edge_count == 13:
            break

    def bareiss(g):
        value = matrix_tree_count(g)
        residues = tau_residues(g.n, adjacency(g.n, g.edges()))
        if any(value % p != r for p, r in residues.items()):
            raise SystemExit(f"matrix_tree_count disagrees with the modular determinant on n={g.n}")

    k1000, k20 = complete(1000), complete(20)
    rows = [
        ("Bareiss matrix_tree_count", f"G(100, 0.3), m={g100.edge_count}", "0.16-0.19 s", lambda: bareiss(g100)),
        ("Bareiss matrix_tree_count", f"G(200, 0.3), m={g200.edge_count}", "3.7-4.7 s", lambda: bareiss(g200)),
        ("threshold_order (peel)", "K1000", "0.30 s", lambda: threshold_order(k1000)),
        ("U-search, non-member",
         f"sparse n=24, m={sparse.edge_count}, "
         f"{independent_sets(24, adjacency(24, sparse.edges()))} candidates",
         "1.0 s (50k candidates)", lambda: special_2_threshold_order(sparse)),
        ("forbidden_witness special-2-threshold", "K20", "1.2 s",
         lambda: forbidden_witness(k20, "special-2-threshold")),
        ("weighted_perturbation_count", f"G(7, 0.6), m={g7.edge_count}", "5.9 s",
         lambda: weighted_perturbation_count(g7, [1] * 7, [1] * 7)),
    ]
    record = {
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "rows": [],
    }
    print(f"{'stage':40s} {'input':48s} {'re-anchor':>24s} {'now':>9s}")
    for stage, label, reanchor, fn in rows:
        t0 = perf_counter()
        fn()
        dt = perf_counter() - t0
        record["rows"].append({"stage": stage, "input": label, "reanchor": reanchor, "seconds": dt})
        print(f"{stage:40s} {label:48s} {reanchor:>24s} {dt:8.3f}s")
    record["loadavg_end"] = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    (OUT / "calibration.json").write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
