"""The benchmark's span tables (``perfbench/spans.py``) still name package
functions with the signatures their notes read: a renamed or re-signed
function would otherwise crash only a traced benchmark run."""

import importlib.util

import spantree.cli
from sample_graphs import FIXTURES

SPANS = FIXTURES.parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_tables_resolve_and_run(capsys):
    # the house block of house_with_tail takes the integer Bareiss cofactor
    path, ferrers = str(FIXTURES / "house_with_tail.txt"), str(FIXTURES / "ferrers3221.txt")
    spans = _spans_module()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in (
            ["count", path],
            ["count", ferrers],
            ["weighted", path],
            ["weighted", ferrers],
            ["classify", path],
            ["count", path, "--method", "perturbation"],
            ["weighted", path, "--method", "perturbation"],
        ):
            assert spantree.cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()
    capsys.readouterr()
    # every traced name records, so a change that routes around one fails
    # here rather than zeroing its per-layer metric; nothing reaches the
    # two left out (ROADMAP item 1)
    names = {rec[0] for rec in spans.FUNCTIONS} | {rec[0] for rec in spans.METHODS}
    unreached = {"linalg.laplacian", "weighted.laplacian"}
    assert {rec[3] for rec in tracer.spans} == names - unreached
    notes = [rec[6] for rec in tracer.spans if rec[3] == "linalg.bareiss"]
    assert any(note["ring"] == "int" for note in notes), notes
    # the weighted perturbation divides its determinant by the integer n^2
    notes = [rec[6] for rec in tracer.spans if rec[3] == "poly.exact_div"]
    assert notes and all(note["terms"] > 0 for note in notes), notes
