"""Spans around the public functions of each spantree layer, recorded from
outside the package.

``Tracer.install`` replaces each traced function in every spantree module
that holds a reference to it (the CLI imports most names into its own
namespace, so patching the defining module alone would miss those calls)
and the traced methods on their classes.  Spans are kept in memory as
``[id, parent, call, name, start, end, note]`` and written out at the end.
A layer's self time is its spans' durations minus their direct children's.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter


def _bareiss_note(args, kwargs, result):
    """Ring, matrix size and, over the integers, the determinant's bit
    length and the multiplication count Bareiss performs at that size."""
    d = len(args[0])
    if isinstance(kwargs["zero"], int):
        return {"ring": "int", "dim": d, "bits": abs(result).bit_length(),
                "mults": (d - 1) * d * (2 * d - 1) // 3}
    return {"ring": "poly", "dim": d}


# (span name, module, attribute, note) for module-level functions.
FUNCTIONS = [
    ("graph.parse", "graph", "parse_edge_list", lambda a, k, r: {"edges": r.edge_count}),
    ("recognition.threshold", "recognition", "threshold_order", lambda a, k, r: {"hit": r is not None}),
    ("recognition.ferrers", "recognition", "ferrers_structure", lambda a, k, r: {"hit": r is not None}),
    ("recognition.usearch", "recognition", "special_2_threshold_order", lambda a, k, r: {"hit": r is not None}),
    ("recognition.witness", "recognition", "forbidden_witness", None),
    ("linalg.laplacian", "linalg", "laplacian", None),
    ("linalg.bareiss", "linalg", "fraction_free_determinant", _bareiss_note),
    ("counting.formula", "counting", "threshold_count", None),
    ("counting.formula", "counting", "ferrers_count", None),
    ("counting.formula", "counting", "special_2_threshold_count", None),
    ("counting.cofactor", "counting", "matrix_tree_count", None),
    ("weighted.laplacian", "weighted", "weighted_laplacian", None),
    ("weighted.perturbation", "weighted", "weighted_perturbation_count", None),
    ("weighted.closed_form", "weighted", "weighted_count_threshold", None),
    ("weighted.closed_form", "weighted", "weighted_count_ferrers", None),
    ("weighted.closed_form", "weighted", "weighted_count_special_2threshold", None),
]

# (span name, module, class, method, note) for methods.
METHODS = [
    ("recognition.check", "recognition", "ConstructionOrder", "check", None),
    ("poly.mul", "poly", "MultiPoly", "__mul__", None),
    ("poly.mul", "poly", "MultiPoly", "__rmul__", None),
    ("poly.exact_div", "poly", "MultiPoly", "exact_div", lambda a, k, r: {"terms": len(a[0]._terms)}),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.call = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, self.call, name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[6] = {"raised": type(exc).__name__}
                raise
            finally:
                rec[5] = perf_counter()
                stack.pop()
            if note is not None:
                rec[6] = note(args, kwargs, result)
            return result

        return traced

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a span recorded by the caller itself."""
        return self._wrap(name, fn, None)(*args)

    def install(self) -> None:
        mods = [m for key, m in sys.modules.items() if key == "spantree" or key.startswith("spantree.")]
        for name, mod, attr, note in FUNCTIONS:
            original = getattr(sys.modules[f"spantree.{mod}"], attr)
            wrapper = self._wrap(name, original, note)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, value))
                        setattr(m, key, wrapper)
        for name, mod, cls_name, attr, note in METHODS:
            cls = getattr(sys.modules[f"spantree.{mod}"], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, note))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [rec[5] - rec[4] for rec in spans]
    for rec in spans:
        if rec[1] is not None:
            own[rec[1]] -= rec[5] - rec[4]
    return own


def layer_metrics(spans, passes: int) -> dict[str, float]:
    """Per-pass layer figures from the spans of ``passes`` traced passes."""
    own = self_times(spans)
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    hits: dict[str, int] = defaultdict(int)
    refused = edges = div_terms = 0
    int_dim = int_bits = int_mults = 0
    poly_calls = 0
    for rec, t in zip(spans, own):
        name, note = rec[3], rec[6] or {}
        if name == "linalg.bareiss":
            name = f"linalg.bareiss_{note.get('ring', 'int')}"
            if note.get("ring") == "int":
                int_dim = max(int_dim, note["dim"])
                int_bits = max(int_bits, note["bits"])
                int_mults += note["mults"]
            elif note.get("ring") == "poly":
                poly_calls += 1
        busy[name] += t
        calls[name] += 1
        hits[name] += bool(note.get("hit"))
        refused += name == "recognition.usearch" and note.get("raised") == "CapabilityExceededError"
        edges += note.get("edges", 0)
        div_terms = max(div_terms, note.get("terms", 0))

    def per_pass(x):
        return x / passes

    def share(name):
        return hits[name] / calls[name] if calls[name] else 0.0

    return {
        "graph.parse_s": per_pass(busy["graph.parse"]),
        "graph.edges": per_pass(edges),
        "recognition.threshold_s": per_pass(busy["recognition.threshold"]),
        "recognition.threshold_hit_share": share("recognition.threshold"),
        "recognition.check_s": per_pass(busy["recognition.check"]),
        "recognition.ferrers_s": per_pass(busy["recognition.ferrers"]),
        "recognition.ferrers_hit_share": share("recognition.ferrers"),
        "recognition.usearch_s": per_pass(busy["recognition.usearch"]),
        "recognition.usearch_hit_share": share("recognition.usearch"),
        "recognition.usearch_refused": per_pass(refused),
        "recognition.witness_s": per_pass(busy["recognition.witness"]),
        "recognition.witness_calls": per_pass(calls["recognition.witness"]),
        "linalg.laplacian_s": per_pass(busy["linalg.laplacian"]),
        "linalg.bareiss_int_s": per_pass(busy["linalg.bareiss_int"]),
        "linalg.bareiss_int_dim_max": int_dim,
        "linalg.bareiss_int_mults": per_pass(int_mults),
        "linalg.det_bits_max": int_bits,
        "linalg.bareiss_poly_s": per_pass(busy["linalg.bareiss_poly"]),
        "linalg.bareiss_poly_calls": per_pass(poly_calls),
        "weighted.perturbation_s": per_pass(busy["weighted.perturbation"]),
        "weighted.laplacian_s": per_pass(busy["weighted.laplacian"]),
        "weighted.closed_form_s": per_pass(busy["weighted.closed_form"]),
        "poly.mul_s": per_pass(busy["poly.mul"]),
        "poly.mul_calls": per_pass(calls["poly.mul"]),
        "poly.exact_div_s": per_pass(busy["poly.exact_div"]),
        "poly.exact_div_calls": per_pass(calls["poly.exact_div"]),
        "poly.exact_div_terms_max": div_terms,
        "counting.formula_s": per_pass(busy["counting.formula"]),
        "counting.cofactor_s": per_pass(busy["counting.cofactor"]),
        "cli.self_s": per_pass(busy["cli.main"]),
    }
