"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import spantree

PACKAGE = Path(spantree.__file__).parent


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no check may depend on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def _imports_of(banned: set[str]) -> list[str]:
    """"file:line module" for each import, in a package module, of a module
    whose top-level package is in ``banned``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {m}" for m in modules if m.split(".")[0] in banned]
    return found


def test_package_starts_no_processes_or_threads():
    # every count runs in the calling thread, so resource use is bounded by
    # the one process
    found = _imports_of({"multiprocessing", "concurrent", "threading", "subprocess"})
    assert not found, found


def test_package_imports_no_dataclasses():
    # dataclasses loads inspect, dis, ast and tokenize and execs the methods
    # of each class, on every start of the CLI; the value classes are named
    # tuples instead
    found = _imports_of({"dataclasses"})
    assert not found, found


def test_cli_starts_without_dataclasses_or_inspect():
    # a fresh process, as each `spantree` call is: what the package imports
    # at start-up is paid by every call
    probe = "import sys, spantree.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.stdout == "[]\n", proc.stderr


def _dead_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never loads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_dead_import_check_catches_an_unused_name():
    assert _dead_imports("import os\nfrom sys import argv, path\nprint(path)\n") == [
        "os (line 1)",
        "argv (line 2)",
    ]


def test_package_modules_have_no_dead_imports():
    found = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in _dead_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, found


def _repeated_runs(sources: dict[str, str]) -> list[list[str]]:
    """Runs of two consecutive statements of one block (a body, orelse
    or finalbody) that occur more than once across ``sources`` (file name to
    text), compared by ``ast.dump``: names and constants count, line numbers
    do not.  One sorted list of "file:line" places per repeated run."""
    places: dict[str, list[str]] = {}
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            for field in ("body", "orelse", "finalbody"):
                block = getattr(node, field, None)
                if not isinstance(block, list):
                    continue
                for i in range(len(block) - 1):
                    key = "\n".join(ast.dump(s) for s in block[i : i + 2])
                    places.setdefault(key, []).append(f"{name}:{block[i].lineno}")
    return sorted(sorted(found) for found in places.values() if len(found) > 1)


def test_repeated_run_check_catches_a_planted_copy():
    guard = "    n = len(xs)\n    if n < 1:\n        raise ValueError('empty')\n"
    first = "def f(xs):\n" + guard + "    return n\n"
    second = "def g(xs):\n    ys = 1\n" + guard + "    return ys\n"
    assert _repeated_runs({"a.py": first, "b.py": second}) == [["a.py:2", "b.py:3"]]
    # one repeated statement is no run, and another constant no copy
    one = "def g(xs):\n    n = len(xs)\n    return n\n"
    assert _repeated_runs({"a.py": first, "b.py": one}) == []
    assert _repeated_runs({"a.py": first, "b.py": second.replace("< 1", "< 2")}) == []


def test_package_repeats_no_statement_run():
    found = _repeated_runs(
        {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    )
    assert not found, found


def _names(
    tree: ast.AST, *, skip_module: str | None = None, attributes_only: bool = False
) -> set[str]:
    """Every name a module loads, binds, reads as an attribute or imports,
    leaving out imports from the sibling module ``skip_module``, and each
    name inside a ``def`` of that name: a call to itself is no call.
    ``attributes_only`` keeps the attribute reads alone."""
    found = set()

    def visit(node: ast.AST, own: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own |= {node.name}
        if isinstance(node, ast.Attribute):
            names = {node.attr}
        elif attributes_only:
            names = set()
        elif isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.ImportFrom) and node.module != skip_module:
            names = {alias.name for alias in node.names}
        else:
            names = set()
        found.update(names - own)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(tree, frozenset())
    return found


def test_names_check_sees_imports_attributes_and_calls():
    tree = ast.parse("from .linalg import a\nfrom .poly import b\nlinalg.c(d)\n")
    assert _names(tree) == {"a", "b", "c", "d", "linalg"}
    assert _names(tree, skip_module="linalg") == {"b", "c", "d", "linalg"}
    assert _names(tree, attributes_only=True) == {"c"}


def _uncalled(names: list[str], sources: dict[str, str]) -> list[str]:
    """The ``names`` that no module of ``sources`` (file name to text) other
    than ``__init__.py`` names; re-exporting a name is no call."""
    named = set().union(
        *(_names(ast.parse(source)) for file, source in sources.items() if file != "__init__.py")
    )
    return [name for name in names if name not in named]


#: Public names that stay without a caller in the package
PUBLIC_WITHOUT_CALLER = {
    # the paper's objects: the triangular rank-one perturbation and Merris'
    # threshold count, in both rings
    "build_perturbation",
    "weighted_build_perturbation",
    "threshold_count",
    "weighted_count_threshold",
    # timed by perfbench/spans.py, which patches them
    "laplacian",
    "weighted_laplacian",
    # the writer of the format parse_edge_list reads, named in README
    "format_edge_list",
    # the paper's weighted Ferrers formula, which perfbench/spans.py patches;
    # its one call in the package is to itself, from a structure to its shape
    "weighted_count_ferrers",
    # the special 2-threshold recognizer, which perfbench/spans.py patches;
    # route and classify run its U-search themselves, route from the
    # second candidate on, after the threshold peel has tried U = V
    "special_2_threshold_order",
}


def test_caller_check_catches_a_planted_name():
    sources = {
        "__init__.py": "from .a import f, g, h, r\n",
        "a.py": "def f():\n    return 1\n\ndef g():\n    return f()\n\ndef h():\n    pass\n"
        "\ndef r(k):\n    return r(k - 1) if k else 0\n",
        "b.py": "from .a import h\n",
    }
    # r calls only itself, which is no caller
    assert _uncalled(["f", "g", "h", "r"], sources) == ["g", "r"]


def test_every_public_name_has_a_caller():
    assert PUBLIC_WITHOUT_CALLER <= set(spantree.__all__)
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    found = [name for name in _uncalled(spantree.__all__, sources) if name not in PUBLIC_WITHOUT_CALLER]
    assert not found, found


def _uncalled_methods(sources: dict[str, str]) -> list[str]:
    """"Class.method" for each public method or property of a class in
    ``sources`` (file name to text) that no module reads as an attribute
    outside the method's own ``def``."""
    trees = [ast.parse(source) for source in sources.values()]
    read = set().union(*(_names(tree, attributes_only=True) for tree in trees))
    return [
        f"{cls.name}.{node.name}"
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]


#: Public methods that stay without a caller in the package
METHODS_WITHOUT_CALLER = {
    # the tests' bridge from a weighted enumerator to the integer count,
    # named in the weighted module's docstring
    "substitute_all_ones",
}


def test_method_caller_check_catches_a_planted_method():
    # walk calls only itself; size is read and _private is not public
    a = "class A:\n  def used(s): return 1\n  def orphan(s): return s.used()\n"
    a += "  def walk(s, k): return s.walk(k - 1)\n  @property\n  def size(s): return 0\n"
    a += "  def _private(s): pass\n"
    assert _uncalled_methods({"a.py": a, "b.py": "f = lambda a: a.size\n"}) == ["A.orphan", "A.walk"]


def test_every_public_method_has_a_caller():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    found = [name for name in _uncalled_methods(sources) if name.split(".")[1] not in METHODS_WITHOUT_CALLER]
    assert not found, found


def _modules_naming(name: str) -> list[str]:
    """Package modules other than linalg that name ``name``; the package
    root may re-export it from linalg."""
    return [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "linalg.py"
        and name
        in _names(
            ast.parse(path.read_text(encoding="utf-8")),
            skip_module="linalg" if path.name == "__init__.py" else None,
        )
    ]


def test_bareiss_is_named_only_by_linalg():
    # polynomial determinants take the expansion, so Bareiss runs over the
    # integers only, inside linalg
    found = _modules_naming("fraction_free_determinant")
    assert not found, found


def test_expansion_determinant_is_named_only_by_linalg():
    # every determinant goes through a linalg.Ring, so the choice between
    # Bareiss, the triangular shortcut and the expansion is made in one place
    found = _modules_naming("expansion_determinant")
    assert not found, found


def test_graphs_keep_one_adjacency_format():
    # neighbor sets are the only adjacency of a graph: no n-bit masks, which
    # take O(n^2) bits on a sparse graph, and no helper to build them
    assert spantree.Graph.__slots__ == ("n", "_neighbors", "_pairs")
    names = ("mask_of", "packed_mask", "vertices_of", "neighbor_mask", "full_mask")
    found = [
        f"{path.name} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in names
        if name in path.read_text(encoding="utf-8")
    ]
    assert not found, found
