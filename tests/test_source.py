"""Checks on the package source itself."""

import ast
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
