"""Byte-for-byte replay of recorded CLI calls.

``cli_golden.json`` stores the exit code, stdout and stderr of every call in
``CALLS``: the fixtures under ``count`` with each method and with
``--verify``, ``weighted`` with each method, and ``classify``, each plain
and with ``--json``, plus the family flags with ``--verify`` on both sides
of the oracle's edge limit.  The fixture directory is stored as
``{FIXTURES}`` because the JSON echoes the input path.

Regenerate the file (only when an output change is intended) with
``PYTHONPATH=src python tests/test_cli_golden.py --write``.
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from sample_graphs import FIXTURES  # noqa: E402

from spantree.cli import main  # noqa: E402

GOLDEN = Path(__file__).parent / "cli_golden.json"
PLACEHOLDER = "{FIXTURES}"

_FIXTURE_NAMES = sorted(p.name for p in FIXTURES.glob("*.txt"))
_FAMILY_FLAGS = [
    ["--complete", "5"],
    ["--complete", "8"],  # 28 edges, over the default limit of 24
    ["--ferrers", "3,2,2,1"],
    ["--ferrers", "9,9,9"],  # 27 edges
    ["--multipartite", "2,3"],
    ["--multipartite", "2,2,2"],
    ["--multipartite", "5,5"],  # 25 edges
    ["--multipartite", "3,3,3"],  # 27 edges
]


def _calls() -> list[list[str]]:
    calls = []
    for name in _FIXTURE_NAMES:
        path = f"{PLACEHOLDER}/{name}"
        for method in ("auto", "formula", "matrix-tree", "perturbation", "oracle"):
            calls.append(["count", path, "--method", method])
        calls.append(["count", path, "--verify"])
        for method in ("auto", "formula", "perturbation", "oracle"):
            calls.append(["weighted", path, "--method", method])
        calls.append(["classify", path])
    for flag in _FAMILY_FLAGS:
        calls.append(["count", *flag, "--verify"])
    return [argv + extra for argv in calls for extra in ([], ["--json"])]


CALLS = _calls()


def _replay(argv: list[str]) -> dict:
    """Run ``main`` in-process on argv, the placeholder filled in, and
    return its exit code and output with the fixture directory put back
    to the placeholder."""
    real = [a.replace(PLACEHOLDER, str(FIXTURES)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(real)
    return {
        "argv": argv,
        "exit": code,
        "stdout": out.getvalue().replace(str(FIXTURES), PLACEHOLDER),
        "stderr": err.getvalue().replace(str(FIXTURES), PLACEHOLDER),
    }


@cache
def _recorded() -> dict[tuple[str, ...], dict]:
    return {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_call():
    assert sorted(_recorded()) == sorted(map(tuple, CALLS))


@pytest.mark.parametrize(
    "argv", CALLS, ids=lambda argv: " ".join(argv).replace(PLACEHOLDER + "/", "")
)
def test_cli_output_is_byte_identical(argv, monkeypatch):
    monkeypatch.delenv("SPANTREE_ORACLE_LIMIT", raising=False)
    assert _replay(argv) == _recorded()[tuple(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --write")
    os.environ.pop("SPANTREE_ORACLE_LIMIT", None)
    records = [_replay(argv) for argv in CALLS]
    GOLDEN.write_text("[\n" + ",\n".join(map(json.dumps, records)) + "\n]\n")
    print(f"wrote {len(records)} calls to {GOLDEN}")
