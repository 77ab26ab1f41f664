"""The CI workflow file is well formed and names only files, benchmark
workloads and per-layer metrics that exist."""

import ast
import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

#: A relative path with at least one '/', not part of a longer word, a
#: shell variable's expansion ("$RUNNER_TEMP/x") or an arithmetic "//".
_REPO_PATH = re.compile(r"(?<![\w$/.-])[A-Za-z_][\w.-]*(?:/[\w.-]+)+")
#: A module run with ``python -m``.
_MODULE = re.compile(r"\bpython3? -m ([\w.]+)")


def _jobs():
    return yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]


def _assigned(path: Path, name: str):
    """The literal assigned to the module-level ``name`` in the file at
    ``path``, read without importing it."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def _bench_smoke_matrix():
    return _jobs()["bench-smoke"]["strategy"]["matrix"]["include"]


def _run_steps():
    return [step["run"] for job in _jobs().values() for step in job["steps"] if "run" in step]


def test_every_job_has_a_runner_and_steps():
    jobs = _jobs()
    assert jobs
    for name, job in jobs.items():
        assert job.get("runs-on"), name
        assert job.get("steps"), name


def test_run_steps_name_only_files_in_the_repo():
    runs = _run_steps()
    paths = {p for run in runs for p in _REPO_PATH.findall(run)}
    assert "perfbench/run.py" in paths
    for path in paths:
        assert (ROOT / path).exists(), path
    modules = {m for run in runs for m in _MODULE.findall(run)} - {"pytest"}
    for module in modules:
        assert (ROOT / "src" / (module.replace(".", "/") + ".py")).exists(), module


def test_tier_1_job_runs_the_roadmap_tier_1_command():
    # CI and a local tier-1 run are one command, long-input checks included
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1)
    assert command in [step.get("run") for step in _jobs()["tier-1"]["steps"]]


def test_bench_smoke_names_only_known_workloads():
    workloads = _assigned(ROOT / "perfbench" / "suites.py", "WORKLOADS")
    named = [row["workload"] for row in _bench_smoke_matrix()]
    assert named and set(named) <= set(workloads), named


def test_bench_smoke_live_metrics_are_per_layer_metrics():
    # a misspelt name would otherwise surface only as a KeyError in the
    # job's inline checker
    per_layer = {name for name, _unit in _assigned(ROOT / "perfbench" / "run.py", "PER_LAYER")}
    for row in _bench_smoke_matrix():
        live = row["live"].split()
        assert live and set(live) <= per_layer, (row["workload"], set(live) - per_layer)
