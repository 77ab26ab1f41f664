"""Benchmark of the spantree CLI on seeded, generated suites.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: count_family, count_general, classify, weighted (see
perfbench/README.md for why each exists).  A run generates the workload's
suite from the seed, writes one edge-list file per graph, and drives
``spantree.cli.main([command, file, "--json"])`` in process, one call at a
time from a single thread, repeating whole passes over the suite for S
seconds.  Every answer is checked against an independent reference.
Pass, call, start-up and set-up times are reported adjusted to a reference
kernel timed next to them (speed.py), because the shared host's speed drifts.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with every layer's public functions wrapped in
spans, and prints the per-layer metrics.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Scratch files, run records and span dumps go to .bench_out/ at the root.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import spans
import speed
import suites

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
STARTUP_RUNS = 21
#: Reference runs before timing starts, to settle the interpreter and caches.
WARMUP_REFERENCES = 50
#: The CLI's exit code for an input past a capability cap.
EXIT_REFUSED = 3
#: weighted_oracle enumerates C(m, n-1) edge subsets; the CLI's own guard.
ORACLE_MAX_EDGES = 24


def load_cli():
    """Import spantree from scratch, so each set-up pays for the import."""
    for key in [k for k in sys.modules if k == "spantree" or k.startswith("spantree.")]:
        del sys.modules[key]
    return importlib.import_module("spantree.cli")


def set_up(workload: str, seed: int, suite_dir: Path):
    """Import the package, generate the suite with its references and write
    the edge-list files.  Returns (seconds, cli module, cases, probe, files)."""
    t0 = perf_counter()
    cli = load_cli()
    cases, probe = suites.build_suite(workload, seed)
    shutil.rmtree(suite_dir, ignore_errors=True)
    suite_dir.mkdir(parents=True)
    files = {}
    for case in cases + probe:
        path = suite_dir / f"{case.name}.txt"
        path.write_text(suites.edge_list_text(case.n, case.edges), encoding="utf-8")
        files[case.name] = str(path)
    (suite_dir / "files.json").write_text(json.dumps([files[c.name] for c in cases]))
    return perf_counter() - t0, cli, cases, probe, files


def call(cli, argv, tracer=None):
    """One in-process CLI call: (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(argv) if tracer is None else tracer.span("cli.main", cli.main, argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = -1
            err.write(traceback.format_exc())
        dt = perf_counter() - t0
    return rc, dt, out.getvalue(), err.getvalue()


class Pass:
    """One pass over the suite: each call's result and the reference kernel
    time measured just before it (see speed.py)."""

    def __init__(self):
        self.results: list[tuple] = []
        self.refs: list[float] = []

    @property
    def wall(self) -> float:
        return sum(r[1] for r in self.results)

    @property
    def adjusted_wall(self) -> float:
        return speed.adjust(self.wall, statistics.mean(self.refs))

    def adjusted_latencies_ms(self) -> list[float]:
        """Each call's latency against the mean of the reference times next
        to it (its own and its neighbours')."""
        refs = self.refs
        return [speed.adjust(r[1], statistics.mean(refs[max(0, i - 1):i + 2])) * 1e3
                for i, r in enumerate(self.results)]


def passes(cli, argvs, seconds: float, tracer=None, between=None) -> list[Pass]:
    """Whole passes over the suite until ``seconds`` have been spent in them
    (at least one), calling ``between(share of those seconds spent)`` after
    each pass, outside the budget."""
    done = []
    spent = 0.0
    while not done or spent < seconds:
        t0 = perf_counter()
        one = Pass()
        for i, argv in enumerate(argvs):
            if tracer is not None:
                tracer.call = len(done) * len(argvs) + i
            one.refs.append(speed.reference(3))
            one.results.append(call(cli, argv, tracer))
        done.append(one)
        spent += perf_counter() - t0
        if between is not None:
            between(spent / seconds)
    return done


def judge(case, command, result, oracle) -> str | None:
    """Reason the answer is wrong, or None."""
    rc, _, out, err = result
    if rc != 0:
        return f"exit {rc}: {err.strip().splitlines()[-1] if err.strip() else ''}"
    try:
        payload = json.loads(out)
    except ValueError:
        return "output is not JSON"
    if command == "count":
        return checks.check_count(case, payload)
    if command == "classify":
        return checks.check_classify(case, payload)
    oracle_text = oracle(case) if len(case.edges) <= ORACLE_MAX_EDGES else None
    return checks.check_weighted(case, payload, oracle_text)


def verify(cases, command, runs, oracle) -> tuple[int, int, dict[str, str]]:
    """Check the first pass against the references and every later pass
    against the first (the program is deterministic).  Returns (attempted,
    failed, {case: reason})."""
    first = runs[0].results
    reasons = {}
    for case, result in zip(cases, first):
        reason = judge(case, command, result, oracle)
        if reason:
            reasons[case.name] = reason
    attempted = failed = 0
    for one in runs:
        for case, ref, res in zip(cases, first, one.results):
            attempted += 1
            if case.name in reasons or res[0] != ref[0] or res[2] != ref[2]:
                failed += 1
                reasons.setdefault(case.name, "output differs between passes")
    return attempted, failed, reasons


class StartupProbe:
    """Fresh ``python -m spantree.cli`` processes on one input, each timed
    between two reference measurements.  They run between passes, keeping
    pace with the run's clock, so the samples spread over the run like the
    passes."""

    def __init__(self, command: str, path: str):
        self.argv = [sys.executable, "-m", "spantree.cli", command, path, "--json"]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.ms: list[float] = []
        self.raw_ms: list[float] = []
        self.bad = 0

    def __call__(self, share: float = 1.0) -> None:
        """Start processes until ``share`` of STARTUP_RUNS have run."""
        while len(self.ms) < STARTUP_RUNS * min(share, 1.0):
            before = speed.reference(3)
            t0 = perf_counter()
            proc = subprocess.run(self.argv, env=self.env, capture_output=True, timeout=60)
            dt = perf_counter() - t0
            after = speed.reference(3)
            self.raw_ms.append(dt * 1e3)
            self.ms.append(speed.adjust(dt, (before + after) / 2) * 1e3)
            self.bad += proc.returncode != 0


def timed_set_up(workload: str, seed: int, suite_dir: Path):
    """set_up() between two reference measurements.  Returns (adjusted
    seconds, raw seconds, the rest of set_up's result)."""
    before = speed.reference(5)
    seconds, *rest = set_up(workload, seed, suite_dir)
    after = speed.reference(5)
    return speed.adjust(seconds, (before + after) / 2), seconds, rest


class SetupProbe:
    """Set-ups repeated between passes, keeping pace with the run's clock like
    the start-up processes.  Back-to-back set-ups take a few seconds and so
    read whichever speed phase the host was in; spread over the run they see
    the phases the passes see."""

    def __init__(self, workload: str, seed: int, directory: Path, first: tuple[float, float]):
        self.args = (workload, seed, directory)
        self.seconds = [first[0]]
        self.raw_seconds = [first[1]]

    def __call__(self, share: float = 1.0) -> None:
        """Set up again until ``share`` of SETUP_REPEATS have run."""
        while len(self.seconds) < SETUP_REPEATS * min(share, 1.0):
            seconds, raw, _ = timed_set_up(*self.args)
            self.seconds.append(seconds)
            self.raw_seconds.append(raw)


def peak_rss_mb(command: str, suite_dir: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "rss_child.py"), str(SRC), str(suite_dir), command],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return float(proc.stdout.split()[-1])


def git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(cli, command, cases, files, suite_dir, seconds, setup):
    """Untraced passes plus the start-up and memory probes.  Returns
    (passes, metrics, start-up processes, how many of them failed, notes,
    unadjusted start-up times)."""
    smallest = min(cases, key=lambda c: (c.n, len(c.edges)))
    startup = StartupProbe(command, files[smallest.name])
    argvs = [[command, files[c.name], "--json"] for c in cases]
    speed.reference(WARMUP_REFERENCES)

    def between(share):
        startup(share)
        setup(share)

    runs = passes(cli, argvs, seconds, between=between)
    startup()
    setup()
    # Times adjusted to the reference kernel (speed.py), then medians over
    # the passes of each pass's own figure.
    deciles = [statistics.quantiles(one.adjusted_latencies_ms(), n=10) for one in runs]
    metrics = {
        "wall_s": (statistics.median(one.adjusted_wall for one in runs), "s"),
        "latency_p50_ms": (statistics.median(d[4] for d in deciles), "ms"),
        "latency_p90_ms": (statistics.median(d[8] for d in deciles), "ms"),
        "startup_ms": (statistics.median(startup.ms), "ms"),
        "setup_s": (statistics.median(setup.seconds), "s"),
        "peak_rss_mb": (peak_rss_mb(command, suite_dir), "MB"),
    }
    refs = [r for one in runs for r in one.refs]
    notes = [f"latency samples: {len(cases)} calls in each of {len(runs)} passes; "
             f"startup: {len(startup.ms)} fresh processes on {smallest.name} (n={smallest.n})",
             f"unadjusted medians: wall_s {statistics.median(one.wall for one in runs):.6g}, "
             f"startup_ms {statistics.median(startup.raw_ms):.6g}, "
             f"setup_s {statistics.median(setup.raw_seconds):.6g}; reference kernel "
             f"{statistics.median(refs) * 1e3:.4g} ms (nominal {speed.NOMINAL_S * 1e3:.4g} ms)"]
    raw = {"startup_ms": startup.raw_ms}
    return runs, metrics, len(startup.ms), startup.bad, notes, raw


def per_layer(cli, command, cases, files, seconds, probe_refused, dump_path):
    """Half the time untraced, half traced.  Returns (passes, metrics)."""
    argvs = [[command, files[c.name], "--json"] for c in cases]
    untraced = passes(cli, argvs, seconds / 2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = passes(cli, argvs, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    tracer.dump(dump_path)
    layer = spans.layer_metrics(tracer.spans, len(traced))
    first = untraced[0].results
    layer["counting.formula_route_share"] = 0.0
    if command == "count":
        formula = sum(1 for r in first if r[0] == 0 and json.loads(r[2])["method"].startswith("formula:"))
        layer["counting.formula_route_share"] = formula / len(first)
    layer["cli.output_bytes"] = sum(len(r[2].encode()) for r in first)
    layer["cli.probe_refused"] = probe_refused
    layer["trace.overhead_share"] = (
        statistics.median(one.adjusted_wall for one in traced)
        / statistics.median(one.adjusted_wall for one in untraced) - 1
    )
    return untraced + traced, {name: (layer[name], unit) for name, unit in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=suites.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "spantree" / "__init__.py").is_file():
        print(f"error: no spantree package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for the whole run, start-up processes included, so the
    # reference kernel always runs where the timed work runs.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    command = suites.COMMAND[args.workload]
    tag = f"{args.workload}-s{args.seed}"
    suite_dir = OUT / tag
    setup_dir = OUT / f"{tag}-setup"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }
    try:
        seconds, raw, (cli, cases, probe, files) = timed_set_up(args.workload, args.seed, suite_dir)
        setup = SetupProbe(args.workload, args.seed, setup_dir, (seconds, raw))
        weighted_oracle = sys.modules["spantree.weighted"].weighted_oracle
        graph_cls = sys.modules["spantree.graph"].Graph

        def oracle(case):
            return str(weighted_oracle(graph_cls(case.n, case.edges), max_edges=ORACLE_MAX_EDGES))

        # Exit 3 on a probe graph is the known refusal (ROADMAP item 4) and is
        # listed; any other exit or a wrong answer is a failure like any other.
        refused, probe_wrong = [], {}
        for case in probe:
            result = call(cli, [command, files[case.name], "--json"])
            reason = judge(case, command, result, oracle)
            if result[0] == EXIT_REFUSED:
                refused.append({"name": case.name, "n": case.n, "family": case.family, "reason": reason})
            elif reason:
                probe_wrong[case.name] = reason

        if args.trace:
            runs, metrics = per_layer(cli, command, cases, files, args.seconds, len(refused),
                                      OUT / f"trace-{tag}.jsonl")
            extra_calls = extra_failed = 0
            notes, raw = [], {}
        else:
            runs, metrics, extra_calls, extra_failed, notes, raw = end_to_end(
                cli, command, cases, files, suite_dir, args.seconds, setup)
        attempted, failed, reasons = verify(cases, command, runs, oracle)
        attempted += extra_calls + len(probe)
        failed += extra_failed + len(probe_wrong)
        reasons.update(probe_wrong)

        record.update(
            setup_s=setup.seconds,
            raw_setup_s=setup.raw_seconds,
            manifest=[c.manifest() for c in cases],
            pass_wall_s=[one.adjusted_wall for one in runs],
            raw_pass_wall_s=[one.wall for one in runs],
            raw_startup_ms=raw.get("startup_ms", []),
            probe_refused=refused,
            failures=reasons,
            metrics={name: value for name, (value, _) in metrics.items()},
            loadavg_end=os.getloadavg(),
        )
        busy = max(record["loadavg_start"][0], record["loadavg_end"][0])
        record["noisy"] = busy > (record["nproc"] or 1)
        (OUT / f"record-{tag}-t{args.trace}.json").write_text(json.dumps(record, indent=1))
    finally:
        shutil.rmtree(suite_dir, ignore_errors=True)
        shutil.rmtree(setup_dir, ignore_errors=True)

    print(f"# {tag} trace={args.trace}: {len(cases)} graphs, {len(runs)} passes, "
          f"{attempted} calls, {failed} failed")
    for line in notes:
        print(f"#   {line}")
    for name, why in reasons.items():
        print(f"#   wrong: {name}: {why}")
    for r in refused:
        print(f"#   probe outside the passes, not answered: {r['name']} (n={r['n']}, "
              f"{r['family']}): {r['reason']}")
    if record["noisy"]:
        print(f"#   noisy machine: 1-minute load {busy:.2f} on {record['nproc']} cpus")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


#: Per-layer metrics and their units, in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("graph.parse_s", "s"),
    ("graph.edges", "count"),
    ("recognition.threshold_s", "s"),
    ("recognition.threshold_hit_share", "share"),
    ("recognition.check_s", "s"),
    ("recognition.ferrers_s", "s"),
    ("recognition.ferrers_hit_share", "share"),
    ("recognition.usearch_s", "s"),
    ("recognition.usearch_hit_share", "share"),
    ("recognition.usearch_refused", "count"),
    ("recognition.witness_s", "s"),
    ("recognition.witness_calls", "count"),
    ("linalg.laplacian_s", "s"),
    ("linalg.bareiss_int_s", "s"),
    ("linalg.bareiss_int_dim_max", "count"),
    ("linalg.bareiss_int_mults", "count-computed"),
    ("linalg.det_bits_max", "bits"),
    ("linalg.bareiss_poly_s", "s"),
    ("linalg.bareiss_poly_calls", "count"),
    ("weighted.perturbation_s", "s"),
    ("weighted.laplacian_s", "s"),
    ("weighted.closed_form_s", "s"),
    ("poly.mul_s", "s"),
    ("poly.mul_calls", "count"),
    ("poly.exact_div_s", "s"),
    ("poly.exact_div_calls", "count"),
    ("poly.exact_div_terms_max", "count"),
    ("counting.formula_s", "s"),
    ("counting.formula_route_share", "share"),
    ("counting.cofactor_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("cli.probe_refused", "count"),
    ("trace.overhead_share", "share"),
]


if __name__ == "__main__":
    sys.exit(main())
