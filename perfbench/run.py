"""Benchmark of the repro NoC test planner: end-to-end and per-layer metrics.

Run from the repository root (it imports the library from ``src/``)::

    python3 perfbench/run.py --workload paper-serial --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a separate
traced run that prints the per-layer metrics.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the exit code is 0 only when every point passed its checks.  See
``perfbench/README.md`` for the workloads, the metrics and how they relate.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Cold set-up rounds per untraced run; ``setup_s`` is their median.
SETUP_ROUNDS = 5
#: Fresh interpreters per import-time measurement of the traced run.
IMPORT_SAMPLES = 5

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "grid_ms_p50": "ms",
    "grid_ms_p90": "ms",
    "pass_ratio": "ratio",
    "rss_peak_mb": "MB",
    "test_time_reduction_pct": "%",
    "lb_gap": "ratio",
    "reuse_anomalies": "count",
}

#: Span name -> the public function or method it wraps (module, attribute).
#: ``system.build`` also wraps the benchmark's own synthetic-SoC builder.
TRACED_FUNCTIONS = {
    "itc02.generate": ("repro.itc02.synth", "generate_benchmark"),
    "system.build": ("repro.runner.cache", "build_point_system"),
    "cores.design_wrapper": ("repro.cores.wrapper", "design_wrapper"),
    "noc.characterize": ("repro.noc.characterization", "characterize_noc"),
    "schedule.validate": ("repro.schedule.result", "validate_schedule"),
}
TRACED_METHODS = {
    "schedule.plan": ("repro.schedule.planner", "TestPlanner", "plan"),
    "runner.db.commit": ("repro.runner.db", "SweepDatabase", "record_run"),
    "runner.db.export": ("repro.runner.db", "SweepDatabase", "export_document"),
    "runner.db.merge": ("repro.runner.db", "SweepDatabase", "merge_all"),
    "runner.dispatch.supervise": ("repro.runner.dispatch", "WorkerSupervisor", "run"),
    "runner.backends.partition": (
        "repro.runner.backends",
        "ShardWorkerBackend",
        "plan_point_groups",
    ),
}
#: Layers whose self time is reported as ``<layer>.share``; the rest of the
#: traced grid time is ``other.share``.
LAYERS = (
    "itc02",
    "system",
    "cores",
    "noc",
    "schedule",
    "runner.db",
    "runner.dispatch",
    "runner.backends",
)

#: Per-layer metrics (``--trace 1``): name -> unit.  Seconds and counts
#: are per timed grid unless the name says otherwise.
PER_LAYER = {
    "itc02.generate_s": "s",
    "system.build_s": "s",
    "system.builds": "count",
    "cores.design_wrapper_s": "s",
    "system.build_self_s": "s",
    "runner.cache.system_hit_ratio": "ratio",
    "runner.cache.char_hit_ratio": "ratio",
    "noc.characterize_s": "s",
    "noc.characterizations": "count",
    "schedule.plan_s": "s",
    "schedule.plan_ms_p50": "ms",
    "schedule.plan_ms_p99": "ms",
    "schedule.validate_s": "s",
    "schedule.infeasible": "count",
    "runner.db.commit_s": "s",
    "runner.db.commits": "count",
    "runner.db.export_s": "s",
    "runner.db.merge_s": "s",
    "runner.dispatch.workers": "count",
    "runner.dispatch.retries": "count",
    "runner.dispatch.attempt_s_p50": "s",
    "runner.dispatch.worker_overhead_s": "s",
    "runner.backends.partition_s": "s",
    "repro.import_s": "s",
    "cli.import_s": "s",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "other.share": "ratio",
    "trace.overhead_pct": "%",
}


class BenchmarkSetupError(Exception):
    """The benchmark cannot run here (e.g. the library sources are missing)."""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("paper-serial", "paper-fanout", "synth-socs")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="one paper grid and three synthetic SoCs (the benchmark's self-tests)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_library():
    """Import the library from ``src/`` and the benchmark's workload module."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkSetupError(
            f"no repro sources under {SRC}; run from a repository checkout"
        )
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro
    import workloads

    return repro, workloads


@contextlib.contextmanager
def bytecode_cache():
    """Keep the bytecode of every interpreter the benchmark starts in ``_pycache/``.

    The library and the benchmark are compiled there first, and this process
    and its children (cold set-up rounds, shard workers) read and write
    bytecode there, as an installed package does, whether or not the
    environment sets ``PYTHONDONTWRITEBYTECODE``; otherwise set-up and
    fan-out times would include compiling from source.  The process-wide
    settings are restored on exit.
    """
    cache = str(BENCH_DIR / "_pycache")
    saved_env = {name: os.environ.get(name)
                 for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    saved_sys = (sys.dont_write_bytecode, sys.pycache_prefix)
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    os.environ["PYTHONPYCACHEPREFIX"] = cache
    sys.dont_write_bytecode, sys.pycache_prefix = False, cache
    try:
        for directory in (SRC, BENCH_DIR):
            compileall.compile_dir(directory, quiet=1)
        yield
    finally:
        sys.dont_write_bytecode, sys.pycache_prefix = saved_sys
        for name, value in saved_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


# ----------------------------------------------------------------------
# Host and environment.
# ----------------------------------------------------------------------
def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_descriptor(seed: int, version: str) -> dict[str, object]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "repro_version": version,
        "commit": git_commit(),
    }


def library_env() -> dict[str, str]:
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) if not existing else os.pathsep.join([str(SRC), existing])
    return env


def fresh_import(module: str) -> tuple[float, float]:
    """Import ``module`` in a fresh interpreter: (process wall s, import s)."""
    code = (
        "import time; start = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - start)"
    )
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=library_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return time.perf_counter() - start, float(done.stdout.strip())


# ----------------------------------------------------------------------
# Set-up and the timed loop.
# ----------------------------------------------------------------------
@dataclass
class Reference:
    """The warm-up results every timed grid is checked against."""

    runs: dict
    bad: dict[str, set]
    setup_seconds: list[float]


@dataclass
class LoopResult:
    """One timed loop over whole passes of the workload's grids."""

    grid_seconds: list[float] = field(default_factory=list)
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0

    @property
    def points_per_s(self) -> float:
        """Points attempted per second of grid wall time (bookkeeping excluded)."""
        return self.attempted / sum(self.grid_seconds)


def make_workload(workloads, name: str, tiny: bool):
    """The named workload; ``paper-fanout`` gets at most two workers (``nproc``)."""
    if name == "paper-fanout":
        return workloads.PaperFanout(tiny=tiny, workers=max(1, min(2, cpu_count())))
    return workloads.WORKLOADS[name](tiny=tiny)


def reference_pass(workload, workdir: Path) -> dict:
    """Generate the workload's inputs and run one warm-up pass over its grids."""
    workload.prepare()
    runs = {}
    for index, grid in enumerate(workload.grids()):
        grid_dir = workdir / f"{index:03d}"
        grid_dir.mkdir(parents=True)
        runs[grid] = workload.reference_grid(grid, grid_dir)
        shutil.rmtree(grid_dir)
    return runs


def fingerprint(run) -> dict:
    """One grid's results in a form that crosses a process boundary."""
    return {
        "results": {repr(key): repr(value) for key, value in run.results.items()},
        "export": None if run.export is None else hashlib.sha256(run.export).hexdigest(),
    }


def setup_round(name: str, tiny: bool, workdir: str) -> None:
    """Body of one cold set-up round; prints the pass's fingerprints as JSON."""
    _, workloads = import_library()
    runs = reference_pass(make_workload(workloads, name, tiny), Path(workdir))
    print(json.dumps({str(grid): fingerprint(run) for grid, run in runs.items()}))


def cold_setup_round(args: argparse.Namespace, workdir: Path) -> tuple[float, dict]:
    """Time one set-up round in a fresh interpreter, from its start to its exit."""
    code = (
        "import run; "
        f"run.setup_round({args.workload!r}, {args.tiny!r}, {str(workdir)!r})"
    )
    env = os.environ.copy()
    env["PYTHONPATH"] = str(BENCH_DIR)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"cold set-up round failed:\n{done.stderr}")
    return seconds, json.loads(done.stdout.strip().splitlines()[-1])


def set_up(workload, args: argparse.Namespace, *, cold_rounds: int) -> Reference:
    """The warm-up reference pass, then ``cold_rounds`` timed cold set-up rounds.

    The reference pass runs in this process, so the timed loop starts warm.
    Each cold round is a fresh interpreter that imports the library,
    generates the inputs and runs the same pass; it is timed from process
    start to exit, and its results are checked against the reference.
    """
    from workloads import GridRun

    runs = reference_pass(workload, args.workdir / "reference")
    bad = workload.reference_failures(runs)
    seconds = []
    for round_number in range(cold_rounds):
        round_dir = args.workdir / f"setup-{round_number}"
        elapsed, produced = cold_setup_round(args, round_dir)
        seconds.append(elapsed)
        shutil.rmtree(round_dir, ignore_errors=True)
        for grid, run in runs.items():
            theirs = produced.get(str(grid), {"results": {}, "export": None})
            differ = workload.check(GridRun(**theirs), GridRun(**fingerprint(run)))
            bad[grid] |= {key for key in run.results if repr(key) in differ}
    return Reference(runs=runs, bad=bad, setup_seconds=seconds)


def timed_loop(workload, reference: Reference, seconds: float, rng, workdir: Path,
               *, tracer=None, observe=None) -> LoopResult:
    """Run whole passes (grids in a seeded order) until ``seconds`` have passed."""
    result = LoopResult()
    reported: set[str] = set()
    start = time.perf_counter()
    while result.passes == 0 or time.perf_counter() - start < seconds:
        order = workload.grids()
        rng.shuffle(order)
        for grid in order:
            index = len(result.grid_seconds)
            grid_dir = workdir / f"grid-{index:05d}"
            grid_dir.mkdir(parents=True)
            points = workload.points(grid)
            traced = tracer.grid(index) if tracer else contextlib.nullcontext()
            grid_start = time.perf_counter()
            try:
                with traced:
                    run = workload.run_grid(grid, grid_dir)
            except Exception:  # the grid failed as a whole; counted, the run goes on
                elapsed = time.perf_counter() - grid_start
                failed = points
                message = traceback.format_exc()
                if message not in reported:
                    reported.add(message)
                    print(f"grid {grid} failed:\n{message}", file=sys.stderr)
            else:
                elapsed = time.perf_counter() - grid_start
                failing = workload.check(run, reference.runs[grid]) | reference.bad[grid]
                failed = len(failing)
                if failing:
                    note = (
                        f"grid {grid}: points {sorted(failing, key=str)} "
                        "differ from the reference"
                    )
                    if note not in reported:
                        reported.add(note)
                        print(note, file=sys.stderr)
                if observe is not None:
                    observe(run)
            shutil.rmtree(grid_dir)
            result.grid_seconds.append(elapsed)
            result.attempted += points
            result.failed += failed
        result.passes += 1
    result.wall = time.perf_counter() - start
    return result


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------
def percentile(values: list[float], fraction: float) -> float:
    """The ``fraction`` quantile (``statistics.quantiles``; one value is itself)."""
    if len(values) == 1:
        return values[0]
    steps = 100
    return statistics.quantiles(values, n=steps)[round(fraction * steps) - 1]


def rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(reference: Reference, loop: LoopResult, quality: dict) -> dict:
    return {
        "setup_s": statistics.median(reference.setup_seconds),
        "points_per_s": loop.points_per_s,
        "grid_ms_p50": 1000.0 * statistics.median(loop.grid_seconds),
        "grid_ms_p90": 1000.0 * percentile(loop.grid_seconds, 0.90),
        "pass_ratio": 1.0 - loop.failed / loop.attempted,
        "rss_peak_mb": rss_peak_mb(),
        **quality,
    }


class LayerLedger:
    """Numbers read from the traced grids' results (caches, dispatch reports)."""

    def __init__(self) -> None:
        self.system_lookups = self.system_hits = 0
        self.char_lookups = self.char_hits = 0
        self.workers: list[int] = []
        self.retries = 0
        self.attempt_seconds: list[float] = []
        self.worker_overheads: list[float] = []

    def observe(self, run) -> None:
        """Read one traced grid's results (before its directory is removed)."""
        info = run.info
        if "system_cache" in info:
            self.system_lookups += info["system_cache"].lookups
            self.system_hits += info["system_cache"].hits
            self.char_lookups += info["char_cache"].lookups
            self.char_hits += info["char_cache"].hits
        report = info.get("report")
        if report is not None:
            from repro.runner import SweepDatabase

            self.workers.append(len(report.workers))
            for worker in report.workers:
                self.retries += worker.retries
                durations = [attempt.duration for attempt in worker.attempts]
                self.attempt_seconds.extend(durations)
                with SweepDatabase.open_reader(worker.store_path) as shard:
                    planning = sum(shard.point_cost_rows(report.spec_key).values())
                self.worker_overheads.append(sum(durations) - planning)


def per_layer_metrics(tracer, loop: LoopResult, ledger: LayerLedger, untraced_pps: float,
                      imports: dict[str, float]) -> dict:
    grids = len(loop.grid_seconds)
    own = tracer.self_seconds()
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    counts: dict[str, int] = {}
    plan_ms: list[float] = []
    infeasible = 0
    for index, span in enumerate(tracer.spans):
        total[span.name] = total.get(span.name, 0.0) + span.seconds
        self_total[span.name] = self_total.get(span.name, 0.0) + own[index]
        counts[span.name] = counts.get(span.name, 0) + 1
        if span.name == "schedule.plan":
            plan_ms.append(1000.0 * span.seconds)
            infeasible += span.error == "PowerBudgetError"

    def per_grid(value: float) -> float:
        return value / grids

    def ratio(hits: int, lookups: int) -> float:
        return hits / lookups if lookups else 0.0

    traced_seconds = total["bench.grid"]
    shares = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_total.items():
        layer = name.rsplit(".", 1)[0]
        if layer in shares:
            shares[layer] += seconds / traced_seconds
    metrics = {
        "itc02.generate_s": per_grid(total.get("itc02.generate", 0.0)),
        "system.build_s": per_grid(total.get("system.build", 0.0)),
        "system.builds": per_grid(counts.get("system.build", 0)),
        "cores.design_wrapper_s": per_grid(total.get("cores.design_wrapper", 0.0)),
        "system.build_self_s": per_grid(self_total.get("system.build", 0.0)),
        "runner.cache.system_hit_ratio": ratio(ledger.system_hits, ledger.system_lookups),
        "runner.cache.char_hit_ratio": ratio(ledger.char_hits, ledger.char_lookups),
        "noc.characterize_s": per_grid(total.get("noc.characterize", 0.0)),
        "noc.characterizations": per_grid(counts.get("noc.characterize", 0)),
        "schedule.plan_s": per_grid(total.get("schedule.plan", 0.0)),
        "schedule.plan_ms_p50": statistics.median(plan_ms) if plan_ms else 0.0,
        "schedule.plan_ms_p99": percentile(plan_ms, 0.99) if plan_ms else 0.0,
        "schedule.validate_s": per_grid(total.get("schedule.validate", 0.0)),
        "schedule.infeasible": per_grid(infeasible),
        "runner.db.commit_s": per_grid(total.get("runner.db.commit", 0.0)),
        "runner.db.commits": per_grid(counts.get("runner.db.commit", 0)),
        "runner.db.export_s": per_grid(total.get("runner.db.export", 0.0)),
        "runner.db.merge_s": per_grid(total.get("runner.db.merge", 0.0)),
        "runner.dispatch.workers": statistics.fmean(ledger.workers) if ledger.workers else 0.0,
        "runner.dispatch.retries": per_grid(ledger.retries),
        "runner.dispatch.attempt_s_p50": (
            statistics.median(ledger.attempt_seconds) if ledger.attempt_seconds else 0.0
        ),
        "runner.dispatch.worker_overhead_s": (
            statistics.fmean(ledger.worker_overheads) if ledger.worker_overheads else 0.0
        ),
        "runner.backends.partition_s": per_grid(total.get("runner.backends.partition", 0.0)),
        "repro.import_s": imports["repro"],
        "cli.import_s": imports["repro.cli"],
        **{f"{layer}.share": share for layer, share in shares.items()},
        "other.share": 1.0 - sum(shares.values()),
        "trace.overhead_pct": 100.0 * (1.0 - loop.points_per_s / untraced_pps),
    }
    return metrics


def make_tracer(workloads_module):
    """A tracer over the traced functions and methods and the synthetic build."""
    from spans import Tracer

    tracer = Tracer()
    for name, (module, attribute) in TRACED_FUNCTIONS.items():
        tracer.trace_function(importlib.import_module(module), attribute, name)
    tracer.trace_function(workloads_module, "build_synthetic_system", "system.build")
    for name, (module, cls, attribute) in TRACED_METHODS.items():
        tracer.trace_method(getattr(importlib.import_module(module), cls), attribute, name)
    return tracer


# ----------------------------------------------------------------------
# Reporting.
# ----------------------------------------------------------------------
def print_metrics(metrics: dict, units: dict, notes: dict[str, str]) -> None:
    width = max(len(name) for name in units)
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<{width}}  {metrics[name]:>14.6f} {unit}{note}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
            },
        }
    )


def measure_end_to_end(workload, workloads, reference: Reference, args) -> tuple:
    """The untraced run: the end-to-end metrics and the timed loop behind them."""
    rng = random.Random(args.seed)
    loop = timed_loop(workload, reference, args.seconds, rng, args.workdir)
    quality = workloads.quality_metrics(workload, reference.runs)
    samples = f"n={len(loop.grid_seconds)} grids"
    notes = {"grid_ms_p50": samples, "grid_ms_p90": samples}
    return end_to_end_metrics(reference, loop, quality), END_TO_END, notes, [loop]


def measure_layers(workload, workloads, reference: Reference, args) -> tuple:
    """The traced run: half of the time untraced, half traced; per-layer metrics."""
    rng = random.Random(args.seed)
    untraced = timed_loop(workload, reference, args.seconds / 2, rng, args.workdir)
    ledger = LayerLedger()
    with make_tracer(workloads) as tracer:
        traced = timed_loop(
            workload, reference, args.seconds / 2, rng, args.workdir,
            tracer=tracer, observe=ledger.observe,
        )
    imports = {
        module: statistics.median(fresh_import(module)[1] for _ in range(IMPORT_SAMPLES))
        for module in ("repro", "repro.cli")
    }
    trace_out = BENCH_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_out)
    print(f"traced: {len(tracer.spans)} spans -> {trace_out}")
    metrics = per_layer_metrics(tracer, traced, ledger, untraced.points_per_s, imports)
    return metrics, PER_LAYER, {}, [untraced, traced]


def run(args: argparse.Namespace) -> int:
    repro, workloads = import_library()
    workload = make_workload(workloads, args.workload, args.tiny)
    print(
        f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}"
    )
    print("host " + json.dumps(host_descriptor(args.seed, repro.__version__), sort_keys=True))

    work_root = BENCH_DIR / "_work"
    work_root.mkdir(exist_ok=True)
    args.workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        with bytecode_cache():
            # setup_s is an end-to-end metric: the traced run skips the cold rounds.
            reference = set_up(workload, args, cold_rounds=0 if args.trace else SETUP_ROUNDS)
            if reference.setup_seconds:
                rounds = ", ".join(f"{seconds:.3f}" for seconds in reference.setup_seconds)
                print(f"setup: {SETUP_ROUNDS} cold rounds, {rounds} s")
            measure = measure_layers if args.trace else measure_end_to_end
            metrics, units, notes, loops = measure(workload, workloads, reference, args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()  # only when no other run is using it

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    for loop in loops:
        print(
            f"timed: {loop.passes} passes, {len(loop.grid_seconds)} grids, "
            f"{loop.attempted} points in {loop.wall:.2f} s"
        )
    print_metrics(metrics, units, notes)
    correct = failed == 0
    print(
        f"correctness: {'ok' if correct else 'FAILED'}; failed_ratio "
        f"{failed / attempted:g} ({failed} of {attempted} points)"
    )
    print(result_line(correct, attempted, failed, metrics, units))
    return 0 if correct else 1


def _terminate(signum: int, frame: object) -> None:
    # Unwind to main()'s finally blocks; the exit code is the shell's 128 + N.
    raise SystemExit(128 + signum)  # repro-lint: disable=RL006


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so the work directory is still removed.
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return run(args)
    except BenchmarkSetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
