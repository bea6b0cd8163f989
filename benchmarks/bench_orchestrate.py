"""Orchestration benchmark: shard-worker fan-out vs an in-process stored run.

Times the d695 Figure 1 grid twice: executed in-process through
``SweepRunner.run_stored`` (the single-host baseline) and orchestrated over
3 local ``repro sweep --points`` subprocess workers through
``SweepRunner.orchestrate`` (spawn + monitor + history-carrying merge).  The
gap is the orchestration overhead a distributed run pays on top of the
planning work itself — dominated by interpreter start-up per worker, so it
amortises as grids grow.  Both paths are asserted to produce identical
current records, pinning the byte-identity invariant inside the benchmark.
"""

from __future__ import annotations

from itertools import count

from repro.experiments.figure1 import figure1_spec
from repro.runner.backends import ShardWorkerBackend
from repro.runner.db import SweepDatabase
from repro.runner.engine import SweepRunner

from conftest import emit

#: Shard workers for the orchestrated run (matches CI's orchestrate-smoke).
WORKER_COUNT = 3


def test_orchestrate_baseline_stored_run(benchmark, tmp_path):
    """Single-host baseline: the grid executed in-process into a fresh store."""
    spec = figure1_spec("d695_leon")
    fresh = count()

    def run_stored():
        with SweepDatabase(tmp_path / f"baseline-{next(fresh)}.db") as db:
            return SweepRunner(jobs=1).run_stored(spec, db)

    report = benchmark.pedantic(run_stored, rounds=3, iterations=1)
    emit(
        "Orchestration benchmark: in-process baseline",
        f"executed {report.executed_count} of {spec.point_count} points",
    )
    assert report.executed_count == spec.point_count


def test_orchestrate_shard_workers(benchmark, tmp_path):
    """The same grid fanned out over 3 local shard workers and merged."""
    spec = figure1_spec("d695_leon")
    backend = ShardWorkerBackend(workers=WORKER_COUNT)
    fresh = count()

    def run_orchestrated():
        round_index = next(fresh)
        with SweepDatabase(tmp_path / f"merged-{round_index}.db") as db:
            report = SweepRunner(backend=backend).orchestrate(
                spec, db, workdir=tmp_path / f"work-{round_index}"
            )
            return report, db.records(spec.content_key())

    report, merged_records = benchmark.pedantic(run_orchestrated, rounds=3, iterations=1)
    emit(
        "Orchestration benchmark: 3 shard workers",
        f"{report.record_count} records, {report.run_count} shard runs merged "
        f"({len(report.workers)} workers)",
    )
    assert report.record_count == spec.point_count
    assert report.run_count == WORKER_COUNT
    # The orchestrated store must hold exactly the serial run's records.
    serial = [outcome.record() for outcome in SweepRunner(jobs=1).run(spec)]
    assert merged_records == serial
