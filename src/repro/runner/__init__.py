"""Parallel experiment-sweep engine with result caching.

The runner package is the orchestration layer above the planner: declare a
grid with :class:`SweepSpec`, execute it with :class:`SweepRunner` on a
pluggable :class:`ExecutionBackend` (in-process, process pool, or fanned
out over shard-worker subprocesses — always in deterministic point order),
and persist the outcome as schema-versioned JSON with :func:`save_sweeps` /
:func:`load_sweeps` or durably in a :class:`SweepDatabase` sqlite store
(crash-safe, accumulates across runs, and enables incremental re-runs via
:meth:`SweepRunner.run_stored`).  Grids also execute sharded: each slice
of the point order (:meth:`SweepSpec.shard` or :meth:`SweepSpec.points_at`)
runs anywhere via ``SweepRunner.run_stored(..., points=...)`` into its own
store, and :meth:`SweepDatabase.merge` folds the shard stores back into one
database record-identical to a single-host run — :meth:`SweepRunner.orchestrate`
(backend ``shard-workers``) automates that dispatch-monitor-merge cycle
locally, with a pluggable launcher for remote fan-out.  The paper's
experiment drivers
(:mod:`repro.experiments`) and the ``repro sweep`` CLI are thin layers over
this package.

Quickstart::

    from repro.runner import SweepRunner, SweepSpec

    spec = SweepSpec(
        name="d695-demo",
        systems=("d695_leon",),
        processor_counts=(0, 2, 4, 6),
        power_limits={"no power limit": None, "50% power limit": 0.5},
    )
    outcomes = SweepRunner(jobs=4, characterize=True).run(spec)
    for outcome in outcomes:
        print(outcome.point.label, outcome.makespan)
"""

from repro.runner.atomic import atomic_write_text
from repro.runner.backends import (
    BACKEND_FACTORIES,
    ExecutionBackend,
    OrchestrationReport,
    ProcessPoolBackend,
    SerialBackend,
    ShardWorkerBackend,
    WorkerOutcome,
    WorkerPlan,
    make_backend,
)
from repro.runner.cache import (
    CacheStats,
    CharacterizationCache,
    SystemCache,
    build_point_system,
    content_key,
)
from repro.runner.db import DB_SCHEMA_VERSION, MergeReport, RunInfo, SweepDatabase
from repro.runner.engine import (
    StoreRunReport,
    SweepOutcome,
    SweepRunner,
    execute_point,
)
from repro.runner.spec import (
    SCHEDULER_FACTORIES,
    SweepPoint,
    SweepSpec,
    canonical_scheduler_name,
    make_scheduler,
    power_series_label,
    scheduler_spec_name,
)
from repro.runner.store import (
    SCHEMA_VERSION,
    StoredSweep,
    dump_stored_sweeps,
    dump_sweep,
    dump_sweeps,
    load_sweeps,
    save_stored_sweeps,
    save_sweeps,
    sweeps_document,
)

__all__ = [
    "atomic_write_text",
    "BACKEND_FACTORIES",
    "ExecutionBackend",
    "OrchestrationReport",
    "ProcessPoolBackend",
    "SerialBackend",
    "ShardWorkerBackend",
    "WorkerOutcome",
    "WorkerPlan",
    "make_backend",
    "CacheStats",
    "CharacterizationCache",
    "SystemCache",
    "build_point_system",
    "content_key",
    "DB_SCHEMA_VERSION",
    "MergeReport",
    "RunInfo",
    "SweepDatabase",
    "StoreRunReport",
    "SweepOutcome",
    "SweepRunner",
    "execute_point",
    "SCHEDULER_FACTORIES",
    "SweepPoint",
    "SweepSpec",
    "canonical_scheduler_name",
    "make_scheduler",
    "power_series_label",
    "scheduler_spec_name",
    "SCHEMA_VERSION",
    "StoredSweep",
    "dump_stored_sweeps",
    "dump_sweep",
    "dump_sweeps",
    "load_sweeps",
    "save_stored_sweeps",
    "save_sweeps",
    "sweeps_document",
]
