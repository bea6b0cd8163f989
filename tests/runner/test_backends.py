"""Tests of the pluggable execution backends and the shard-worker orchestrator."""

import sys

import pytest

from repro.errors import ConfigurationError, OrchestrationError
from repro.runner.backends import (
    BACKEND_FACTORIES,
    ProcessPoolBackend,
    RemoteDispatchBackend,
    SerialBackend,
    ShardWorkerBackend,
    make_backend,
)
from repro.runner.db import SweepDatabase
from repro.runner.engine import SweepRunner
from repro.runner.spec import SweepSpec
from repro.runner.store import dump_sweep, save_sweeps


@pytest.fixture(scope="module")
def small_spec():
    return SweepSpec(
        name="backend-grid",
        systems=("d695_leon",),
        processor_counts=(0, 2),
        power_limits=(("no power limit", None),),
    )


class TestRegistry:
    def test_all_backends_registered(self):
        assert set(BACKEND_FACTORIES) == {"serial", "pool", "shard-workers", "remote"}

    def test_make_backend_by_name(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("pool", jobs=3), ProcessPoolBackend)
        assert isinstance(make_backend("shard-workers", workers=4), ShardWorkerBackend)
        remote = make_backend("remote", hosts=["h1", "h2"], launcher="local")
        assert isinstance(remote, RemoteDispatchBackend)
        assert remote.worker_count == 2

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            make_backend("quantum")

    def test_remote_needs_hosts_and_hosts_need_remote(self):
        with pytest.raises(ConfigurationError, match="at least one host"):
            make_backend("remote")
        with pytest.raises(ConfigurationError, match="at least one host"):
            RemoteDispatchBackend(["  ", ""])
        with pytest.raises(ConfigurationError, match="remote backend"):
            make_backend("serial", hosts=["h1"])

    def test_serial_with_multiple_jobs_rejected(self):
        """jobs > 1 next to the serial backend is a contradiction, not a
        silently ignored flag."""
        with pytest.raises(ConfigurationError, match="pool"):
            make_backend("serial", jobs=4)

    def test_pool_jobs_resolution(self):
        assert make_backend("pool", jobs=None).worker_count >= 1
        assert make_backend("pool", jobs=5).worker_count == 5
        with pytest.raises(ConfigurationError, match="positive"):
            make_backend("pool", jobs=-1)

    def test_shard_worker_validation(self):
        with pytest.raises(ConfigurationError, match="positive"):
            ShardWorkerBackend(workers=0)
        with pytest.raises(ConfigurationError, match="launcher"):
            ShardWorkerBackend(workers=2, launcher="carrier-pigeon")


class TestRunnerBackendSelection:
    def test_jobs_shorthand_selects_backend(self):
        assert SweepRunner(jobs=1).backend.name == "serial"
        assert SweepRunner(jobs=3).backend.name == "pool"
        assert SweepRunner(jobs=3).jobs == 3

    def test_backend_name_accepted(self):
        assert SweepRunner(backend="serial").backend.name == "serial"
        assert SweepRunner(jobs=2, backend="pool").jobs == 2

    def test_backend_instance_accepted(self):
        backend = ShardWorkerBackend(workers=3)
        runner = SweepRunner(backend=backend)
        assert runner.backend is backend
        assert runner.jobs == 3


class TestBackendEquivalence:
    def test_pool_backend_byte_identical_to_serial(self, small_spec):
        serial = SweepRunner(backend=SerialBackend()).run(small_spec)
        pooled = SweepRunner(backend=ProcessPoolBackend(jobs=2)).run(small_spec)
        assert dump_sweep(small_spec, pooled) == dump_sweep(small_spec, serial)

    def test_pool_backend_with_one_job_runs_inline(self, small_spec):
        """jobs=1 on the pool backend must not spawn a pool (the serial
        shortcut the engine used to apply lives in the backend now)."""
        runner = SweepRunner(backend=ProcessPoolBackend(jobs=1))
        outcomes = runner.run(small_spec)
        assert len(outcomes) == small_spec.point_count


class TestCapabilityChecks:
    def test_shard_workers_cannot_run_inline(self, small_spec, tmp_path):
        runner = SweepRunner(backend=ShardWorkerBackend(workers=2))
        with pytest.raises(ConfigurationError, match="in-process"):
            runner.run(small_spec)
        with SweepDatabase(tmp_path / "s.db") as db:
            with pytest.raises(ConfigurationError, match="in-process"):
                runner.run_stored(small_spec, db)
            with pytest.raises(ConfigurationError, match="in-process"):
                runner.run_stored(small_spec, db, points=small_spec.shard(0, 2))

    def test_inline_backends_cannot_orchestrate(self, small_spec, tmp_path):
        with SweepDatabase(tmp_path / "s.db") as db:
            for backend in (SerialBackend(), ProcessPoolBackend(jobs=2)):
                with pytest.raises(ConfigurationError, match="orchestrate"):
                    SweepRunner(backend=backend).orchestrate(small_spec, db)


class TestWorkerPlanning:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("cost_sizing", [False, True])
    def test_plans_one_worker_per_point_group(
        self, small_spec, tmp_path, cost_sizing, workers
    ):
        """Every worker takes an explicit --points list, whether the groups
        come from measured costs or from equal shards; the lists cover the
        grid disjointly and no worker is planned for an empty group."""
        backend = ShardWorkerBackend(workers=workers, cost_sizing=cost_sizing)
        with SweepDatabase(tmp_path / "costs.db") as db:
            SweepRunner(jobs=1).run_stored(small_spec, db)  # measures point costs
            groups = backend.plan_point_groups(small_spec, db) if cost_sizing else None
        plans = backend.plan_workers(small_spec, tmp_path / "work", point_groups=groups)

        assert len(plans) == min(workers, small_spec.point_count)
        assert [plan.shard_index for plan in plans] == list(range(len(plans)))
        assert len({plan.store_path for plan in plans}) == len(plans)
        covered = [index for plan in plans for index in plan.point_indices]
        assert sorted(covered) == list(range(small_spec.point_count))
        for plan in plans:
            assert plan.point_indices
            assert plan.shard_count == len(plans)
            assert plan.spec_path.exists()
            assert "--shard-index" not in plan.argv
            position = plan.argv.index("--points")
            assert plan.argv[position + 1] == ",".join(map(str, plan.point_indices))
            assert "--no-characterize" in plan.argv

    def test_equal_groups_are_the_contiguous_shards(self, tmp_path):
        """Without measured costs the workers get the same contiguous blocks
        `spec.shard(i, n)` names, as --points lists."""
        from repro.experiments.figure1 import figure1_spec

        spec = figure1_spec("d695_leon")
        plans = ShardWorkerBackend(workers=3).plan_workers(spec, tmp_path)
        assert [plan.point_indices for plan in plans] == [
            tuple(point.index for point in spec.shard(index, 3)) for index in range(3)
        ]
        assert [plan.point_indices for plan in plans] == [(0, 1, 2), (3, 4, 5), (6, 7)]

    def test_point_groups_must_match_the_worker_count(self, small_spec, tmp_path):
        backend = ShardWorkerBackend(workers=2)
        with pytest.raises(ConfigurationError, match="3 point group"):
            backend.plan_workers(small_spec, tmp_path, point_groups=[(0,), (1,), ()])

    def test_characterisation_settings_forwarded(self, small_spec, tmp_path):
        backend = ShardWorkerBackend(workers=2)
        plans = backend.plan_workers(
            small_spec,
            tmp_path,
            characterize=True,
            packet_count=40,
            cache_dir=tmp_path / "cache",
            resume=True,
        )
        for plan in plans:
            assert "--no-characterize" not in plan.argv
            position = plan.argv.index("--packets")
            assert plan.argv[position + 1] == "40"
            assert "--cache-dir" in plan.argv
            assert "--resume" in plan.argv


class TestShardWorkerOrchestration:
    def test_orchestrated_d695_grid_byte_identical_to_serial(self, tmp_path):
        """The PR's acceptance criterion: the d695 grid orchestrated over 3
        local shard workers merges into a store whose exported document is
        byte-identical to a serial full run's, and (history carried) the
        merged store's run count equals the sum of the shard run counts."""
        from repro.experiments.figure1 import figure1_spec

        spec = figure1_spec("d695_leon")
        serial = save_sweeps(
            tmp_path / "serial.json", [(spec, SweepRunner(jobs=1).run(spec))]
        )
        backend = ShardWorkerBackend(workers=3)
        runner = SweepRunner(backend=backend)
        with SweepDatabase(tmp_path / "merged.db") as db:
            report = runner.orchestrate(spec, db, workdir=tmp_path / "work")
            exported = db.export_document(tmp_path / "merged.json")
            assert db.run_count(report.spec_key) == report.run_count
        assert exported.read_bytes() == serial.read_bytes()

        assert [w.returncode for w in report.workers] == [0, 0, 0]
        assert report.record_count == spec.point_count
        shard_run_counts = []
        for worker in report.workers:
            with SweepDatabase(worker.store_path) as shard:
                shard_run_counts.append(shard.run_count())
        assert report.run_count == sum(shard_run_counts) == 3

    def test_orchestration_with_more_workers_than_points(self, small_spec, tmp_path):
        """An over-provisioned fleet starts no worker for an empty point
        group: 4 workers over 2 points run 2 workers, one run each, and the
        merged export is still byte-identical to a serial run's."""
        serial = save_sweeps(
            tmp_path / "serial.json",
            [(small_spec, SweepRunner(jobs=1).run(small_spec))],
        )
        backend = ShardWorkerBackend(workers=4)
        with SweepDatabase(tmp_path / "merged.db") as db:
            report = SweepRunner(backend=backend).orchestrate(
                small_spec, db, workdir=tmp_path / "work"
            )
            assert report.record_count == small_spec.point_count == 2
            assert len(report.workers) == 2
            assert report.run_count == 2
            exported = db.export_document(tmp_path / "merged.json")
        assert exported.read_bytes() == serial.read_bytes()

    def test_launcher_sees_every_worker_command(self, small_spec, tmp_path):
        """The dispatch seam: the launcher receives each worker's host slot
        and --points command line and decides the spawned command — here a
        pass-through, in real deployments an ssh/CI wrapper."""
        seen = []

        def passthrough(host, argv, env):
            seen.append((host, list(argv)))
            return list(argv)

        backend = ShardWorkerBackend(workers=2, launcher=passthrough)
        with SweepDatabase(tmp_path / "merged.db") as db:
            SweepRunner(backend=backend).orchestrate(
                small_spec, db, workdir=tmp_path / "work"
            )
        assert [host for host, _ in seen] == ["local/0", "local/1"]
        assert all(argv[0] == sys.executable for _, argv in seen)
        assert [argv[argv.index("--points") + 1] for _, argv in seen] == ["0", "1"]

    def test_failing_worker_raises_with_log_tail(self, small_spec, tmp_path):
        def broken(host, argv, env):
            return [
                sys.executable,
                "-c",
                "import sys; print('shard exploded'); sys.exit(3)",
            ]

        backend = ShardWorkerBackend(workers=2, launcher=broken)
        with SweepDatabase(tmp_path / "merged.db") as db:
            with pytest.raises(OrchestrationError, match="exited 3"):
                SweepRunner(backend=backend).orchestrate(
                    small_spec, db, workdir=tmp_path / "work"
                )
            # The failed orchestration must not have merged anything.
            assert db.record_count() == 0
        (log_path,) = (tmp_path / "work").rglob("shard-0.log")
        assert "shard exploded" in log_path.read_text()

    def test_hung_worker_killed_after_timeout(self, small_spec, tmp_path):
        def hang(host, argv, env):
            return [sys.executable, "-c", "import time; time.sleep(60)"]

        backend = ShardWorkerBackend(workers=2, launcher=hang, timeout=0.3)
        with SweepDatabase(tmp_path / "merged.db") as db:
            with pytest.raises(OrchestrationError, match="still running"):
                SweepRunner(backend=backend).orchestrate(
                    small_spec, db, workdir=tmp_path / "work"
                )
            assert db.record_count() == 0

    def test_remerging_unchanged_shard_stores_is_a_noop(self, small_spec, tmp_path):
        """Folding the shard stores of a finished orchestration in again must
        carry no runs and add no records (retry safety)."""
        backend = ShardWorkerBackend(workers=2)
        with SweepDatabase(tmp_path / "merged.db") as db:
            report = SweepRunner(backend=backend).orchestrate(
                small_spec, db, workdir=tmp_path / "work"
            )
            run_count = db.run_count()
            for worker in report.workers:
                with SweepDatabase(worker.store_path) as shard:
                    again = db.merge(shard, carry_history=True)
                assert again.runs_carried == 0
                assert again.inserted == 0
            assert db.run_count() == run_count
            assert db.records(report.spec_key) == [
                o.record() for o in SweepRunner(jobs=1).run(small_spec)
            ]


class TestCostBasedSharding:
    def seeded_store(self, spec, path, costs):
        db = SweepDatabase(path)
        spec_key = db.ensure_sweep(spec)
        db.record_run(spec_key, [], executed=0, skipped=0, point_costs=costs)
        return db

    def test_no_measurements_falls_back_to_equal_sharding(self, small_spec, tmp_path):
        backend = ShardWorkerBackend(workers=2, cost_sizing=True)
        with SweepDatabase(tmp_path / "empty.db") as db:
            db.ensure_sweep(small_spec)
            assert backend.plan_point_groups(small_spec, db) is None

    def test_lpt_over_more_workers_than_points_plans_no_empty_worker(
        self, small_spec, tmp_path
    ):
        """Cost sizing with 4 workers over 2 points leaves 2 groups empty;
        only the 2 non-empty groups get a worker."""
        backend = ShardWorkerBackend(workers=4, cost_sizing=True)
        with self.seeded_store(small_spec, tmp_path / "s.db", {0: 3.0, 1: 1.0}) as db:
            groups = backend.plan_point_groups(small_spec, db)
        assert groups == [(0,), (1,), (), ()]
        plans = backend.plan_workers(small_spec, tmp_path / "work", point_groups=groups)
        assert [plan.point_indices for plan in plans] == [(0,), (1,)]
        assert [plan.shard_count for plan in plans] == [2, 2]

    def test_lpt_balances_measured_costs(self, tmp_path):
        """One dominant point gets a worker to itself; the cheap points pack
        onto the other — and unmeasured points cost the measured mean."""
        spec = SweepSpec(
            name="lpt-grid",
            systems=("d695_leon",),
            processor_counts=(0, 2, 4, 6),
            power_limits=(("no power limit", None),),
        )
        costs = {0: 10.0, 1: 1.0, 2: 1.0}  # point 3 unmeasured -> mean 4.0
        backend = ShardWorkerBackend(workers=2, cost_sizing=True)
        with self.seeded_store(spec, tmp_path / "s.db", costs) as db:
            groups = backend.plan_point_groups(spec, db)
            again = backend.plan_point_groups(spec, db)
        assert groups == again  # deterministic
        assert groups == [(0,), (1, 2, 3)]
        assert sorted(i for group in groups for i in group) == [0, 1, 2, 3]

    def test_point_groups_flow_into_worker_argv(self, small_spec, tmp_path):
        backend = ShardWorkerBackend(workers=2)
        plans = backend.plan_workers(
            small_spec, tmp_path, point_groups=[(1,), (0,)]
        )
        for plan, expected in zip(plans, ("1", "0")):
            position = plan.argv.index("--points")
            assert plan.argv[position + 1] == expected
            assert "--shard-index" not in plan.argv
        assert [plan.point_indices for plan in plans] == [(1,), (0,)]

    def test_cost_sized_orchestration_matches_serial(self, small_spec, tmp_path):
        """End to end: measure costs with a serial store-backed run, then
        orchestrate the same grid cost-sized — records identical to serial."""
        with SweepDatabase(tmp_path / "merged.db") as db:
            SweepRunner(jobs=1).run_stored(small_spec, db)
            assert db.point_cost_rows(small_spec.content_key())
            backend = ShardWorkerBackend(workers=2, cost_sizing=True)
            report = SweepRunner(backend=backend).orchestrate(
                small_spec, db, workdir=tmp_path / "work", resume=False
            )
            records = db.records(small_spec.content_key())
        assert report.record_count == small_spec.point_count
        assert records == [o.record() for o in SweepRunner(jobs=1).run(small_spec)]
