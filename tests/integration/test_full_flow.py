"""Integration tests across modules: full paper systems, cross-validation
against the circuit-switched simulator, and determinism."""

import pytest

from repro.analysis.metrics import compute_metrics
from repro.experiments.figure1 import figure1_spec
from repro.noc.simulator import CircuitSwitchedSimulator, TransferRequest
from repro.schedule.planner import TestPlanner
from repro.schedule.result import validate_schedule
from repro.system.presets import PAPER_SYSTEMS, build_paper_system


@pytest.fixture(scope="module")
def d695_leon():
    return build_paper_system("d695_leon")


@pytest.fixture(scope="module")
def d695_plan(d695_leon):
    return TestPlanner(d695_leon).plan(reused_processors=6, power_limit_fraction=0.5)


class TestPaperSystemPlanning:
    def test_schedule_valid_for_every_paper_system(self):
        for name in ("d695_leon", "d695_plasma"):
            system = build_paper_system(name)
            planner = TestPlanner(system)
            for count in (0, len(system.processor_cores)):
                result = planner.plan(reused_processors=count, power_limit_fraction=0.5)
                validate_schedule(result, expected_core_ids=system.core_ids)

    def test_large_system_schedule_valid(self):
        system = build_paper_system("p93791_leon")
        result = TestPlanner(system).plan(reused_processors=8)
        validate_schedule(result, expected_core_ids=system.core_ids)
        assert result.test_count == 40

    def test_d695_noproc_matches_serial_sum(self, d695_leon):
        """With one external interface, the noproc test time must equal the
        sum of the individual test jobs (pure serialisation)."""
        result = TestPlanner(d695_leon).plan(reused_processors=0)
        assert result.makespan == sum(a.duration for a in result.assignments)

    def test_noproc_baseline_magnitude_matches_paper_axis(self, d695_leon):
        """The paper's Figure 1 d695 noproc bar sits near 160k cycles."""
        result = TestPlanner(d695_leon).plan(reused_processors=0)
        assert 120_000 <= result.makespan <= 210_000

    def test_processor_cores_tested_before_reuse(self, d695_plan, d695_leon):
        completion = {a.core_id: a.end for a in d695_plan.assignments}
        for assignment in d695_plan.assignments:
            if assignment.interface_id.startswith("proc."):
                processor_core = assignment.interface_id.split("proc.", 1)[1]
                assert completion[processor_core] <= assignment.start

    def test_power_ceiling_respected(self, d695_plan, d695_leon):
        limit = d695_leon.total_core_power * 0.5
        assert d695_plan.peak_power() <= limit + 1e-6

    def test_metrics_consistent(self, d695_plan):
        metrics = compute_metrics(d695_plan)
        assert metrics.makespan == d695_plan.makespan
        assert 1.0 <= metrics.average_parallelism <= len(d695_plan.interfaces)


class TestSimulatorCrossValidation:
    def test_schedule_replays_on_simulator_without_delays(self):
        """Feeding a schedule's transfers (with its start times as release
        times) to the circuit-switched simulator must reproduce the exact same
        start/end times: the schedule never over-commits a link or port.
        Checked on every Figure 1 point of the six paper systems."""
        replayed = 0
        for name in sorted(PAPER_SYSTEMS):
            spec = figure1_spec(name)
            planner = TestPlanner(build_paper_system(name))
            for point in spec.points():
                plan = planner.plan(
                    reused_processors=point.reused_processors,
                    power_limit_fraction=point.power_limit_fraction,
                )
                simulator = CircuitSwitchedSimulator()
                for index, assignment in enumerate(plan.assignments):
                    simulator.add(
                        TransferRequest(
                            name=assignment.core_id,
                            resources=assignment.job.resources,
                            duration=assignment.duration,
                            release_time=assignment.start,
                            priority=index,
                        )
                    )
                records = {record.name: record for record in simulator.run()}
                assert len(records) == len(plan.assignments)
                for assignment in plan.assignments:
                    record = records[assignment.core_id]
                    where = f"{name} {point.label} {assignment.core_id}"
                    assert record.start == assignment.start, where
                    assert record.end == assignment.end, where
                replayed += 1
        assert replayed == 56

    def test_unconstrained_simulation_is_a_lower_bound(self, d695_plan):
        """Releasing every transfer at time 0 can only shorten the span: the
        simulator result bounds the schedule from below (same durations, no
        power constraint, no interface exclusivity)."""
        simulator = CircuitSwitchedSimulator()
        for index, assignment in enumerate(d695_plan.assignments):
            simulator.add(
                TransferRequest(
                    name=assignment.core_id,
                    resources=assignment.job.resources,
                    duration=assignment.duration,
                    release_time=0,
                    priority=index,
                )
            )
        records = simulator.run()
        simulated_span = max(record.end for record in records)
        assert simulated_span <= d695_plan.makespan


class TestDeterminism:
    def test_full_flow_reproducible(self):
        first = TestPlanner(build_paper_system("d695_plasma")).plan(reused_processors=4)
        second = TestPlanner(build_paper_system("d695_plasma")).plan(reused_processors=4)
        assert first.makespan == second.makespan
        assert [(a.core_id, a.start, a.interface_id) for a in first.assignments] == [
            (a.core_id, a.start, a.interface_id) for a in second.assignments
        ]
