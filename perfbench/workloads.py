"""The benchmark's three workloads, driven only through the public API.

Every workload is a list of *grids*; a grid is one system's full sweep (one
``repro sweep <system>`` or ``repro orchestrate <system>``, or one synthetic
SoC planned at every reuse level and power limit).  A workload runs a grid
into a fresh directory, returns what the grid produced, and checks it point
by point against the reference the warm-up pass recorded.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean

from repro.analysis.bounds import makespan_lower_bounds
from repro.cores.power import assign_power
from repro.errors import PowerBudgetError
from repro.experiments.figure1 import figure1_spec
from repro.itc02 import synth
from repro.itc02.model import SocBenchmark
from repro.noc.network import NocConfig
from repro.processors.leon import leon_processor
from repro.runner import ShardWorkerBackend, SweepDatabase, SweepRunner
from repro.schedule.planner import TestPlanner
from repro.system import SocSystem, SystemBuilder, build_paper_system
from repro.system.presets import PAPER_SYSTEMS
from repro.tam.ports import PortDirection

#: Paper Figure 1 no-limit makespans of d695_leon at k = 0, 2, 4, 6 reused
#: processors: the golden numbers every paper reference must reproduce.
D695_LEON_NO_LIMIT = {0: 163785, 2: 112189, 4: 102116, 6: 100275}

#: Power limits of the synthetic population: none, 50 % and 30 %.
SYNTH_POWER_LIMITS = (None, 0.5, 0.3)

#: Seed of the synthetic SoC population.  It is fixed, so the simulated
#: metrics of ``synth-socs`` are the same in every run; the benchmark's
#: ``--seed`` sets only the order of the grids in each pass.
SYNTH_POPULATION_SEED = 12

#: Refusal value of a point whose plan raised the typed power-budget error.
REFUSED = "refused:PowerBudgetError"


@dataclass
class GridRun:
    """What one grid produced.

    Attributes:
        results: point key -> comparable result (an exported record, a
            makespan, or a refusal/error marker).
        export: the grid's exported document, for workloads that export.
        info: objects the traced run reads layer numbers from (runner
            caches, orchestration reports); never compared.
    """

    results: dict
    export: bytes | None = None
    info: dict = field(default_factory=dict)


@dataclass
class Series:
    """Makespans of one (grid, power limit) series by reuse level k."""

    grid: str
    makespans: dict[int, int]


class Workload:
    """Common shape of a workload: grids, reference, per-point checks."""

    name = ""

    def __init__(self, *, tiny: bool = False) -> None:
        self.tiny = tiny

    def prepare(self) -> None:
        """Generate the workload's inputs."""
        raise NotImplementedError

    def grids(self) -> list[str]:
        """Grid keys of one pass, in a fixed order."""
        raise NotImplementedError

    def points(self, grid: str) -> int:
        """Number of points one run of ``grid`` attempts."""
        raise NotImplementedError

    def run_grid(self, grid: str, workdir: Path) -> GridRun:
        """Run one grid into ``workdir`` (the timed unit)."""
        raise NotImplementedError

    def reference_grid(self, grid: str, workdir: Path) -> GridRun:
        """Run one grid for the warm-up reference (by default as timed)."""
        return self.run_grid(grid, workdir)

    def reference_failures(self, reference: dict[str, GridRun]) -> dict[str, set]:
        """Points whose reference itself is wrong (they fail in every pass)."""
        return {grid: set() for grid in reference}

    def check(self, produced: GridRun, reference: GridRun) -> set:
        """Point keys of ``produced`` that differ from ``reference``."""
        failed = {
            key
            for key, value in reference.results.items()
            if produced.results.get(key) != value
        }
        if not failed and produced.export != reference.export:
            # Same records in a different document: every point is suspect.
            failed = set(reference.results)
        return failed

    def series(self, reference: dict[str, GridRun]) -> list[Series]:
        """The reference's (grid, power limit) series, for the quality metrics."""
        raise NotImplementedError

    def system(self, grid: str) -> SocSystem:
        """The built system of ``grid`` (for the lower bounds)."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Paper Figure 1 grids.
# ----------------------------------------------------------------------
class PaperSerial(Workload):
    """The six Figure 1 grids through ``SweepRunner(jobs=1)`` into fresh stores."""

    name = "paper-serial"

    def prepare(self) -> None:
        systems = ["d695_leon"] if self.tiny else sorted(PAPER_SYSTEMS)
        self.specs = {system: figure1_spec(system) for system in systems}

    def grids(self) -> list[str]:
        return list(self.specs)

    def points(self, grid: str) -> int:
        return len(self.specs[grid].points())

    def run_grid(self, grid: str, workdir: Path) -> GridRun:
        # A fresh runner per grid: every `repro sweep` invocation pays its
        # system build and characterisation.
        runner = SweepRunner(jobs=1, characterize=True)
        # The grid's own throwaway store: one writer, like `repro sweep --store`.
        with SweepDatabase(workdir / "store.db") as store:  # repro-lint: disable=RL002
            runner.run_stored(self.specs[grid], store)
            path = store.export_document(workdir / "export.json")
        return self._grid_run(
            path.read_bytes(),
            system_cache=runner.system_cache.stats,
            char_cache=runner.characterization_cache.stats,
        )

    @staticmethod
    def _grid_run(export: bytes, **info: object) -> GridRun:
        (sweep,) = json.loads(export)["sweeps"]
        results = {
            int(record["index"]): json.dumps(record, sort_keys=True)
            for record in sweep["records"]
        }
        return GridRun(results=results, export=export, info=dict(info))

    def reference_failures(self, reference: dict[str, GridRun]) -> dict[str, set]:
        failures = super().reference_failures(reference)
        if "d695_leon" in reference:
            for index, text in reference["d695_leon"].results.items():
                record = json.loads(text)
                expected = D695_LEON_NO_LIMIT.get(record["reused_processors"])
                if record["power_limit_fraction"] is None and record["makespan"] != expected:
                    failures["d695_leon"].add(index)
        return failures

    def series(self, reference: dict[str, GridRun]) -> list[Series]:
        grouped: dict[tuple[str, str], dict[int, int]] = {}
        for grid, run in reference.items():
            for text in run.results.values():
                record = json.loads(text)
                key = (grid, record["power_label"])
                grouped.setdefault(key, {})[record["reused_processors"]] = record["makespan"]
        return [Series(grid, makespans) for (grid, _), makespans in sorted(grouped.items())]

    def system(self, grid: str) -> SocSystem:
        return build_paper_system(grid)


class PaperFanout(PaperSerial):
    """The same grids through ``SweepRunner.orchestrate`` over local shard workers.

    The reference is the serial export, so every fanned-out grid is checked
    byte for byte against what ``paper-serial`` produces.
    """

    name = "paper-fanout"

    def __init__(self, *, tiny: bool = False, workers: int = 2) -> None:
        super().__init__(tiny=tiny)
        self.workers = workers

    def run_grid(self, grid: str, workdir: Path) -> GridRun:
        backend = ShardWorkerBackend(workers=self.workers, cost_sizing=True)
        runner = SweepRunner(backend=backend, characterize=True)
        with SweepDatabase(workdir / "store.db") as store:  # repro-lint: disable=RL002
            report = runner.orchestrate(self.specs[grid], store, workdir=workdir / "shards")
            path = store.export_document(workdir / "export.json")
        return self._grid_run(path.read_bytes(), report=report)

    def reference_grid(self, grid: str, workdir: Path) -> GridRun:
        return PaperSerial.run_grid(self, grid, workdir)


# ----------------------------------------------------------------------
# Seeded synthetic SoC population.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SyntheticSoc:
    """One synthetic SoC: a benchmark spec plus its processors and mesh."""

    spec: synth.SyntheticSocSpec
    processors: int
    width: int
    height: int

    @property
    def point_keys(self) -> list[tuple[float | None, int]]:
        return [
            (limit, k) for limit in SYNTH_POWER_LIMITS for k in range(self.processors + 1)
        ]


def synthetic_population(seed: int, count: int) -> list[SyntheticSoc]:
    """``count`` synthetic SoCs laid out over a fixed design, filled in from ``seed``.

    Module counts (2-40), Leon processor counts (0-4) and mesh shapes (2x2 to
    6x6) follow a fixed stratified design, so every seed covers the same
    sizes and the work per pass barely depends on the seed; the seed draws
    each SoC's module contents, test-data volume and dominant modules.
    """
    rng = random.Random(seed)
    population = []
    for index in range(count):
        modules = 2 + (38 * index) // max(count - 1, 1)
        dominant = rng.choice([(), (0.3,), (0.25, 0.15)])[: max(modules - 1, 0)]
        spec = synth.SyntheticSocSpec(
            name=f"synth{index:02d}",
            module_count=modules,
            target_serial_test_time=int(50_000 * 30 ** rng.random()),
            dominant_fractions=dominant,
            seed=rng.randrange(2**31),
        )
        population.append(
            SyntheticSoc(
                spec=spec,
                processors=index % 5,
                width=2 + (index // 5) % 5,
                height=2 + (index + index // 25) % 5,
            )
        )
    return population


def build_synthetic_system(soc: SyntheticSoc, benchmark: SocBenchmark) -> SocSystem:
    """Build the SoC around its generated benchmark, ports at opposite corners."""
    return (
        SystemBuilder(soc.spec.name, NocConfig(width=soc.width, height=soc.height))
        .add_benchmark(assign_power(benchmark))
        .add_processors(leon_processor(), soc.processors)
        .add_io_port("ext_in", (0, 0), PortDirection.INPUT)
        .add_io_port("ext_out", (soc.width - 1, soc.height - 1), PortDirection.OUTPUT)
        .build()
    )


class SynthSocs(Workload):
    """A fixed seeded SoC population, each planned at every k and power limit."""

    name = "synth-socs"

    def prepare(self) -> None:
        population = synthetic_population(SYNTH_POPULATION_SEED, 3 if self.tiny else 60)
        self.socs = {soc.spec.name: soc for soc in population}

    def grids(self) -> list[str]:
        return list(self.socs)

    def points(self, grid: str) -> int:
        return len(self.socs[grid].point_keys)

    def run_grid(self, grid: str, workdir: Path) -> GridRun:
        soc = self.socs[grid]
        # Both are looked up per call, so the traced run can wrap them.
        benchmark = synth.generate_benchmark(soc.spec)
        planner = TestPlanner(build_synthetic_system(soc, benchmark))
        results: dict[tuple[float | None, int], object] = {}
        for limit, k in soc.point_keys:
            try:
                results[(limit, k)] = planner.plan(
                    reused_processors=k, power_limit_fraction=limit
                ).makespan
            except PowerBudgetError:
                results[(limit, k)] = REFUSED
            except Exception as exc:  # a point failure, counted; the grid goes on
                results[(limit, k)] = f"error:{type(exc).__name__}: {exc}"
        return GridRun(results=results)

    def reference_failures(self, reference: dict[str, GridRun]) -> dict[str, set]:
        # A reference point that raised anything but the typed refusal.
        return {
            grid: {
                key
                for key, value in run.results.items()
                if isinstance(value, str) and value != REFUSED
            }
            for grid, run in reference.items()
        }

    def series(self, reference: dict[str, GridRun]) -> list[Series]:
        out = []
        for grid, run in reference.items():
            for limit in SYNTH_POWER_LIMITS:
                makespans = {
                    k: value
                    for (series_limit, k), value in run.results.items()
                    if series_limit == limit and isinstance(value, int)
                }
                out.append(Series(grid, makespans))
        return out

    def system(self, grid: str) -> SocSystem:
        soc = self.socs[grid]
        return build_synthetic_system(soc, synth.generate_benchmark(soc.spec))


WORKLOADS = {cls.name: cls for cls in (PaperSerial, PaperFanout, SynthSocs)}


# ----------------------------------------------------------------------
# Simulated quality of the reference plans.
# ----------------------------------------------------------------------
def quality_metrics(workload: Workload, reference: dict[str, GridRun]) -> dict[str, float]:
    """The three simulated metrics, from the reference makespans.

    * ``test_time_reduction_pct``: mean over series of
      1 - (best makespan with k >= 1) / (makespan at k = 0), in percent;
    * ``lb_gap``: mean over planned points of makespan / tightest lower bound;
    * ``reuse_anomalies``: adjacent reuse levels where k+1 processors gave a
      longer test than k (refused points are left out).
    """
    reductions = []
    gaps = []
    anomalies = 0
    systems: dict[str, SocSystem] = {}
    for entry in workload.series(reference):
        makespans = entry.makespans
        with_reuse = [value for k, value in makespans.items() if k > 0]
        if 0 in makespans and with_reuse:
            reductions.append(1.0 - min(with_reuse) / makespans[0])
        levels = sorted(makespans)
        anomalies += sum(
            1 for low, high in zip(levels, levels[1:]) if makespans[high] > makespans[low]
        )
        if entry.grid not in systems:
            systems[entry.grid] = workload.system(entry.grid)
        system = systems[entry.grid]
        for k, makespan in makespans.items():
            bound = makespan_lower_bounds(system, reused_processors=k).tightest
            gaps.append(makespan / bound)
    return {
        "test_time_reduction_pct": 100.0 * fmean(reductions),
        "lb_gap": fmean(gaps),
        "reuse_anomalies": float(anomalies),
    }
