"""Self-tests of the benchmark at its tiny size (one paper grid, three synthetic SoCs).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
WORKLOADS = ("paper-serial", "paper-fanout", "synth-socs")


def bench_command(workload: str, trace: int) -> list[str]:
    return [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload", workload,
        "--seed", "7",
        "--seconds", "0.3",
        "--trace", str(trace),
        "--tiny",
    ]


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def declared_metrics(trace: int) -> dict[str, str]:
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = document["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in metrics}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    done = subprocess.run(
        bench_command(workload, trace),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    expected = declared_metrics(trace)
    assert {name: value["unit"] for name, value in result["metrics"].items()} == expected
    for name, unit in expected.items():
        pattern = rf"^\s+{re.escape(name)}\s+-?[0-9.]+ {re.escape(unit)}(\s|$)"
        assert any(re.match(pattern, line) for line in lines), f"{name} [{unit}] not printed"
    assert any(line.startswith("host {") for line in lines)
    if trace:
        spans = (BENCH_DIR / "traces" / f"{workload}-seed7.jsonl").read_text().splitlines()
        assert spans and all(json.loads(span)["seconds"] >= 0 for span in spans)
    assert not (BENCH_DIR / "_work").exists()


def test_wrong_golden_makespan_fails_the_run(monkeypatch, capsys):
    run = load_run_module()
    _, workloads = run.import_library()
    monkeypatch.setitem(workloads.D695_LEON_NO_LIMIT, 6, 100276)

    code = run.main(
        ["--workload", "paper-serial", "--seed", "7", "--seconds", "0.3", "--tiny"]
    )

    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["pass_ratio"]["value"] < 1.0


def test_wrong_reference_makespan_is_caught(monkeypatch, capsys):
    run = load_run_module()
    _, workloads = run.import_library()
    original = workloads.SynthSocs.reference_grid

    def skewed_reference(self, grid, workdir):
        reference = original(self, grid, workdir)
        key = next(k for k, v in reference.results.items() if isinstance(v, int))
        reference.results[key] += 1
        return reference

    monkeypatch.setattr(workloads.SynthSocs, "reference_grid", skewed_reference)

    code = run.main(["--workload", "synth-socs", "--seed", "7", "--seconds", "0.3", "--tiny"])

    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] > 0


def test_tracer_restores_every_binding():
    run = load_run_module()
    _, workloads = run.import_library()
    import repro.schedule.planner as planner
    import repro.schedule.result as result

    before = (planner.validate_schedule, planner.TestPlanner.__dict__["plan"])
    with run.make_tracer(workloads):
        # Patched where it is defined and where it was imported by name.
        assert planner.validate_schedule is not before[0]
        assert result.validate_schedule is not before[0]
        assert planner.TestPlanner.__dict__["plan"] is not before[1]
    assert (planner.validate_schedule, planner.TestPlanner.__dict__["plan"]) == before
    assert result.validate_schedule is before[0]


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns(
        "__pycache__", "_pycache", "_work", "traces"
    ))
    done = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "paper-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
