"""NoC characterisation microbenchmark and grant-loop speedup gate.

Measures the wall time of the default NoC characterisation campaign
(``characterize_noc``: 200 random packets injected back-to-back on the
circuit-switched simulator) on the networks of the six paper systems — the
campaign ``repro sweep`` runs once per system — and writes the statistics to
``BENCH_characterize.json`` (uploaded by CI next to the other ``BENCH_*.json``
artifacts).

Every repetition runs the same six campaigns twice: once with the library's
event-driven grant loop and once on ``tests/noc/reference_simulator.py``,
the original loop that rescans every request at every event.  The two modes
alternate within each repetition and run in one process, so the speedup gate
does not depend on the host's absolute speed.

The run asserts that the event-driven loop

* yields the same :class:`NocCharacterization` for every network (the
  recorded values live in ``tests/golden/characterization.json``),
* runs the six campaigns at least ``SPEEDUP_GATE`` times faster at the median.

``time.perf_counter`` is the only clock used, and only around the measured
campaigns.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from pathlib import Path
from time import perf_counter

import repro.noc.characterization as characterization
from repro.noc.characterization import NocCharacterization, characterize_noc
from repro.noc.network import Network
from repro.runner.atomic import atomic_write_text
from repro.system.presets import PAPER_SYSTEMS, build_paper_system
from tests.noc.reference_simulator import ReferenceSimulator

#: Repetitions per mode; each times the six campaigns once.
REPETITIONS = 9

#: Required median speedup (event-driven vs reference) over the six campaigns.
SPEEDUP_GATE = 3.0

#: Where the statistics land (CI uploads ``BENCH_*.json``).
RESULT_FILE = Path("BENCH_characterize.json")


@contextlib.contextmanager
def reference_grant_loop():
    """Run ``characterize_noc`` on the reference simulator inside the block."""
    library_simulator = characterization.CircuitSwitchedSimulator
    characterization.CircuitSwitchedSimulator = ReferenceSimulator
    try:
        yield
    finally:
        characterization.CircuitSwitchedSimulator = library_simulator


def run_campaigns(
    networks: dict[str, Network], *, reference: bool
) -> tuple[float, dict[str, float], dict[str, NocCharacterization]]:
    """Characterise every network once; returns (total s, per-network s, results)."""
    mode = reference_grant_loop() if reference else contextlib.nullcontext()
    seconds: dict[str, float] = {}
    results: dict[str, NocCharacterization] = {}
    with mode:
        for name, network in networks.items():
            start = perf_counter()
            results[name] = characterize_noc(network)
            seconds[name] = perf_counter() - start
    return sum(seconds.values()), seconds, results


def summarise(totals: list[float], per_network: dict[str, list[float]]) -> dict[str, object]:
    """Median/mean statistics (ms) of one mode's samples."""
    return {
        "median_ms": round(statistics.median(totals) * 1000, 4),
        "mean_ms": round(statistics.fmean(totals) * 1000, 4),
        "per_network_median_ms": {
            name: round(statistics.median(samples) * 1000, 4)
            for name, samples in per_network.items()
        },
    }


def test_characterize_speedup_and_stats():
    """Measure both grant loops on the six paper networks, gate the speedup,
    write the JSON."""
    networks = {name: build_paper_system(name).network for name in sorted(PAPER_SYSTEMS)}
    totals: dict[str, list[float]] = {"reference": [], "event_driven": []}
    per_network: dict[str, dict[str, list[float]]] = {
        mode: {name: [] for name in networks} for mode in totals
    }
    for repetition in range(REPETITIONS):
        # Alternate which mode goes first so drift in host speed hits both.
        modes = ("reference", "event_driven")
        if repetition % 2:
            modes = modes[::-1]
        outcomes = {}
        for mode in modes:
            total, seconds, outcomes[mode] = run_campaigns(
                networks, reference=mode == "reference"
            )
            totals[mode].append(total)
            for name, elapsed in seconds.items():
                per_network[mode][name].append(elapsed)
        assert outcomes["event_driven"] == outcomes["reference"], (
            f"repetition {repetition}: the event-driven grant loop changed a "
            "characterisation"
        )
    reference_median = statistics.median(totals["reference"])
    speedup = reference_median / statistics.median(totals["event_driven"])
    document = {
        "description": (
            "Wall time (ms) of the default NoC characterisation campaign on "
            "the six paper networks: 'reference' runs the original "
            "rescan-every-request grant loop (tests/noc/reference_simulator.py), "
            "'event_driven' the library's simulator.  Both modes run "
            "alternately in one process, so the speedup gate is independent "
            "of the host's absolute speed."
        ),
        "repetitions": REPETITIONS,
        "speedup_gate": SPEEDUP_GATE,
        "networks": sorted(networks),
        "reference": summarise(totals["reference"], per_network["reference"]),
        "event_driven": summarise(totals["event_driven"], per_network["event_driven"]),
        "median_speedup": round(speedup, 2),
    }
    atomic_write_text(RESULT_FILE, json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {RESULT_FILE}: median speedup {speedup:.2f}x")
    assert speedup >= SPEEDUP_GATE, (
        f"median characterisation speedup {speedup:.2f}x is below the "
        f"{SPEEDUP_GATE}x gate; see {RESULT_FILE}"
    )
