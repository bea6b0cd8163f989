"""Tests of the circuit-switched NoC simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.noc.simulator import CircuitSwitchedSimulator, TransferRequest
from tests.noc.reference_simulator import ReferenceSimulator


def request(name, resources, duration, release=0, priority=0):
    return TransferRequest(
        name=name,
        resources=tuple(resources),
        duration=duration,
        release_time=release,
        priority=priority,
    )


LINK_A = ((0, 0), (1, 0))
LINK_B = ((1, 0), (2, 0))
LINK_C = ((2, 2), (2, 3))


class TestTransferRequest:
    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            request("x", [LINK_A], -1)

    def test_negative_release_rejected(self):
        with pytest.raises(ConfigurationError):
            TransferRequest(name="x", resources=(LINK_A,), duration=1, release_time=-1)


class TestCircuitSwitchedSimulator:
    def test_disjoint_transfers_run_in_parallel(self):
        simulator = CircuitSwitchedSimulator()
        simulator.add(request("a", [LINK_A], 100))
        simulator.add(request("b", [LINK_C], 80))
        records = {r.name: r for r in simulator.run()}
        assert records["a"].start == 0
        assert records["b"].start == 0

    def test_conflicting_transfers_serialise(self):
        simulator = CircuitSwitchedSimulator()
        simulator.add(request("a", [LINK_A, LINK_B], 100))
        simulator.add(request("b", [LINK_B], 50))
        records = {r.name: r for r in simulator.run()}
        assert records["a"].start == 0
        assert records["b"].start == 100
        assert records["b"].end == 150

    def test_priority_breaks_ties(self):
        simulator = CircuitSwitchedSimulator()
        simulator.add(request("low", [LINK_A], 10, priority=5))
        simulator.add(request("high", [LINK_A], 10, priority=1))
        records = {r.name: r for r in simulator.run()}
        assert records["high"].start == 0
        assert records["low"].start == 10

    def test_release_time_respected(self):
        simulator = CircuitSwitchedSimulator()
        simulator.add(request("late", [LINK_A], 10, release=42))
        (record,) = simulator.run()
        assert record.start == 42
        assert record.end == 52

    def test_replay_of_feasible_schedule_keeps_start_times(self):
        # Feed the simulator transfers with release times equal to a valid
        # schedule's start times: nothing should be delayed.
        simulator = CircuitSwitchedSimulator()
        simulator.add(request("a", [LINK_A, LINK_B], 100, release=0))
        simulator.add(request("b", [LINK_B], 50, release=100))
        simulator.add(request("c", [LINK_A], 30, release=100))
        records = {r.name: r for r in simulator.run()}
        assert records["a"].start == 0
        assert records["b"].start == 100
        assert records["c"].start == 100

    def test_records_report_duration(self):
        simulator = CircuitSwitchedSimulator()
        simulator.add(request("a", [LINK_A], 17))
        (record,) = simulator.run()
        assert record.duration == 17

    def test_reset_clears_requests(self):
        simulator = CircuitSwitchedSimulator()
        simulator.add(request("a", [LINK_A], 10))
        simulator.reset()
        assert simulator.run() == []

    def test_zero_duration_transfer(self):
        simulator = CircuitSwitchedSimulator()
        simulator.add(request("a", [LINK_A], 0))
        simulator.add(request("b", [LINK_A], 10))
        records = {r.name: r for r in simulator.run()}
        assert records["a"].duration == 0
        assert records["b"].end == 10


def simulate(simulator_class, requests):
    simulator = simulator_class()
    simulator.add_all(list(requests))
    return simulator.run()


#: A handful of links so random requests collide often.
LINKS = (LINK_A, LINK_B, LINK_C, ((1, 0), (1, 1)), ((1, 1), (1, 0)))

transfer_requests = st.builds(
    TransferRequest,
    # Few names and priorities: duplicate names and equal priorities are
    # the cases where grant order and record order are easiest to get wrong.
    name=st.sampled_from(["a", "b", "c", "d"]),
    # Empty tuples and repeated links included.
    resources=st.lists(st.sampled_from(LINKS), max_size=3).map(tuple),
    duration=st.integers(min_value=0, max_value=12),
    release_time=st.integers(min_value=0, max_value=30),
    priority=st.integers(min_value=0, max_value=2),
)


class TestAgainstReference:
    """The event-driven grant loop reproduces the original rescan loop
    record for record, order included."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(transfer_requests, max_size=25))
    def test_records_match_reference(self, requests):
        expected = simulate(ReferenceSimulator, requests)
        assert simulate(CircuitSwitchedSimulator, requests) == expected

    def test_edge_cases_match_reference(self):
        requests = [
            request("dup", [LINK_A], 5, release=3),
            request("dup", [LINK_A], 5, release=3),
            request("zero", [LINK_A], 0, release=3),
            request("free", [], 7, release=2),
            request("free", [], 0),
            request("late", [LINK_A, LINK_B], 4, release=9, priority=1),
            request("early", [LINK_B], 10, priority=1),
        ]
        records = simulate(CircuitSwitchedSimulator, requests)
        assert records == simulate(ReferenceSimulator, requests)
        assert [(r.name, r.start, r.end) for r in records] == [
            ("early", 0, 10),
            ("free", 0, 0),
            ("free", 2, 9),
            ("dup", 3, 8),
            ("dup", 8, 13),
            ("late", 13, 17),
            ("zero", 13, 13),
        ]
