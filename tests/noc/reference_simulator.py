"""Test oracle for :class:`repro.noc.simulator.CircuitSwitchedSimulator`.

:class:`ReferenceSimulator` keeps the simulator's original grant loop
verbatim: at every event time it rescans every pending request, granted or
not, and repeats the scan until a pass grants nothing.  It is quadratic in
the number of requests, which is why the library replaced it, and it is kept
here only so the tests and ``benchmarks/bench_characterize.py`` can compare
the event-driven loop against it record for record.
"""

from __future__ import annotations

import heapq
import itertools

from repro.errors import ConfigurationError
from repro.noc.links import Link
from repro.noc.simulator import CircuitSwitchedSimulator, TransferRecord


class ReferenceSimulator(CircuitSwitchedSimulator):
    """The simulator with the original rescan-everything grant loop."""

    def run(self) -> list[TransferRecord]:
        """Simulate all queued transfers and return their records.

        Grant policy: at every decision instant, pending transfers whose
        release time has passed are examined in (priority, release_time, name)
        order; each is granted if *all* its resources are currently free.
        This is the same first-fit policy the greedy scheduler uses, so a
        feasible schedule replays without delays.
        """
        pending = sorted(
            self._requests, key=lambda r: (r.priority, r.release_time, r.name)
        )
        busy_until: dict[Link, int] = {}
        records: dict[str, TransferRecord] = {}

        # Event times at which the resource picture can change.
        event_times = sorted({request.release_time for request in pending})
        event_heap = list(event_times)
        heapq.heapify(event_heap)
        granted: set[int] = set()
        time_guard = itertools.count()

        while len(records) < len(pending):
            if not event_heap:
                raise ConfigurationError(
                    "simulation deadlock: transfers remain but no future events exist"
                )
            now = heapq.heappop(event_heap)
            # Skip duplicate event times.
            while event_heap and event_heap[0] == now:
                heapq.heappop(event_heap)

            progress = True
            while progress:
                progress = False
                for index, request in enumerate(pending):
                    if index in granted or request.release_time > now:
                        continue
                    if all(
                        busy_until.get(resource, 0) <= now
                        for resource in request.resources
                    ):
                        start = now
                        end = now + request.duration
                        for resource in request.resources:
                            busy_until[resource] = end
                        records[request.name + f"#{index}"] = TransferRecord(
                            name=request.name, start=start, end=end
                        )
                        granted.add(index)
                        heapq.heappush(event_heap, end)
                        progress = True
            next(time_guard)

        ordered = sorted(records.values(), key=lambda record: (record.start, record.name))
        return ordered
