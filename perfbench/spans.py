"""Timing spans recorded from outside the program, around calls into its layers.

A :class:`Tracer` replaces the module-level bindings of selected public
functions (and the class attributes of selected public methods) with timing
wrappers, and puts every original back when it exits.  Each call becomes a
span with a name, start, end, parent span and the grid it belongs to; spans
stay in memory until the run ends.  Nothing inside the program changes, and
child processes are not traced at all.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator


@dataclass
class Span:
    """One timed call.

    Attributes:
        name: the layer span name, e.g. ``"schedule.plan"``.
        start / end: ``time.perf_counter()`` stamps.
        parent: index of the enclosing span in :attr:`Tracer.spans`
            (``None`` for a root span).
        grid: index of the timed grid the span ran under.
        error: exception class name when the call raised.
    """

    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    grid: int | None = None
    error: str | None = None

    @property
    def seconds(self) -> float:
        """Duration of the span."""
        return self.end - self.start


class Tracer:
    """Collects spans around calls into the program's public functions.

    Use as a context manager: the wrappers are installed on entry and the
    original bindings are restored on exit, even when the body raises.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._grid: int | None = None
        self._targets: list[tuple[object, str, str]] = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record the body as a span nested under the innermost open span."""
        record = Span(
            name=name,
            start=time.perf_counter(),
            parent=self._stack[-1] if self._stack else None,
            grid=self._grid,
        )
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        except BaseException as exc:
            record.error = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def grid(self, index: int) -> Iterator[Span]:
        """Record one timed grid as a root span; its layer spans carry ``index``."""
        self._grid = index
        try:
            with self.span("bench.grid") as record:
                yield record
        finally:
            self._grid = None

    def wrap(self, function: Callable, name: str) -> Callable:
        """``function`` with every call recorded as a span called ``name``."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    # ------------------------------------------------------------------
    # Installing the wrappers.
    # ------------------------------------------------------------------
    def trace_function(self, module: object, attribute: str, name: str) -> None:
        """Trace the function ``module.attribute`` wherever it is bound.

        Modules that imported the function by name hold their own binding,
        so every loaded module whose namespace holds the same object is
        patched, not only the defining one.
        """
        self._targets.append((module, attribute, name))

    def trace_method(self, cls: type, attribute: str, name: str) -> None:
        """Trace the method ``cls.attribute`` (patched on the class)."""
        self._targets.append((cls, attribute, name))

    def __enter__(self) -> "Tracer":
        try:
            for owner, attribute, name in self._targets:
                if isinstance(owner, type):
                    original = owner.__dict__[attribute]
                    self._patch(owner, attribute, original, self.wrap(original, name))
                else:
                    self._patch_everywhere(getattr(owner, attribute), name)
        except BaseException:
            self._unpatch()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._unpatch()

    def _patch(self, owner: object, attribute: str, original: object, wrapper: object) -> None:
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def _patch_everywhere(self, original: Callable, name: str) -> None:
        wrapper = self.wrap(original, name)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attribute, value in list(namespace.items()):
                if value is original:
                    self._patch(module, attribute, original, wrapper)

    def _unpatch(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Reading the spans.
    # ------------------------------------------------------------------
    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [span.seconds for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.seconds
        return own

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (written once, at the end of a run)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_seconds()
        # A diagnostic dump, not a store or cache artifact: no atomic write.
        with path.open("w", encoding="utf-8") as handle:  # repro-lint: disable=RL003
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "parent": span.parent,
                            "grid": span.grid,
                            "start": span.start,
                            "seconds": span.seconds,
                            "self_seconds": own[index],
                            "error": span.error,
                        }
                    )
                    + "\n"
                )
