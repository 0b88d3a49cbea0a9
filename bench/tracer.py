"""Spans around calls into tandem's public functions, recorded from outside.

The tracer never edits the package.  ``Tracer.installed`` rebinds each
target function, under every name any ``tandem`` module holds it by, to a
wrapper that records one span per call: name, start, end, parent span and
run id.  Leaving the block puts every original binding back.  Spans live
in flat arrays so a run of millions of calls stays small in memory; they
are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

NO_PARENT = -1
PACKAGE = "tandem"

CountFn = Callable[[tuple, dict, Any], float]


@dataclass(frozen=True)
class Target:
    """One public function to wrap, named ``<module>.<attr>``.

    ``count`` turns (args, kwargs, result) into the span's count, such as
    rows processed; it runs outside the span's timed interval.
    """

    module: str
    attr: str
    count: CountFn | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


def _package_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def rebind(original: Callable, replacement: Callable) -> list[tuple]:
    """Point every binding of ``original`` in the package's modules at
    ``replacement``; returns what ``unbind`` needs to undo it."""
    bindings = []
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bindings.append((module, attr, original))
    return bindings


def unbind(bindings: list[tuple]) -> None:
    for module, attr, original in reversed(bindings):
        setattr(module, attr, original)


@contextmanager
def recording(module, attr: str) -> Iterator[list]:
    """Collect the return values of ``module.attr`` while the block runs."""
    original = getattr(module, attr)
    values: list = []

    @functools.wraps(original)
    def record(*args, **kwargs):
        value = original(*args, **kwargs)
        values.append(value)
        return value

    setattr(module, attr, record)
    try:
        yield values
    finally:
        setattr(module, attr, original)


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self.run_id = 0
        self._stack = [NO_PARENT]

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        nid = self._intern(target.name)
        count = target.count
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.run.append(self.run_id)
            self.end.append(0.0)
            self.count.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if count is not None:
                self.count[index] = float(count(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self, targets: tuple[Target, ...], run_id: int) -> Iterator["Tracer"]:
        """Trace calls to ``targets`` as run ``run_id`` while the block runs."""
        self.run_id = run_id
        bindings: list[tuple] = []
        try:
            for target in targets:
                module = sys.modules[f"{PACKAGE}.{target.module}"]
                original = getattr(module, target.attr)
                bindings += rebind(original, self._wrap(target, original))
            yield self
        finally:
            unbind(bindings)

    def table(self) -> "SpanTable":
        return SpanTable(
            names=tuple(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
            run=np.frombuffer(self.run, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
            count=np.frombuffer(self.count, dtype=np.float64).copy(),
        )


@dataclass(frozen=True)
class SpanTable:
    """Recorded spans as parallel arrays; ``parent`` indexes into them."""

    names: tuple[str, ...]
    name_id: np.ndarray
    parent: np.ndarray
    run: np.ndarray
    start: np.ndarray
    end: np.ndarray
    count: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover.

        Calls are single-threaded, so children of one span never overlap
        and the covered time is the sum of their durations.
        """
        duration = self.duration
        covered = np.zeros_like(duration)
        has_parent = self.parent != NO_PARENT
        np.add.at(covered, self.parent[has_parent], duration[has_parent])
        return duration - covered

    def mask(self, name: str, run: int) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name_id.shape, dtype=bool)
        return (self.name_id == self.names.index(name)) & (self.run == run)

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.asarray(self.names), name_id=self.name_id,
            parent=self.parent, run=self.run, start=self.start, end=self.end,
            count=self.count,
        )
