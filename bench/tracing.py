"""Spans around the public functions through which the program's modules
call each other.

A ``Recorder`` replaces a function in every loaded ``compsum`` module that
holds it, so calls made through any import of the name are recorded.  Spans
stay in memory: (round, name, start, end, parent span index), plus the
arguments and result of the functions named in ``keep``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Sequence


class Span:
    __slots__ = ("round", "name", "start", "end", "parent", "args", "result")

    def __init__(self, round_id: int, name: str, start: float, parent: int):
        self.round = round_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.args: tuple = ()
        self.result: Any = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _resolve(qualified: str):
    module_name, _, attr = qualified.rpartition(".")
    module = importlib.import_module(f"compsum.{module_name}")
    return getattr(module, attr)


class Recorder:
    """Records a span per call of each function in ``names`` (``module.attr``
    relative to the ``compsum`` package) while installed."""

    def __init__(self, names: Sequence[str], keep: Sequence[str] = (), optional: Sequence[str] = ()):
        self.names = list(names)
        self.keep = set(keep)
        self.optional = list(optional)
        self.spans: list[Span] = []
        self.round = 0
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(self.round, name, 0.0, self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if name in self.keep:
                span.args = args
                span.result = result
            return result

        return wrapper

    def install(self) -> None:
        targets = [(n, True) for n in self.names] + [(n, False) for n in self.optional]
        for name, required in targets:
            try:
                func = _resolve(name)
            except (ImportError, AttributeError):
                if required:
                    raise
                print(f"bench: no function {name}; calls to it are not traced", file=sys.stderr)
                continue
            wrapper = self._wrap(name, func)
            attr = name.rpartition(".")[2]
            for mod_name, module in list(sys.modules.items()):
                if mod_name.split(".")[0] == "compsum" and vars(module).get(attr) is func:
                    self._patches.append((module, attr, func))
                    setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, func in reversed(self._patches):
            setattr(module, attr, func)
        self._patches.clear()

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def of(self, name: str, round_id: int | None = None) -> list[Span]:
        return [
            s for s in self.spans
            if s.name == name and (round_id is None or s.round == round_id)
        ]

    def total(self, name: str, round_id: int | None = None) -> float:
        return sum(s.seconds for s in self.of(name, round_id))

    def uncovered(self, name: str) -> float:
        """Time inside spans of ``name`` that none of their child spans covers."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
        return sum(
            s.seconds - child_time.get(i, 0.0)
            for i, s in enumerate(self.spans)
            if s.name == name
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "round": s.round, "name": s.name, "start": s.start,
                         "end": s.end, "parent": s.parent}
                    )
                    + "\n"
                )
