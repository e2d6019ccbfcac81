"""In-memory span recorder that wraps a program's public functions.

A :class:`Tracer` replaces a function at the name its caller looks it
up under (a module global such as ``repro.core.appro.extend_schedule``
or a class attribute such as ``GridIndex.within_bulk``) with a wrapper
that records one :class:`Span` per call: name, start, end and the span
that was open on the same thread when the call began. Spans stay in a
list until the benchmark reads them; :meth:`Tracer.restore` puts every
original function back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from perfbench.stats import self_time, union_length


@dataclass(frozen=True)
class Span:
    """One timed call."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def resolve(target: str) -> Tuple[object, str]:
    """Split ``"pkg.mod.attr"`` or ``"pkg.mod.Class.attr"`` into the
    object holding the attribute and the attribute name."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: object = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        if not hasattr(owner, parts[-1]):
            raise AttributeError(f"{target} does not exist")
        return owner, parts[-1]
    raise ModuleNotFoundError(f"no module in {target!r}")


class Tracer:
    """Records spans; see the module docstring.

    Args:
        clock: monotonic seconds source.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent, threading.get_ident())
            )

    def wrap(self, target: str, name: str) -> None:
        """Replace ``target`` with a wrapper recording span ``name``."""
        owner, attr = resolve(target)
        original = inspect.getattr_static(owner, attr)
        func = getattr(owner, attr)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return func(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(s.duration for s in self.named(name))

    def children(self) -> Dict[Optional[int], List[Span]]:
        out: Dict[Optional[int], List[Span]] = {}
        for span in self.spans:
            out.setdefault(span.parent, []).append(span)
        return out

    def self_total(self, name: str) -> float:
        """Summed self time of the spans called ``name``."""
        kids = self.children()
        return sum(
            self_time(
                (s.start, s.end),
                [(c.start, c.end) for c in kids.get(s.span_id, ())],
            )
            for s in self.named(name)
        )

    def covered(self, prefixes: Sequence[str]) -> float:
        """Wall time covered by spans whose name starts with one of
        ``prefixes``, counting nested and repeated cover once per
        thread."""
        by_thread: Dict[int, List[Tuple[float, float]]] = {}
        for s in self.spans:
            if s.name.startswith(tuple(prefixes)):
                by_thread.setdefault(s.thread, []).append((s.start, s.end))
        return sum(union_length(iv) for iv in by_thread.values())
