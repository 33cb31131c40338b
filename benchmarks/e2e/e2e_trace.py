"""Spans, self time and call-site wrappers for the benchmark's traced runs.

The benchmark observes the program from outside: it replaces a layer's
public function with a wrapper at the place where callers look the name up
(``repro.federated.client.sample_uniform_negatives``, a class attribute such
as ``Server.apply_round``), records one span per call and puts the original
binding back afterwards.  The wrappers read the clock and count calls and
sizes; they draw no random numbers, so a traced run draws the same random
numbers and produces the same outputs as an untraced one.

Spans stay in memory until the run ends.  A span's *self time* is its
duration minus the part of it covered by its child spans; each layer metric
is a sum of self times, so nested layers are never counted twice.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import itertools
import math
import re
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

#: Metric and span names: letters, digits, ``_``, ``.`` and ``-``, starting
#: with a letter or digit, at most 64 characters.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_metric_name(name: str) -> str:
    """Return ``name`` if it follows the metric-name grammar, else raise."""
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"metric name {name!r} does not match {METRIC_NAME.pattern}")
    return name


class Span(NamedTuple):
    """One timed call: ``parent`` is the enclosing span on the same thread."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters in memory.

    ``op`` is the identifier of the operation in progress (a protocol round
    or a request, ``-1`` during set-up); the wrappers or the workload runner
    advance it, and every span records the value current when it started.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counter_lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack: list[int] | None = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def begin(self) -> tuple[int, int | None, int, float]:
        """Open a span on the calling thread; pass the token to :meth:`end`."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, self.op, self.clock()

    def end(self, name: str, token: tuple[int, int | None, int, float]) -> None:
        """Close the span opened by :meth:`begin` and keep it."""
        end = self.clock()
        span_id, parent, op, start = token
        self._stack().pop()
        self.spans.append(Span(span_id, name, start, end, parent, op))

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to the named counter (thread-safe)."""
        with self._counter_lock:
            self.counters[name] = self.counters.get(name, 0.0) + value


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part its children cover, by span id."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - _covered(span.start, span.end, children.get(span.span_id, []))
        for span in spans
    }


@dataclass
class SpanTotals:
    """Per-name aggregate of a span list."""

    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0


def summarize(spans: Sequence[Span]) -> dict[str, SpanTotals]:
    """Calls, inclusive and self seconds for every span name."""
    own = self_times(spans)
    totals: dict[str, SpanTotals] = {}
    for span in spans:
        entry = totals.setdefault(span.name, SpanTotals())
        entry.calls += 1
        entry.inclusive_s += span.duration
        entry.self_s += own[span.span_id]
    return totals


@dataclass(frozen=True)
class Percentile:
    """A nearest-rank percentile with the sample it rests on."""

    value: float
    samples: int
    beyond: int  # samples strictly above ``value``


def percentile(values: Sequence[float], q: float) -> Percentile:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    value = ordered[rank - 1]
    beyond = len(ordered) - bisect.bisect_right(ordered, value)
    return Percentile(value=value, samples=len(ordered), beyond=beyond)


# --------------------------------------------------------------------------- #
# Patching names where they are looked up
# --------------------------------------------------------------------------- #

Around = Callable[[Tracer, Callable[..., Any], tuple[Any, ...], dict[str, Any]], Any]
Wrap = Callable[[Callable[..., Any]], Callable[..., Any]]


@dataclass(frozen=True)
class Target:
    """One binding to wrap: ``attr`` is ``"name"`` or ``"Class.method"``.

    ``around(tracer, func, args, kwargs)``, when given, makes the call
    itself inside the span and returns its result, so it can count what the
    call is handed and what it returns; ``op_on_entry`` resets the tracer's
    operation when the call starts and ``advances_op`` moves it to the next
    operation when the call returns.
    """

    span: str
    module: str
    attr: str
    around: Around | None = None
    op_on_entry: int | None = None
    advances_op: bool = False

    @property
    def label(self) -> str:
        return f"{self.module}:{self.attr}"


@dataclass
class _Patch:
    owner: Any
    name: str
    original: Any
    had_own: bool


def _resolve(module: str, attr: str) -> tuple[Any, str, Any, bool] | None:
    """``(owner, name, raw value, defined on owner)`` or ``None`` if absent."""
    try:
        owner: Any = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    own = vars(owner)
    if name in own:
        return owner, name, own[name], True
    inherited = inspect.getattr_static(owner, name, None)
    if inherited is None:
        return None
    return owner, name, inherited, False


def _rewrap(raw: Any, wrap: Wrap) -> Any:
    """Wrap a plain function or the function inside a static/class method."""
    if isinstance(raw, (staticmethod, classmethod)):
        return type(raw)(wrap(raw.__func__))
    return wrap(raw)


class Patches:
    """Installed replacements, removed in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._installed: list[_Patch] = []

    def replace(self, module: str, attr: str, wrap: Wrap) -> bool:
        """Replace ``module.attr`` by ``wrap(original)``; False if absent."""
        resolved = _resolve(module, attr)
        if resolved is None:
            return False
        owner, name, raw, had_own = resolved
        setattr(owner, name, _rewrap(raw, wrap))
        self._installed.append(_Patch(owner, name, raw, had_own))
        return True

    def restore(self) -> None:
        while self._installed:
            patch = self._installed.pop()
            if patch.had_own:
                setattr(patch.owner, patch.name, patch.original)
            else:
                delattr(patch.owner, patch.name)


def span_wrapper(tracer: Tracer, target: Target) -> Wrap:
    """A wrapper factory recording one ``target.span`` span per call."""
    name, around, advances_op = target.span, target.around, target.advances_op
    op_on_entry = target.op_on_entry

    def wrap(func: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if op_on_entry is not None:
                tracer.op = op_on_entry
            token = tracer.begin()
            try:
                if around is None:
                    result = func(*args, **kwargs)
                else:
                    result = around(tracer, func, args, kwargs)
            finally:
                tracer.end(name, token)
            if advances_op:
                tracer.op += 1
            return result

        return traced

    return wrap


def install_spans(tracer: Tracer, targets: Sequence[Target], patches: Patches) -> list[str]:
    """Wrap every target into ``patches``; return the labels of absent ones."""
    absent = []
    for target in targets:
        if not patches.replace(target.module, target.attr, span_wrapper(tracer, target)):
            absent.append(target.label)
    return absent


class BoundaryTimer:
    """Two clock reads around each call: the only wrapper of a timed run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.entered: list[float] = []
        self.exited: list[float] = []

    def wrap(self, func: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(func)
        def timed(*args: Any, **kwargs: Any) -> Any:
            self.entered.append(self.clock())
            try:
                return func(*args, **kwargs)
            finally:
                self.exited.append(self.clock())

        return timed
