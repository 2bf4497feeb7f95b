"""Zero-dependency span tracing for the engine and the searches.

A *span* is one timed, named, attributed unit of work; spans nest, and a
finished top-level span (with its subtree) is a plain picklable
:class:`SpanRecord`.

Tracing is **off by default** and the disabled path is near-zero cost:
:func:`trace_span` reads one module-level flag and returns a shared
no-op context manager; :func:`begin`/:func:`event`/:func:`annotate`
short-circuit on the same flag.  Enable in-process via :func:`enable`
(or :func:`set_enabled`) or for a whole process tree via the
``REPRO_TRACE`` environment variable (strict flag, read at import and on
:func:`refresh_from_env`).

Clocks are monotonic (:func:`time.monotonic`) and recorded relative to a
per-process origin, so spans within one process are exactly ordered.

The span stack is module-level (per process, single-threaded by design:
the engine drains its results on one thread).

Exporters (JSON-lines, Chrome trace-event, text tree) live in
:mod:`repro.obs.export`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.obs.env import TRACE_ENV, flag_strict


@dataclass
class SpanRecord:
    """One finished (or open) span: picklable, mutable while open.

    ``start_s`` is seconds since this process's trace origin (monotonic
    clock); ``duration_s`` is filled when the span closes.  ``pid`` tags
    the recording process (the exporters' process row).
    """

    name: str
    start_s: float
    duration_s: float = 0.0
    pid: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)
    children: List["SpanRecord"] = field(default_factory=list)

    def walk(self) -> Iterable["SpanRecord"]:
        """This span, then its subtree in depth-first order."""
        yield self
        for child in self.children:
            yield from child.walk()


_ORIGIN = time.monotonic()


def _now() -> float:
    return time.monotonic() - _ORIGIN


_enabled = False
_stack: List[SpanRecord] = []
_finished: List[SpanRecord] = []


# ----------------------------------------------------------------------
# Enablement
# ----------------------------------------------------------------------
def enabled() -> bool:
    """Whether tracing is on in this process (the hot-path check)."""
    return _enabled


def set_enabled(flag: bool) -> None:
    """Flip the module-level tracing flag."""
    global _enabled
    _enabled = bool(flag)


def enable() -> None:
    """Turn tracing on in this process."""
    set_enabled(True)


def disable() -> None:
    """Turn tracing off (already-collected spans stay until drained)."""
    set_enabled(False)


def refresh_from_env() -> bool:
    """Re-read ``REPRO_TRACE`` into the module flag; returns the flag."""
    set_enabled(flag_strict(TRACE_ENV))
    return _enabled


def reset() -> None:
    """Drop every open and finished span (test hygiene)."""
    _stack.clear()
    _finished.clear()


refresh_from_env()


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
def begin(name: str, **attrs: object) -> Optional[SpanRecord]:
    """Open a span (returns ``None`` when tracing is off).

    For code that cannot use a ``with`` block — generators whose phase
    boundaries straddle ``yield`` points close their spans in a
    ``finally`` via :func:`end`.
    """
    if not _enabled:
        return None
    span = SpanRecord(name=name, start_s=_now(), pid=os.getpid(), attrs=attrs)
    _stack.append(span)
    return span


def end(span: Optional[SpanRecord], **attrs: object) -> None:
    """Close *span* (no-op for ``None`` or an already-closed span).

    Any spans opened after *span* and still open are closed with it —
    an abandoned generator's inner phase spans must not leak onto the
    stack.
    """
    if span is None or span not in _stack:
        return
    now = _now()
    while _stack:
        top = _stack.pop()
        top.duration_s = now - top.start_s
        if attrs and top is span:
            top.attrs.update(attrs)
        parent = _stack[-1] if _stack else None
        if parent is not None:
            parent.children.append(top)
        else:
            _finished.append(top)
        if top is span:
            return


class _NoopSpan:
    """The shared disabled-path context manager (no allocation per call)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP = _NoopSpan()


class _LiveSpan:
    __slots__ = ("_name", "_attrs", "span")

    def __init__(self, name: str, attrs: Dict[str, object]) -> None:
        self._name = name
        self._attrs = attrs
        self.span: Optional[SpanRecord] = None

    def __enter__(self) -> Optional[SpanRecord]:
        self.span = begin(self._name, **self._attrs)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and self.span is not None:
            self.span.attrs.setdefault("error", exc_type.__name__)
        end(self.span)
        return False


def trace_span(name: str, **attrs: object):
    """Context manager timing one unit of work as a nested span.

    Disabled-path cost is one flag read plus returning a shared no-op
    object; enabled, it records a :class:`SpanRecord` under the current
    open span (or as a new root).
    """
    if not _enabled:
        return _NOOP
    return _LiveSpan(name, attrs)


def event(name: str, **attrs: object) -> None:
    """Record an instant (zero-duration child span) — retries, phase marks."""
    if not _enabled:
        return
    span = SpanRecord(name=name, start_s=_now(), pid=os.getpid(), attrs=attrs)
    (_stack[-1].children if _stack else _finished).append(span)


def annotate(**attrs: object) -> None:
    """Merge attributes into the innermost open span (no-op otherwise)."""
    if _enabled and _stack:
        _stack[-1].attrs.update(attrs)


def current_span() -> Optional[SpanRecord]:
    """The innermost open span, if any (introspection/tests)."""
    return _stack[-1] if _stack else None


def take_spans() -> List[SpanRecord]:
    """Drain and return every finished top-level span."""
    done = list(_finished)
    _finished.clear()
    return done
