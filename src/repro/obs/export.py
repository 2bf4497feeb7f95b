"""Exporters for collected spans: JSON-lines, Chrome trace-event, text tree.

All three consume the :class:`~repro.obs.trace.SpanRecord` trees drained
by :func:`repro.obs.trace.take_spans` and use only the standard library.
The Chrome format loads directly into ``chrome://tracing`` (or Perfetto):
one complete ``"X"`` event per span, microsecond timestamps, the
recording process's pid as both ``pid`` and ``tid``.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.obs.trace import SpanRecord


def _jsonable(value: object) -> object:
    """Attributes are arbitrary objects; non-JSON values export as repr."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _jsonable_attrs(attrs: Dict[str, object]) -> Dict[str, object]:
    return {key: _jsonable(value) for key, value in attrs.items()}


def iter_flat(
    spans: Iterable[SpanRecord],
) -> Iterator[Tuple[int, int, int, SpanRecord]]:
    """Depth-first ``(id, parent_id, depth, span)`` walk (parent ``-1`` = root)."""
    next_id = 0

    def _walk(span: SpanRecord, parent: int, depth: int):
        nonlocal next_id
        own = next_id
        next_id += 1
        yield own, parent, depth, span
        for child in span.children:
            yield from _walk(child, own, depth + 1)

    for span in spans:
        yield from _walk(span, -1, 0)


def to_jsonl(spans: Iterable[SpanRecord]) -> str:
    """One JSON object per span (flattened; ``parent`` links the tree)."""
    lines = []
    for span_id, parent, depth, span in iter_flat(spans):
        lines.append(
            json.dumps(
                {
                    "id": span_id,
                    "parent": parent,
                    "depth": depth,
                    "name": span.name,
                    "start_s": span.start_s,
                    "duration_s": span.duration_s,
                    "pid": span.pid,
                    "attrs": _jsonable_attrs(span.attrs),
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(spans: Iterable[SpanRecord], path: str) -> None:
    """Write :func:`to_jsonl` output to *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_jsonl(spans))


def chrome_trace_events(spans: Iterable[SpanRecord]) -> List[Dict[str, object]]:
    """Chrome trace-event list: one complete (``"X"``) event per span."""
    events: List[Dict[str, object]] = []
    for _, _, _, span in iter_flat(spans):
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "cat": "repro",
                "ts": span.start_s * 1_000_000.0,
                "dur": span.duration_s * 1_000_000.0,
                "pid": span.pid,
                "tid": span.pid,
                "args": _jsonable_attrs(span.attrs),
            }
        )
    return events


def to_chrome_trace(spans: Iterable[SpanRecord]) -> Dict[str, object]:
    """The ``chrome://tracing``-loadable JSON object for *spans*."""
    return {
        "traceEvents": chrome_trace_events(spans),
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(spans: Iterable[SpanRecord], path: str) -> None:
    """Write the Chrome trace JSON for *spans* to *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome_trace(spans), handle)


def render_tree(spans: Iterable[SpanRecord]) -> str:
    """A human-readable indented span tree with millisecond durations."""
    lines: List[str] = []
    for _, _, depth, span in iter_flat(spans):
        attrs = " ".join(
            f"{key}={_jsonable(value)}" for key, value in sorted(span.attrs.items())
        )
        lines.append(
            "  " * depth
            + f"{span.name}  {span.duration_s * 1000.0:.3f} ms"
            + (f"  [pid {span.pid}]" if span.pid else "")
            + (f"  {attrs}" if attrs else "")
        )
    return "\n".join(lines)
