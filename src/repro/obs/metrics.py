"""Named counter/gauge/histogram registry unifying the ad-hoc stats dicts.

Before this module, instrumentation was a patchwork: the engine kept
``DecisionEngine._stats``, the witness search its ``stats`` dict and the
plan cache two module globals — each with its own shape and no single
place to read them.  The registry
*absorbs* them without changing them:

* long-lived stats dicts stay the source of truth and are **tracked** by
  weak reference (:meth:`MetricsRegistry.track`) — the legacy fields
  remain field-identical, and :meth:`snapshot` reads them live;
* callable providers (e.g. ``plan_cache_info``) register as **views**
  (:meth:`MetricsRegistry.register_view`);
* per-call result stats (emptiness search counters, budget expiries)
  are **absorbed** into named counters at the call boundary
  (:meth:`MetricsRegistry.absorb`);
* new events use :meth:`counter` / :meth:`gauge` / :meth:`observe`
  directly.

Everything is plain dicts of numbers, always on (a dict bump per event —
there is no disable flag to get wrong), and :meth:`snapshot` returns a
picklable, JSON-able structure.  :meth:`counters_snapshot` and
:meth:`counters_delta` measure the counters one piece of work moved.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Tuple


class MetricsRegistry:
    """A process-local registry of named counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Dict[str, float]] = {}
        self._views: Dict[str, Callable[[], Dict[str, object]]] = {}
        self._tracked: List[Tuple[str, "weakref.ref", Callable]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def counter(self, name: str, amount: float = 1) -> None:
        """Add *amount* to the named monotonic counter."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to its latest value."""
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the named histogram (count/total/min/max)."""
        hist = self._histograms.get(name)
        if hist is None:
            self._histograms[name] = {
                "count": 1,
                "total": value,
                "min": value,
                "max": value,
            }
            return
        hist["count"] += 1
        hist["total"] += value
        if value < hist["min"]:
            hist["min"] = value
        if value > hist["max"]:
            hist["max"] = value

    def absorb(self, prefix: str, stats: Optional[Dict[str, object]]) -> None:
        """Fold a per-call stats dict into ``prefix.<key>`` counters."""
        if not stats:
            return
        for key, value in stats.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                self.counter(f"{prefix}.{key}", value)

    # ------------------------------------------------------------------
    # Legacy stats dicts as live views
    # ------------------------------------------------------------------
    def register_view(
        self, name: str, provider: Callable[[], Dict[str, object]]
    ) -> None:
        """Expose *provider*'s dict under *name* in every snapshot."""
        self._views[name] = provider

    def track(self, component: str, obj: object, extractor: Callable) -> None:
        """Track *obj*'s stats dict (via *extractor*) under *component*.

        Held weakly: a dropped engine disappears from snapshots on its
        own.  Snapshots sum the numeric fields of every live object per
        component, so several engines aggregate naturally.
        """
        self._tracked.append((component, weakref.ref(obj), extractor))

    def _component_stats(self) -> Dict[str, Dict[str, float]]:
        components: Dict[str, Dict[str, float]] = {}
        live: List[Tuple[str, "weakref.ref", Callable]] = []
        for component, ref, extractor in self._tracked:
            obj = ref()
            if obj is None:
                continue
            live.append((component, ref, extractor))
            merged = components.setdefault(component, {})
            for key, value in extractor(obj).items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    merged[key] = merged.get(key, 0) + value
        self._tracked[:] = live
        return components

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Everything the registry knows, as plain nested dicts."""
        histograms = {
            name: {**hist, "mean": hist["total"] / hist["count"]}
            for name, hist in self._histograms.items()
        }
        views: Dict[str, object] = {}
        for name, provider in self._views.items():
            try:
                views[name] = provider()
            except Exception as error:  # a broken view must not break export
                views[name] = {"error": repr(error)}
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": histograms,
            "views": views,
            "components": self._component_stats(),
        }

    def reset(self) -> None:
        """Zero the counters/gauges/histograms (views and tracking stay)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # ------------------------------------------------------------------
    # Deltas
    # ------------------------------------------------------------------
    def counters_snapshot(self) -> Dict[str, float]:
        """A copy of the counters (the 'before' side of a delta)."""
        return dict(self._counters)

    def counters_delta(self, base: Dict[str, float]) -> Dict[str, float]:
        """Counter increments since *base*."""
        return {
            name: value - base.get(name, 0)
            for name, value in self._counters.items()
            if value != base.get(name, 0)
        }

    def merge_counters(self, counters: Optional[Dict[str, float]]) -> None:
        """Add a counter delta to this registry.

        No library code calls it; ``perfbench/tracer.py`` patches it by
        ``__dict__`` lookup, so it must stay defined on this class.
        """
        if counters:
            for name, value in counters.items():
                self.counter(name, value)


#: The process-wide default registry.
REGISTRY = MetricsRegistry()


def counter(name: str, amount: float = 1) -> None:
    REGISTRY.counter(name, amount)


def gauge(name: str, value: float) -> None:
    REGISTRY.gauge(name, value)


def observe(name: str, value: float) -> None:
    REGISTRY.observe(name, value)


def absorb(prefix: str, stats: Optional[Dict[str, object]]) -> None:
    REGISTRY.absorb(prefix, stats)


def register_view(name: str, provider: Callable[[], Dict[str, object]]) -> None:
    REGISTRY.register_view(name, provider)


def track(component: str, obj: object, extractor: Callable) -> None:
    REGISTRY.track(component, obj, extractor)


def snapshot() -> Dict[str, object]:
    return REGISTRY.snapshot()


def reset() -> None:
    REGISTRY.reset()
