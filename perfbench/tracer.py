"""Spans and counts recorded from the benchmark's side of each layer boundary.

:class:`Tracer` patches the public entry points of every layer with
wrappers that record an in-memory span — name, layer, start, end, parent
and request — and fold what the call returned into counters.  The hot
mutators of ``Instance`` and ``SnapshotInstance`` are counted but get no
spans.  A function imported by name into other modules is patched in
every module that holds it, so no call site keeps the unwrapped
original.  :meth:`Tracer.uninstall` restores everything.

A span's self time is its duration minus the time its child spans cover
(children of one parent never overlap: the traced work is
single-threaded, and pool workers are not traced).  A span's request is
the root span of its tree: one engine batch, or one store operation.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List

# Span record fields (a list per span keeps a million spans affordable).
NAME, LAYER, START, END, PARENT, ACTIVE = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.engines: Dict[int, tuple] = {}
        self.pooled_batches: set = set()
        #: Registry counter deltas shipped back by pool workers.
        self.shipped: Counter = Counter()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _open(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        now = time.perf_counter()
        self.spans.append([name, layer, now, now, parent, 0.0])
        self.stack.append(index)
        return index

    def _close(self, index: int, started: float) -> None:
        now = time.perf_counter()
        span = self.spans[index]
        span[END] = now
        span[ACTIVE] += now - started
        self.stack.pop()

    def spanned(self, layer: str, name: str, fn: Callable, after=None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer._open(name, layer)
            started = tracer.spans[index][START]
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index, started)
            if after is not None:
                after(tracer, index, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def spanned_generator(self, layer: str, name: str, fn: Callable, before, on_item, on_close) -> Callable:
        """Wrap a generator function: the span is open only while it runs.

        *on_close* receives the span's active wall and CPU seconds.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            before(tracer, args)
            generator = fn(*args, **kwargs)
            index = None
            cpu_active = 0.0
            try:
                while True:
                    cpu = time.process_time()
                    if index is None:
                        index = tracer._open(name, layer)
                        started = tracer.spans[index][START]
                    else:
                        started = time.perf_counter()
                        tracer.stack.append(index)
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    finally:
                        # Suspended: the consumer's time is not this span's.
                        span = tracer.spans[index]
                        now = time.perf_counter()
                        span[END] = now
                        span[ACTIVE] += now - started
                        cpu_active += time.process_time() - cpu
                        tracer.stack.pop()
                    on_item(tracer, index, item)
                    yield item
            finally:
                generator.close()
                if index is not None:
                    on_close(tracer, index, tracer.spans[index][ACTIVE], cpu_active)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch_attr(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def patch_function(self, module_name: str, attr: str, make) -> None:
        """Patch *attr* in its module and in every module that imported it."""
        module = sys.modules[module_name]
        original = getattr(module, attr)
        wrapped = make(original)
        for holder in list(sys.modules.values()):
            if getattr(holder, "__dict__", {}).get(attr) is original:
                setattr(holder, attr, wrapped)
                self._patches.append((holder, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        import concurrent.futures
        import repro.access.answerability
        import repro.access.containment_ap
        import repro.access.relevance
        import repro.automata.emptiness
        import repro.core.bounded_check
        import repro.core.solver
        import repro.datalog.evaluation
        import repro.engine.engine
        import repro.obs.metrics
        import repro.queries.evaluation
        import repro.queries.plan_cache
        import repro.store.verdict_cache
        from repro.relational.instance import Instance
        from repro.store.snapshot import SnapshotInstance
        from repro.store.sqlstore import SQLStoreInstance, SQLStoreView
        from repro.store.verdict_cache import VerdictCache

        spanned = self.spanned
        self.patch_attr(
            repro.engine.engine.DecisionEngine,
            "iter_results",
            lambda fn: self.spanned_generator(
                "engine",
                "engine.iter_results",
                fn,
                _engine_before,
                _engine_item,
                _engine_close,
            ),
        )
        for module, name in (
            ("repro.access.relevance", "long_term_relevant_legacy"),
            ("repro.access.containment_ap", "contained_under_access_patterns_legacy"),
            ("repro.access.answerability", "is_answerable_exactly_legacy"),
        ):
            self.patch_function(module, name, lambda fn, n=name: spanned("access", n, fn))
        self.patch_function(
            "repro.automata.emptiness",
            "automaton_emptiness",
            lambda fn: self._timed_pool_wait(
                spanned("automata", "automaton_emptiness", fn, _emptiness_after)
            ),
        )
        self.patch_function(
            "repro.core.bounded_check",
            "bounded_satisfiability_legacy",
            lambda fn: spanned("core", "bounded_satisfiability", fn, _bounded_after),
        )
        self.patch_attr(
            repro.core.solver.AccLTLSolver,
            "satisfiable_legacy",
            lambda fn: spanned("core", "accltl_satisfiable", fn),
        )
        self.patch_function(
            "repro.queries.evaluation",
            "holds",
            lambda fn: spanned("queries", "holds", fn),
        )
        self.patch_function(
            "repro.queries.plan_cache",
            "_get_plan_memoized",
            lambda fn: self.counted("queries.plan_lookups", fn),
        )
        self.patch_function(
            "repro.datalog.evaluation",
            "evaluate_program",
            lambda fn: spanned("datalog", "evaluate_program", fn),
        )
        for method in ("lookup", "put", "flush"):
            self.patch_attr(
                VerdictCache,
                method,
                lambda fn, m=method: spanned(
                    "verdict_cache", f"verdict_cache.{m}", fn, _verdict_after
                ),
            )
        self.patch_function(
            "repro.store.verdict_cache",
            "atomic_write_bytes",
            lambda fn: _bytes_counted(self, fn),
        )
        self.patch_attr(
            SQLStoreInstance,
            "add_facts",
            lambda fn: spanned("sql", "sql.add_facts", fn, _ingest_after),
        )
        for owner, method in (
            (SQLStoreInstance, "sql_assignments"),
            (SQLStoreInstance, "sql_assignments_delta"),
            (SQLStoreView, "sql_assignments"),
        ):
            self.patch_attr(
                owner,
                method,
                lambda fn: spanned("sql", "sql.pushdown", fn, _pushdown_after),
            )
        for method in ("add", "add_unchecked", "discard"):
            self.patch_attr(
                Instance, method, lambda fn: self.counted("relational.mutations", fn)
            )
        for method in ("add_unchecked", "discard"):
            self.patch_attr(
                SnapshotInstance,
                method,
                lambda fn: self.counted("store.snapshot.mutations", fn),
            )
        for method in ("snapshot", "restore"):
            self.patch_attr(
                SnapshotInstance, method, lambda fn: self.counted("store.snapshot.ops", fn)
            )
        self.patch_attr(
            concurrent.futures.ProcessPoolExecutor,
            "submit",
            lambda fn: self.counted("scheduler.pooled_items", fn),
        )
        self.patch_attr(
            repro.obs.metrics.MetricsRegistry,
            "merge_counters",
            lambda fn: _merge_counted(self, fn),
        )

    def _timed_pool_wait(self, fn: Callable) -> Callable:
        """Charge wall minus parent CPU of parallel emptiness calls to waiting."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            if not kwargs.get("parallel"):
                return fn(*args, **kwargs)
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                counts["scheduler.wait_s"] += (time.perf_counter() - wall) - (
                    time.process_time() - cpu
                )

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Self seconds per layer: active time minus the children's active time."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[ACTIVE]
        totals: Dict[str, float] = Counter()
        for index, span in enumerate(self.spans):
            totals[span[LAYER]] += span[ACTIVE] - child_time[index]
        return totals

    def layer_calls(self) -> Counter:
        return Counter(span[LAYER] for span in self.spans)

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON line, with its root span as request id."""
        roots: List[int] = []
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                parent = span[PARENT]
                roots.append(index if parent < 0 else roots[parent])
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[NAME],
                            "layer": span[LAYER],
                            "start": span[START],
                            "end": span[END],
                            "active_s": span[ACTIVE],
                            "parent": parent if parent >= 0 else None,
                            "request": roots[index],
                        }
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# Result folds (run after the wrapped call returns)
# ----------------------------------------------------------------------
def _engine_before(tracer: Tracer, args) -> None:
    engine, tasks = args[0], args[1]
    key = id(engine)
    if key not in tracer.engines:
        stats = engine._stats
        memo = engine._memo.memo
        tracer.engines[key] = (engine, stats["requests"], memo.hits + memo.misses, dict(stats))
    tracer.counts["engine.requests"] += len(tasks)


_SERVED = frozenset({"memo", "memo_disk", "dedup"})


def _engine_item(tracer: Tracer, index: int, item) -> None:
    provenance = item[1].provenance
    if provenance in _SERVED:
        tracer.counts["engine.served"] += 1
    elif provenance != "deadline":
        tracer.counts["engine.computed"] += 1
    if provenance.startswith("pooled"):
        tracer.pooled_batches.add(index)
    value = item[1].value
    if provenance == "computed" and value is not None:
        # Front-door totals of in-process work, for the cross-check.
        kind = item[1].kind
        if kind == "emptiness":
            tracer.counts["front.automata.paths_explored"] += value.paths_explored
        elif kind == "bounded_check":
            tracer.counts["front.core.paths_explored"] += value.paths_explored


def _engine_close(tracer: Tracer, index: int, wall: float, cpu: float) -> None:
    """A batch with pooled tasks waited on workers for wall minus CPU time."""
    if index in tracer.pooled_batches:
        tracer.counts["scheduler.wait_s"] += wall - cpu


def _emptiness_after(tracer: Tracer, index: int, args, kwargs, result) -> None:
    counts = tracer.counts
    counts["automata.paths_explored"] += result.paths_explored
    counts["automata.chains_checked"] += result.chains_checked
    if result.chains_checked == 0:
        counts["automata.trivial"] += 1
    stats = result.stats or {}
    counts["automata.guard_hits"] += stats.get("sentence_cache_hits", 0)
    counts["automata.guard_lookups"] += stats.get("sentence_cache_hits", 0) + stats.get(
        "sentence_cache_misses", 0
    )
    counts["scheduler.subtree_items"] += stats.get("subtree_items", 0)
    counts["scheduler.subtree_pooled_items"] += stats.get("subtree_pooled_items", 0)
    for key in ("pool_retries", "pool_timeouts", "pool_inprocess_fallbacks", "pool_chain_fallbacks"):
        counts["scheduler.retries"] += stats.get(key, 0)
    if tracer.spans[index][PARENT] >= 0 and tracer.spans[tracer.spans[index][PARENT]][LAYER] == "engine":
        counts["top.automata.paths_explored"] += result.paths_explored


def _bounded_after(tracer: Tracer, index: int, args, kwargs, result) -> None:
    tracer.counts["core.paths_explored"] += result.paths_explored
    if tracer.spans[index][PARENT] >= 0 and tracer.spans[tracer.spans[index][PARENT]][LAYER] == "engine":
        tracer.counts["top.core.paths_explored"] += result.paths_explored


def _verdict_after(tracer: Tracer, index: int, args, kwargs, result) -> None:
    name = tracer.spans[index][NAME]
    if name == "verdict_cache.lookup":
        tracer.counts["verdict_cache.lookups"] += 1
        tier = result[1]
        if tier is not None:
            tracer.counts["verdict_cache.hits"] += 1
        if tier == "disk":
            tracer.counts["verdict_cache.disk_hits"] += 1


def _bytes_counted(tracer: Tracer, fn: Callable) -> Callable:
    def wrapper(path, data):
        tracer.counts["verdict_cache.bytes_written"] += len(data)
        return fn(path, data)

    wrapper.__wrapped__ = fn
    return wrapper


def _merge_counted(tracer: Tracer, fn: Callable) -> Callable:
    """Keep pool workers' shipped counter deltas apart from local work."""

    def wrapper(registry, counters):
        for name, value in (counters or {}).items():
            tracer.shipped[name] += value
        return fn(registry, counters)

    wrapper.__wrapped__ = fn
    return wrapper


def _ingest_after(tracer: Tracer, index: int, args, kwargs, result) -> None:
    tracer.counts["sql.facts_ingested"] += result


def _pushdown_after(tracer: Tracer, index: int, args, kwargs, result) -> None:
    if result is not None:
        tracer.counts["sql.pushdowns"] += 1
