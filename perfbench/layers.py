"""Per-layer metrics of a traced run, and their cross-check.

Counts come from :class:`tracer.Tracer`; where the program already keeps
a public counter for the same work, :func:`cross_check` requires the two
to agree, so a layer call that slips past a wrapper fails the run
instead of quietly under-counting.
"""

from __future__ import annotations

from typing import Dict, List

#: ``name -> unit`` of every per-layer metric, in report order.
PER_LAYER = {
    "automata.calls": "count",
    "automata.self_s": "s",
    "automata.paths_explored": "count",
    "automata.chains_checked": "count",
    "automata.guard_cache_hit_ratio": "ratio",
    "core.calls": "count",
    "core.self_s": "s",
    "core.paths_explored": "count",
    "queries.holds_calls": "count",
    "queries.self_s": "s",
    "queries.plan_compiles": "count",
    "queries.plan_cache_hit_ratio": "ratio",
    "relational.mutations": "count",
    "store.snapshot.ops": "count",
    "store.snapshot.mutations": "count",
    "engine.requests": "count",
    "engine.computed": "count",
    "engine.served_ratio": "ratio",
    "engine.self_s": "s",
    "access.calls": "count",
    "access.self_s": "s",
    "verdict_cache.lookups": "count",
    "verdict_cache.hit_ratio": "ratio",
    "verdict_cache.disk_hits": "count",
    "verdict_cache.flush_s": "s",
    "verdict_cache.bytes_written": "bytes",
    "scheduler.items": "count",
    "scheduler.pooled_items": "count",
    "scheduler.retries": "count",
    "scheduler.wait_s": "s",
    "scheduler.worker_cpu_s": "s",
    "sql.pushdowns": "count",
    "sql.pushdown_skipped": "count",
    "sql.ingest_s": "s",
    "sql.ingest_facts_per_s": "1/s",
    "sql.query_s": "s",
    "sql.db_bytes_per_fact": "bytes",
    "datalog.calls": "count",
    "datalog.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    tracer,
    registry_delta: Dict[str, float],
    plan_delta: Dict[str, int],
    worker_cpu_s: float,
    db_bytes_per_fact: float,
) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead_ratio``, which needs
    the untraced pass that follows the traced one."""
    counts = tracer.counts
    calls = tracer.layer_calls()
    self_s = tracer.self_times()
    spans = tracer.spans
    flush_s = sum(s[5] for s in spans if s[0] == "verdict_cache.flush")
    ingest_s = sum(s[5] for s in spans if s[0] == "sql.add_facts")
    query_s = sum(s[5] for s in spans if s[0] == "sql.pushdown")
    lookups = plan_delta["hits"] + plan_delta["misses"]
    pooled = counts["scheduler.pooled_items"]
    values = {
        "automata.calls": calls["automata"],
        "automata.self_s": self_s["automata"],
        "automata.paths_explored": counts["automata.paths_explored"],
        "automata.chains_checked": counts["automata.chains_checked"],
        "automata.guard_cache_hit_ratio": _ratio(
            counts["automata.guard_hits"], counts["automata.guard_lookups"]
        ),
        "core.calls": calls["core"],
        "core.self_s": self_s["core"],
        "core.paths_explored": counts["core.paths_explored"],
        "queries.holds_calls": calls["queries"],
        "queries.self_s": self_s["queries"],
        "queries.plan_compiles": plan_delta["misses"],
        "queries.plan_cache_hit_ratio": _ratio(plan_delta["hits"], lookups),
        "relational.mutations": counts["relational.mutations"],
        "store.snapshot.ops": counts["store.snapshot.ops"],
        "store.snapshot.mutations": counts["store.snapshot.mutations"],
        "engine.requests": counts["engine.requests"],
        "engine.computed": counts["engine.computed"],
        "engine.served_ratio": _ratio(counts["engine.served"], counts["engine.requests"]),
        "engine.self_s": self_s["engine"],
        "access.calls": calls["access"],
        "access.self_s": self_s["access"],
        "verdict_cache.lookups": counts["verdict_cache.lookups"],
        "verdict_cache.hit_ratio": _ratio(
            counts["verdict_cache.hits"], counts["verdict_cache.lookups"]
        ),
        "verdict_cache.disk_hits": counts["verdict_cache.disk_hits"],
        "verdict_cache.flush_s": flush_s,
        "verdict_cache.bytes_written": counts["verdict_cache.bytes_written"],
        # Subtree items run in process unless pooled; every pool
        # submission (chain, subtree item or engine task) is an item.
        "scheduler.items": pooled
        + counts["scheduler.subtree_items"]
        - counts["scheduler.subtree_pooled_items"],
        "scheduler.pooled_items": pooled,
        "scheduler.retries": counts["scheduler.retries"] + _engine_retries(tracer),
        "scheduler.wait_s": counts["scheduler.wait_s"],
        "scheduler.worker_cpu_s": worker_cpu_s,
        "sql.pushdowns": counts["sql.pushdowns"],
        "sql.pushdown_skipped": registry_delta.get("store.pushdown_skipped", 0),
        "sql.ingest_s": ingest_s,
        "sql.ingest_facts_per_s": _ratio(counts["sql.facts_ingested"], ingest_s),
        "sql.query_s": query_s,
        "sql.db_bytes_per_fact": db_bytes_per_fact,
        "datalog.calls": calls["datalog"],
        "datalog.self_s": self_s["datalog"],
    }
    return {name: float(values[name]) for name in PER_LAYER if name in values}


def _engine_retries(tracer) -> int:
    total = 0
    for engine, _, _, before in tracer.engines.values():
        for key in ("pool_retries", "pool_timeouts", "pool_inprocess_fallbacks"):
            total += engine._stats[key] - before[key]
    return total


def cross_check(tracer, registry_delta: Dict[str, float], plan_delta: Dict[str, int]) -> List[str]:
    """Disagreements between the tracer and the program's own counters."""
    counts = tracer.counts
    problems = []

    def expect(label: str, traced: float, program: float) -> None:
        if traced != program:
            problems.append(f"{label}: tracer {traced} != program {program}")

    expect(
        "plan-cache hits + misses",
        counts["queries.plan_lookups"],
        plan_delta["hits"] + plan_delta["misses"],
    )
    engine_requests = sum(
        engine._stats["requests"] - requests for engine, requests, _, _ in tracer.engines.values()
    )
    expect('engine.stats()["requests"]', counts["engine.requests"], engine_requests)
    memo_lookups = sum(
        engine._memo.memo.hits + engine._memo.memo.misses - before
        for engine, _, before, _ in tracer.engines.values()
    )
    expect("verdict-cache memory hits + misses", counts["verdict_cache.lookups"], memo_lookups)
    expect(
        "paths_explored of in-process emptiness tasks",
        counts["top.automata.paths_explored"],
        counts["front.automata.paths_explored"],
    )
    expect(
        "paths_explored of in-process bounded checks",
        counts["top.core.paths_explored"],
        counts["front.core.paths_explored"],
    )
    expect(
        "bounded_check.runs",
        sum(1 for span in tracer.spans if span[0] == "bounded_satisfiability"),
        registry_delta.get("bounded_check.runs", 0),
    )
    expect(
        "emptiness results",
        tracer.layer_calls()["automata"] - counts["automata.trivial"],
        sum(
            registry_delta.get(f"emptiness.{kind}_results", 0)
            for kind in ("empty", "nonempty", "unknown")
        ),
    )
    expect("store.pushdown registry delta", counts["sql.pushdowns"], registry_delta.get("store.pushdown", 0))
    expect(
        "datalog.fixedpoint_runs",
        tracer.layer_calls()["datalog"],
        registry_delta.get("datalog.fixedpoint_runs", 0),
    )
    return problems
