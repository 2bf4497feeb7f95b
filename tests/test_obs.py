"""Observability layer: spans, metrics, exporters, env registry.

Covers the tentpole guarantees of the tracing/metrics subsystem
(:mod:`repro.obs`):

* span records are nested, monotonic and picklable, and recording is a
  no-op with tracing disabled;
* the metrics registry absorbs legacy stats dicts and merges worker
  counter deltas without perturbing either side;
* spans cross the process boundary: the real pool worker entries ship
  their locally recorded spans back on the result payload under fork
  *and* spawn, and the coordinator folds them into the live trace;
* the acceptance scenario: a pooled relevance matrix under fault
  injection exports a Chrome-trace JSON containing worker-side child
  spans and a retry event — and with tracing off, verdicts and legacy
  stats are field-identical to the traced run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle

import pytest

from repro.engine import DecisionEngine
from repro.obs import env as envknobs
from repro.obs import export, metrics, trace
from repro.store import faults
from repro.store import workqueue as workqueue_module
from repro.workloads.directory import (
    directory_access_schema,
    directory_hidden_instance,
    join_query,
)
from repro.workloads.matrices import probe_accesses, stream_relevance_matrix


@pytest.fixture(autouse=True)
def _clean_trace_state():
    """Tracing off and no span/plan leakage into or out of any test."""
    trace.set_enabled(False)
    trace.reset()
    faults.clear()
    yield
    trace.set_enabled(False)
    trace.reset()
    faults.clear()
    workqueue_module.discard_shared_pool()


# ---------------------------------------------------------------------------
# Span recording primitives
# ---------------------------------------------------------------------------
class TestSpanRecords:
    def test_disabled_recording_is_a_noop(self):
        with trace.trace_span("outer", key="value"):
            trace.event("inner")
        assert trace.take_spans() == []

    def test_nested_spans_and_attributes(self):
        trace.set_enabled(True)
        with trace.trace_span("outer", depth=0):
            with trace.trace_span("inner"):
                trace.annotate(touched=True)
            trace.event("marker", index=3)
        (root,) = trace.take_spans()
        assert root.name == "outer"
        assert root.attrs["depth"] == 0
        assert [child.name for child in root.children] == ["inner", "marker"]
        inner, marker = root.children
        assert inner.attrs["touched"] is True
        assert marker.duration_s == 0.0
        assert marker.attrs["index"] == 3
        assert root.duration_s >= inner.duration_s >= 0.0

    def test_span_records_pickle_round_trip(self):
        trace.set_enabled(True)
        with trace.trace_span("outer", label="x"):
            with trace.trace_span("inner"):
                pass
        (root,) = trace.take_spans()
        clone = pickle.loads(pickle.dumps(root))
        assert [span.name for span in clone.walk()] == [
            span.name for span in root.walk()
        ]
        assert clone.attrs == root.attrs
        assert clone.pid == os.getpid()

    def test_begin_end_tolerates_abandoned_children(self):
        # Generator-style phases: end() closes intervening spans so an
        # abandoned inner span cannot corrupt the stack.
        trace.set_enabled(True)
        outer = trace.begin("outer")
        trace.begin("abandoned")
        trace.end(outer, closed=True)
        (root,) = trace.take_spans()
        assert root.name == "outer"
        assert root.attrs["closed"] is True
        assert [child.name for child in root.children] == ["abandoned"]

    def test_attach_children_rebases_foreign_spans(self):
        trace.set_enabled(True)
        with trace.trace_span("worker-side"):
            pass
        shipped = pickle.loads(pickle.dumps(tuple(trace.take_spans())))
        with trace.trace_span("coordinator"):
            trace.attach_children(shipped)
        (root,) = trace.take_spans()
        (child,) = root.children
        assert child.name == "worker-side"
        assert root.start_s <= child.start_s

    def test_exporters_agree_on_the_span_set(self, tmp_path):
        trace.set_enabled(True)
        with trace.trace_span("outer"):
            with trace.trace_span("inner"):
                pass
        spans = trace.take_spans()
        names = {record["name"] for record in map(json.loads, export.to_jsonl(spans).splitlines())}
        chrome = export.to_chrome_trace(spans)
        assert names == {"outer", "inner"}
        assert {event["name"] for event in chrome["traceEvents"]} == names
        assert all(event["ph"] == "X" for event in chrome["traceEvents"])
        tree = export.render_tree(spans)
        assert "outer" in tree and "inner" in tree
        target = tmp_path / "trace.json"
        export.write_chrome_trace(spans, str(target))
        assert json.loads(target.read_text())["traceEvents"]


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_histograms_and_views(self):
        registry = metrics.MetricsRegistry()
        registry.counter("hits")
        registry.counter("hits", 2)
        registry.gauge("depth", 7)
        registry.observe("latency", 0.25)
        registry.observe("latency", 0.75)
        registry.register_view("cache", lambda: {"entries": 3})
        snap = registry.snapshot()
        assert snap["counters"]["hits"] == 3
        assert snap["gauges"]["depth"] == 7
        assert snap["histograms"]["latency"]["count"] == 2
        assert snap["histograms"]["latency"]["mean"] == 0.5
        assert snap["views"]["cache"]["entries"] == 3

    def test_absorb_keeps_legacy_dict_untouched(self):
        registry = metrics.MetricsRegistry()
        legacy = {"memo_hits": 4, "label": "ignored", "flag": True}
        registry.absorb("emptiness", legacy)
        snap = registry.snapshot()
        assert snap["counters"]["emptiness.memo_hits"] == 4
        assert "emptiness.label" not in snap["counters"]
        assert "emptiness.flag" not in snap["counters"]  # bools are not counters
        assert legacy == {"memo_hits": 4, "label": "ignored", "flag": True}

    def test_counter_deltas_merge_across_registries(self):
        # The cross-process shipping shape: a worker-side registry's delta
        # since submission merges into the coordinator's registry.
        coordinator = metrics.MetricsRegistry()
        coordinator.counter("shared", 1)
        worker = metrics.MetricsRegistry()
        base = worker.counters_snapshot()
        worker.counter("shared", 2)
        worker.counter("worker_only", 5)
        delta = worker.counters_delta(base)
        clone = pickle.loads(pickle.dumps(delta))
        coordinator.merge_counters(clone)
        snap = coordinator.snapshot()
        assert snap["counters"]["shared"] == 3
        assert snap["counters"]["worker_only"] == 5

    def test_tracked_component_is_live(self):
        registry = metrics.MetricsRegistry()

        class Holder:
            def __init__(self):
                self.stats = {"requests": 0}

        holder = Holder()
        registry.track("holder", holder, lambda h: h.stats)
        holder.stats["requests"] = 9
        assert registry.snapshot()["components"]["holder"]["requests"] == 9


# ---------------------------------------------------------------------------
# Env-knob registry
# ---------------------------------------------------------------------------
class TestEnvRegistry:
    def test_every_repro_knob_is_registered(self):
        names = {knob.name for knob in envknobs.all_knobs()}
        assert {
            "REPRO_TRACE",
            "REPRO_FAULT_INJECT",
            "REPRO_PARALLEL_CHAINS",
            "REPRO_PARALLEL_TASKS",
            "REPRO_PARALLEL_MIN_COST",
            "REPRO_POOL_RETRIES",
            "REPRO_POOL_ITEM_TIMEOUT",
        } <= names
        assert len(names) == 13

    def test_current_reports_source_and_value(self, monkeypatch):
        monkeypatch.delenv("REPRO_POOL_RETRIES", raising=False)
        row = envknobs.knob("REPRO_POOL_RETRIES").current()
        assert row["source"] == "default"
        assert row["value"] == envknobs.DEFAULT_POOL_RETRIES
        monkeypatch.setenv("REPRO_POOL_RETRIES", "5")
        row = envknobs.knob("REPRO_POOL_RETRIES").current()
        assert row["source"] == "env"
        assert row["value"] == 5
        assert row["raw"] == "5"


# ---------------------------------------------------------------------------
# Streamed matrix latency stats
# ---------------------------------------------------------------------------
class TestStreamedMatrixStats:
    def test_first_verdict_latency_and_provenance(self):
        schema = directory_access_schema()
        hidden = directory_hidden_instance("small")
        accesses = probe_accesses(schema, hidden, limit=6)
        engine = DecisionEngine()
        streamed = stream_relevance_matrix(
            engine, schema, accesses, join_query(), require_boolean_access=False
        )
        assert len(streamed.values) == len(accesses)
        assert 0.0 <= streamed.first_verdict_s <= streamed.total_s
        produced = sum(1 for value in streamed.values if value is not None)
        assert sum(streamed.by_provenance.values()) == produced
        summary = engine.last_batch_summary()
        assert summary["requests"] == produced
        assert summary["by_provenance"] == streamed.by_provenance
        assert 0.0 <= summary["first_verdict_s"] <= summary["total_s"]
        assert len(engine.last_batch_profile) == produced
        # A warm re-run is answered from the memo, and the profile says so.
        rerun = stream_relevance_matrix(
            engine, schema, accesses, join_query(), require_boolean_access=False
        )
        assert set(rerun.by_provenance) == {"memo"}
        assert rerun.first_verdict_s <= rerun.total_s

    def test_request_latency_histogram_records_each_result(self):
        metrics.reset()
        schema = directory_access_schema()
        accesses = probe_accesses(schema, directory_hidden_instance("small"), limit=4)
        DecisionEngine().relevance_matrix(
            schema, accesses, join_query(), require_boolean_access=False
        )
        histogram = metrics.snapshot()["histograms"]["engine.request_latency_s"]
        assert histogram["count"] == len(accesses)


# ---------------------------------------------------------------------------
# Worker-side span shipping through the real pool entry point
# ---------------------------------------------------------------------------
class TestWorkerSpanShipping:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_chain_worker_ships_picklable_spans(self, start_method):
        from concurrent.futures import ProcessPoolExecutor

        from repro.automata.library import ltr_automaton
        from repro.automata.progressive import chain_restrictions
        from repro.core.solver import AccLTLSolver
        from repro.store import parallel as parallel_module

        schema = directory_access_schema()
        voc = AccLTLSolver(schema).vocabulary
        automaton = ltr_automaton(voc, schema.access("AcM1", ("Smith",)), join_query())
        restriction = chain_restrictions(automaton.minimise())[0]
        search_kwargs = dict(
            max_length=3,
            max_response_size=2,
            max_paths=200,
            fact_pool=None,
            value_pool=None,
            grounded_only=False,
            memoize=False,
        )
        initial = parallel_module._initial_snapshot(voc.access_schema.empty_instance())
        args = (restriction, voc, initial, search_kwargs, False)
        context = multiprocessing.get_context(start_method)
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            shipped = pool.submit(
                workqueue_module._run_item,
                "chain",
                parallel_module._check_chain,
                args,
                True,
            ).result()
        assert shipped.spans, "worker recorded no spans with tracing on"
        clone = pickle.loads(pickle.dumps(shipped.spans))
        names = [span.name for root in clone for span in root.walk()]
        assert "emptiness.chain" in names
        worker_pids = {span.pid for root in shipped.spans for span in root.walk()}
        assert worker_pids and os.getpid() not in worker_pids
        # The same submission with tracing off ships nothing.
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            quiet = pool.submit(
                workqueue_module._run_item,
                "chain",
                parallel_module._check_chain,
                args,
                False,
            ).result()
        assert quiet.spans is None
        outcome, quiet = shipped.value, quiet.value
        assert (quiet.witness, quiet.explored, quiet.exhausted) == (
            outcome.witness,
            outcome.explored,
            outcome.exhausted,
        )


# ---------------------------------------------------------------------------
# Acceptance: pooled relevance matrix, fault injection, Chrome export
# ---------------------------------------------------------------------------
def _relevance_workload(limit=8):
    schema = directory_access_schema()
    hidden = directory_hidden_instance("small")
    return schema, probe_accesses(schema, hidden, limit=limit), join_query()


class TestPooledTraceAcceptance:
    def test_pooled_run_exports_worker_spans_and_retry(self, tmp_path, monkeypatch):
        monkeypatch.setenv(faults.FAULT_INJECT_ENV, "raise@task:1")
        workqueue_module.discard_shared_pool()  # fork workers with the spec
        trace.set_enabled(True)
        trace.reset()
        schema, accesses, query = _relevance_workload()
        engine = DecisionEngine(max_workers=1)
        results = engine.relevance_matrix(
            schema, accesses, query, require_boolean_access=False
        )
        spans = trace.take_spans()
        assert all(result is not None for result in results)
        assert engine.stats()["pool_worker_failures"] >= 1
        flat = [span for root in spans for span in root.walk()]
        names = [span.name for span in flat]
        assert "engine.batch" in names and "engine.drain" in names
        worker_spans = [
            span
            for span in flat
            if span.name.startswith("task:") and span.pid != os.getpid()
        ]
        assert worker_spans, "no worker-side child spans in the folded trace"
        assert any(span.attrs.get("pooled") for span in worker_spans)
        retry_like = [
            span
            for span in flat
            if span.name in ("pool.retry", "pool.fallback", "pool.timeout")
        ]
        assert retry_like, "fault injection left no retry/fallback span"
        target = tmp_path / "pooled_trace.json"
        export.write_chrome_trace(spans, str(target))
        events = json.loads(target.read_text())["traceEvents"]
        event_names = {event["name"] for event in events}
        assert any(name.startswith("task:") for name in event_names)
        assert event_names & {"pool.retry", "pool.fallback", "pool.timeout"}
        assert any(
            event["name"].startswith("task:") and event["pid"] != os.getpid()
            for event in events
        )

    def test_disabled_tracing_is_field_identical(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        schema, accesses, query = _relevance_workload()
        baseline_engine = DecisionEngine()
        baseline = baseline_engine.relevance_matrix(
            schema, accesses, query, require_boolean_access=False
        )
        assert trace.take_spans() == []
        trace.set_enabled(True)
        traced_engine = DecisionEngine()
        traced = traced_engine.relevance_matrix(
            schema, accesses, query, require_boolean_access=False
        )
        assert trace.take_spans()
        trace.set_enabled(False)
        assert [r.relevant for r in baseline] == [r.relevant for r in traced]
        baseline_summary = baseline_engine.last_batch_summary()
        traced_summary = traced_engine.last_batch_summary()
        assert baseline_summary["by_provenance"] == traced_summary["by_provenance"]
        assert baseline_engine.stats() == traced_engine.stats()
