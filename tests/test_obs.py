"""Observability layer: spans, metrics, exporters, env registry.

Covers the tentpole guarantees of the tracing/metrics subsystem
(:mod:`repro.obs`):

* span records are nested, monotonic and picklable, and recording is a
  no-op with tracing disabled;
* the metrics registry absorbs legacy stats dicts and merges counter
  deltas without perturbing either side;
* the env-knob registry lists every knob, and a strict flag parses its
  values case by case;
* with tracing off, verdicts and legacy stats are field-identical to the
  traced run.
"""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro.core import properties
from repro.core.bounded_check import Bounds, bounded_satisfiability
from repro.core.solver import AccLTLSolver
from repro.engine import DecisionEngine
from repro.obs import env as envknobs
from repro.obs import export, metrics, trace
from repro.workloads.directory import (
    directory_access_schema,
    directory_hidden_instance,
    join_query,
)
from repro.workloads.generators import WorkloadGenerator
from repro.workloads.matrices import probe_accesses, stream_relevance_matrix


@pytest.fixture(autouse=True)
def _clean_trace_state():
    """Tracing off and no span leakage into or out of any test."""
    trace.set_enabled(False)
    trace.reset()
    yield
    trace.set_enabled(False)
    trace.reset()


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

    def test_bounded_check_span_counts_popped_nodes(self):
        # A containment the transition refuter cannot settle, so the
        # checker searches it to exhaustion.
        generator = WorkloadGenerator(seed=0)
        schema = generator.access_schema(num_relations=2, max_arity=3, max_inputs=2)
        vocabulary = AccLTLSolver(schema).vocabulary
        formula = properties.containment_counterexample_formula(
            vocabulary,
            generator.conjunctive_query(schema.schema, num_atoms=2, num_variables=3),
            generator.conjunctive_query(schema.schema, num_atoms=1, num_variables=2),
        )
        trace.set_enabled(True)
        for length in (1, 2):
            result = bounded_satisfiability(
                vocabulary, formula, Bounds(max_path_length=length, max_paths=10**6)
            )
            assert result.exhausted
        one, two = (
            span.attrs for span in trace.take_spans() if span.name == "bounded_check.run"
        )
        attrs = {"max_paths", "budgeted", "satisfiable", "explored", "interrupted"}
        assert attrs | {"folded", "evaluated", "nodes", "refuted"} <= set(two)
        # A one-step search pops its root only.  With two steps, each popped
        # node checks every candidate once: both roots and the children
        # the second root pushed.
        assert one["nodes"] == 1
        assert two["nodes"] > 2
        assert two["explored"] == one["explored"] * two["nodes"]
        assert one["refuted"] == two["refuted"] == 0


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
        # One registry's delta since a snapshot merges into another's.
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
        assert names == {
            "REPRO_TRACE",
            "REPRO_FAULT_INJECT",
            "REPRO_MEMO_CAPACITY",
            "REPRO_MEMO_PERSIST_PATH",
            "REPRO_MEMO_LOCK_TIMEOUT",
            "REPRO_MEMO_COMPACT_SEGMENTS",
            "REPRO_SQL_PUSHDOWN_MIN_ROWS",
        }

    def test_current_reports_source_and_value(self, monkeypatch):
        monkeypatch.delenv("REPRO_MEMO_CAPACITY", raising=False)
        row = envknobs.knob("REPRO_MEMO_CAPACITY").current()
        assert row["source"] == "default"
        assert row["value"] == envknobs.DEFAULT_MEMO_CAPACITY
        monkeypatch.setenv("REPRO_MEMO_CAPACITY", "5")
        row = envknobs.knob("REPRO_MEMO_CAPACITY").current()
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


class TestStrictFlagParsing:
    """A strict flag's values, case by case, read through ``REPRO_TRACE``."""

    @staticmethod
    def _traced(monkeypatch, value):
        if value is None:
            monkeypatch.delenv(envknobs.TRACE_ENV, raising=False)
        else:
            monkeypatch.setenv(envknobs.TRACE_ENV, value)
        return trace.refresh_from_env()

    @pytest.mark.parametrize(
        "value",
        ["0", "false", "False", "FALSE", "no", "No", "off", "OFF", "", "  ", " 0 "],
    )
    def test_disabling_values(self, monkeypatch, value):
        assert self._traced(monkeypatch, value) is False

    @pytest.mark.parametrize("value", ["1", "true", "True", "yes", "on", " 1 "])
    def test_enabling_values(self, monkeypatch, value):
        assert self._traced(monkeypatch, value) is True

    @pytest.mark.parametrize("value", ["2"])
    def test_unknown_values_disable(self, monkeypatch, value):
        monkeypatch.setattr(envknobs, "_ENV_WARNED", set())
        with pytest.warns(RuntimeWarning, match=envknobs.TRACE_ENV):
            assert self._traced(monkeypatch, value) is False

    def test_unset_disables(self, monkeypatch):
        assert self._traced(monkeypatch, None) is False

    def test_env_toggle_controls_default(self, monkeypatch):
        assert self._traced(monkeypatch, None) is False
        assert self._traced(monkeypatch, "1") is True
        assert self._traced(monkeypatch, "off") is False


# ---------------------------------------------------------------------------
# Acceptance: tracing never changes a verdict
# ---------------------------------------------------------------------------
def _relevance_workload(limit=8):
    schema = directory_access_schema()
    hidden = directory_hidden_instance("small")
    return schema, probe_accesses(schema, hidden, limit=limit), join_query()


class TestTraceAcceptance:
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
