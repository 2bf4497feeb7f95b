"""Self-tests of the benchmark (not part of the repository's test suite).

Run explicitly from the repository root::

    python3 -m pytest -q perfbench/selftest_perfbench.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import chains_pooled  # noqa: E402
import decide_cold  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import serve_warm  # noqa: E402
import store_scale  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def tiny(name: str, seed: int, workdir: str):
    """A workload at a size that runs in a second or two."""
    if name == "decide_cold":
        return decide_cold.DecideCold(seed, workdir, synthetic=2)
    if name == "serve_warm":
        return serve_warm.ServeWarm(seed, workdir, rounds=2)
    if name == "chains_pooled":
        return chains_pooled.ChainsPooled(seed, workdir)
    return store_scale.StoreScale(seed, workdir, base_facts=2_000)


LIMITS = {"decide_cold": 6, "serve_warm": None, "chains_pooled": 3, "store_scale": None}


def run_tiny(name: str, seed: int, workdir: str):
    workload = tiny(name, seed, workdir)
    workload.setup()
    recorder = harness.Recorder()
    try:
        workload.run_round(recorder, limit=LIMITS[name])
        workload.verify(recorder, seed)
    finally:
        workload.teardown()
        harness.stop_pool()
    return workload, recorder


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_workload_runs_tiny(name, tmp_path):
    _, recorder = run_tiny(name, 1, str(tmp_path))
    assert recorder.attempted > 0
    assert recorder.failed == 0 and recorder.wrong == 0, recorder.problems
    assert len(recorder.latencies_s) == recorder.attempted


def test_same_seed_same_verdicts(tmp_path):
    first, _ = run_tiny("decide_cold", 5, str(tmp_path))
    second, _ = run_tiny("decide_cold", 5, str(tmp_path))
    assert [r.name for r in first.requests] == [r.name for r in second.requests]
    for name, (request, values) in first.outcomes.items():
        assert second.outcomes[name][1] == values


def test_different_seed_different_inputs(tmp_path):
    one = tiny("decide_cold", 1, str(tmp_path))
    two = tiny("decide_cold", 2, str(tmp_path))
    one.setup()
    two.setup()
    assert [r.name for r in one.requests] != [r.name for r in two.requests]
    warm_one = tiny("serve_warm", 1, str(tmp_path))
    warm_two = tiny("serve_warm", 2, str(tmp_path))
    warm_one.setup()
    warm_two.setup()
    try:
        assert serve_warm.relevance_batch(warm_one.tenants[0])[0].key != (
            serve_warm.relevance_batch(warm_two.tenants[0])[0].key
        )
    finally:
        warm_one.teardown()
        warm_two.teardown()
    store_one = tiny("store_scale", 1, str(tmp_path))
    store_two = tiny("store_scale", 2, str(tmp_path))
    for store in (store_one, store_two):
        store.setup()
        store.teardown()
    assert store_one.offset != store_two.offset
    batches = []
    for seed in (1, 2):
        pooled = tiny("chains_pooled", seed, str(tmp_path))
        try:
            pooled.setup()
            batches.append(pooled.batches)
        finally:
            pooled.teardown()
    assert batches[0] != batches[1]


def test_injected_wrong_verdict_is_counted(tmp_path, monkeypatch):
    """An emptiness back-end that denies every witness contradicts the references."""
    import dataclasses

    from repro.engine import engine as engine_module

    real = engine_module._EXECUTORS["emptiness"]

    def deny_witnesses(args):
        result = real(args)
        return dataclasses.replace(result, empty=True, witness=None, exhausted=True)

    monkeypatch.setitem(engine_module._EXECUTORS, "emptiness", deny_witnesses)
    workload = decide_cold.DecideCold(1, str(tmp_path), synthetic=0)
    workload.setup()
    recorder = harness.Recorder()
    automaton_rows = [r for r in workload.requests if r.name == "table1:a-automaton"]
    workload.requests = automaton_rows
    workload.run_round(recorder)
    assert recorder.wrong >= 1
    assert recorder.failed >= 1
    report_ratio = recorder.failed / recorder.attempted
    assert report_ratio > 0


def test_host_scaling_divides_each_batch_by_its_factor():
    recorder = harness.Recorder()
    nominal = harness.REFERENCE_NOMINAL_S
    # Five batches of one request each: the host runs at nominal speed,
    # then at half speed.  Every request takes 4 ms of nominal work.
    for slow in (False, False, True, True, True):
        factor = 2.0 if slow else 1.0
        recorder.batch(0.004 * factor)
        recorder.references_s.append(nominal * factor)
        recorder.request(0.004 * factor, True)
    # The window gives the batches the factors [1, 1.5, 2, 2, 2]; each
    # batch spans 4 ms of nominal work.  10 ms outside every batch count
    # at the round's median factor, 2.
    recorder.batch_spans_s = [0.004, 0.006, 0.008, 0.008, 0.008]
    recorder.rounds = [(5, 5, 0.044)]
    scaled = recorder.per_round(75.0)
    raw = recorder.per_round(75.0, scaled=False)
    assert scaled["latency_p50_ms"] == [pytest.approx(4.0)]
    assert scaled["first_verdict_p50_ms"] == [pytest.approx(4.0)]
    assert raw["latency_p50_ms"] == [pytest.approx(8.0)]
    assert scaled["host_factor"] == [2.0] and raw["host_factor"] == [1.0]
    assert raw["requests_per_s"] == [pytest.approx(5 / 0.044)]
    assert scaled["requests_per_s"] == [pytest.approx(5 / 0.025)]


def test_tracer_self_time_subtracts_children():
    tracer = Tracer()
    # name, layer, start, end, parent, active
    tracer.spans = [
        ["batch", "engine", 0.0, 10.0, -1, 10.0],
        ["search", "automata", 1.0, 7.0, 0, 6.0],
        ["guard", "queries", 2.0, 3.0, 1, 1.0],
        ["guard", "queries", 4.0, 6.0, 1, 2.0],
    ]
    times = tracer.self_times()
    assert times["engine"] == pytest.approx(4.0)
    assert times["automata"] == pytest.approx(3.0)
    assert times["queries"] == pytest.approx(3.0)


def test_call_slipping_past_a_wrapper_fails_the_cross_check(tmp_path):
    from repro.core import bounded_check
    from repro.core.bounded_check import Bounds
    from repro.core.properties import ltr_formula
    from repro.core.solver import AccLTLSolver
    from repro.obs.metrics import REGISTRY
    from repro.queries.plan_cache import plan_cache_info
    from repro.workloads.directory import directory_access_schema, join_query

    schema = directory_access_schema()
    vocabulary = AccLTLSolver(schema).vocabulary
    formula = ltr_formula(vocabulary, schema.access("AcM1", ("Smith",)), join_query())
    tracer = Tracer()
    registry_base = REGISTRY.counters_snapshot()
    plan_base = plan_cache_info()
    tracer.install()
    try:
        original = bounded_check.bounded_satisfiability_legacy.__wrapped__
        original(vocabulary, formula, Bounds(max_path_length=2, max_paths=50))
    finally:
        tracer.uninstall()
    plan_now = plan_cache_info()
    plan_delta = {key: plan_now[key] - plan_base[key] for key in ("hits", "misses")}
    problems = layers.cross_check(tracer, REGISTRY.counters_delta(registry_base), plan_delta)
    assert any("bounded_check.runs" in problem for problem in problems)
    assert bounded_check.bounded_satisfiability_legacy is original


def test_metric_names_and_benchmark_file():
    names = list(run.END_TO_END) + list(layers.PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_compare_refuses_different_cpu_counts():
    import compare

    base = {"meta": {"workload": "w", "trace": False, "cpus": 2}, "metrics": {"m": 2.0}}
    new = {"meta": {"workload": "w", "trace": False, "cpus": 4}, "metrics": {"m": 1.0}}
    with pytest.raises(compare.IncomparableResults):
        compare.compare(base, new)
    new["meta"]["cpus"] = 2
    assert compare.compare(base, new) == {"m": 0.5}


def test_traced_counts_repeat_exactly():
    """Two traced runs with one seed report identical per-layer counts."""

    def counts():
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "serve_warm",
             "--seed", "4", "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, check=True, cwd=ROOT, timeout=170,
        )
        metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "bytes")}

    assert counts() == counts()
