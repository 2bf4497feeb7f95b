"""Run one benchmark workload and print its result as the last stdout line.

Usage, from the repository root::

    python3 perfbench/run.py --workload decide_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs a fixed slice of the workload untraced and then
traced, and reports the per-layer metrics (see ``layers.py``).  The last
line is ``{"correct", "attempted", "failed", "metrics"}``; the line before
it is the full report with run metadata, which is also written under
``perfbench/.work/results/``.  Spans of a traced run are written to
``perfbench/.work/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, ".work")

#: ``name -> (module, class, min_rounds, warm-up limit, traced limit)``.
#: At least ``min_rounds`` whole rounds run; the timing metrics are medians
#: over rounds.  The limits cut a round to its first requests (batches for
#: ``chains_pooled``, tenants for ``serve_warm``): the warm-up before
#: measuring, and the fixed slice a traced run times untraced and traced.
WORKLOADS = {
    "decide_cold": ("decide_cold", "DecideCold", 3, 4, 40),
    "serve_warm": ("serve_warm", "ServeWarm", 5, 2, 8),
    "chains_pooled": ("chains_pooled", "ChainsPooled", 3, 2, 10),
    "store_scale": ("store_scale", "StoreScale", 3, 4, 24),
}

SETUP_REPEATS = 3
SETUP_MIN_S = 1.0

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "first_verdict_p50_ms": "ms",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import harness

    module_name, class_name, min_rounds, warmup, trace_limit = WORKLOADS[args.workload]
    module = __import__(module_name)
    workload = getattr(module, class_name)(args.seed, WORKDIR)
    meta = harness.run_metadata(ROOT, args.workload, args.seed, bool(args.trace))
    try:
        if args.trace:
            result, report = traced_run(workload, args, warmup, trace_limit)
        else:
            result, report = untraced_run(workload, args, min_rounds, warmup)
    finally:
        workload.teardown()
        stop_workers()
    report["meta"] = meta
    os.makedirs(os.path.join(WORKDIR, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORKDIR, "results", name), "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


def untraced_run(workload, args, min_rounds: int, warmup: int):
    import harness

    raw_setup_s, setup_s = harness.median_setup(
        workload.setup, workload.teardown, SETUP_REPEATS, SETUP_MIN_S
    )
    workload.run_round(harness.Recorder(), limit=warmup)
    recorder = harness.Recorder(calibrate=True)
    started = time.perf_counter()
    while len(recorder.rounds) < min_rounds or time.perf_counter() - started < args.seconds:
        recorder.start_round()
        workload.run_round(recorder)
        recorder.end_round()
    wall = time.perf_counter() - started
    peak_rss = harness.peak_rss_mb()
    completed = len(recorder.latencies_s)
    workload.verify(recorder, args.seed)
    # Every round is the same request list, so its size fixes the tail
    # percentile whatever the host's speed.
    round_size = recorder.rounds[0][0]
    tail_pct = harness.tail_percentile(round_size)
    per_round = recorder.per_round(tail_pct)
    # Every round repeats the same work, so the median over rounds
    # discards rounds that a burst of load from outside the process slowed.
    metrics = {name: statistics.median(values) for name, values in per_round.items()}
    raw = {
        name: statistics.median(values)
        for name, values in recorder.per_round(tail_pct, scaled=False).items()
        if name != "host_factor"
    }
    raw["setup_s"] = raw_setup_s
    metrics["setup_s"] = setup_s
    metrics["decided_ratio"] = recorder.decided / completed
    metrics["peak_rss_mb"] = peak_rss
    host = metrics.pop("host_factor")
    metrics = {name: metrics[name] for name in END_TO_END}
    result = _result(recorder, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()})
    report = {
        "metrics": metrics,
        "unscaled_metrics": raw,
        "host_factor": host,
        "tail_percentile": tail_pct,
        "round_size": round_size,
        "samples": completed,
        "rounds": len(recorder.rounds),
        "per_round": per_round,
        "wall_s": wall,
        "failed_ratio": recorder.failed / max(1, recorder.attempted),
        "wrong_verdicts": recorder.wrong,
        "problems": recorder.problems,
    }
    if hasattr(workload, "facts_written") and workload.write_s:
        report["ingest_facts_per_s"] = workload.facts_written / workload.write_s
    return result, report


def traced_run(workload, args, warmup: int, limit: int):
    import harness
    import layers
    from repro.obs.metrics import REGISTRY
    from repro.queries.plan_cache import plan_cache_info
    from tracer import Tracer

    workload.setup()
    workload.run_round(harness.Recorder(), limit=warmup)

    def fixed_pass(recorder):
        started = time.perf_counter()
        workload.run_round(recorder, limit=limit)
        return time.perf_counter() - started

    before = fixed_pass(harness.Recorder())
    recorder = harness.Recorder()
    tracer = Tracer()
    registry_base = REGISTRY.counters_snapshot()
    plan_base = plan_cache_info()
    cpu_base = harness.worker_cpu_s()
    tracer.install()
    try:
        traced_wall = fixed_pass(recorder)
    finally:
        tracer.uninstall()
    worker_cpu = harness.worker_cpu_s() - cpu_base
    plan_now = plan_cache_info()
    plan_delta = {key: plan_now[key] - plan_base[key] for key in ("hits", "misses")}
    registry_delta = {
        name: value - tracer.shipped.get(name, 0)
        for name, value in REGISTRY.counters_delta(registry_base).items()
    }
    problems = layers.cross_check(tracer, registry_delta, plan_delta)
    if problems:
        raise SystemExit("perfbench: tracer disagrees with program counters: " + "; ".join(problems))
    db_bytes = workload.db_bytes_per_fact() if hasattr(workload, "db_bytes_per_fact") else 0.0
    values = layers.layer_metrics(tracer, registry_delta, plan_delta, worker_cpu, db_bytes)
    # Untraced passes on both sides of the traced one share its warm state.
    untraced_wall = (before + fixed_pass(harness.Recorder())) / 2
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    workload.verify(recorder, args.seed)
    os.makedirs(WORKDIR, exist_ok=True)
    tracer.write_spans(os.path.join(WORKDIR, f"spans-{args.workload}.jsonl"))
    result = _result(
        recorder, {k: {"value": v, "unit": layers.PER_LAYER[k]} for k, v in values.items()}
    )
    report = {
        "metrics": values,
        "spans": len(tracer.spans),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "failed_ratio": recorder.failed / max(1, recorder.attempted),
        "wrong_verdicts": recorder.wrong,
        "problems": recorder.problems,
    }
    return result, report


def _result(recorder, metrics):
    return {
        "correct": recorder.failed == 0 and recorder.wrong == 0,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": metrics,
    }


def stop_workers() -> None:
    """Stop the shared worker pool, if the run started one, and wait for it."""
    if "repro.store.workqueue" not in sys.modules:
        return
    import harness

    harness.stop_pool()


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Pin string hashing so set iteration, and with it every work
        # count, repeats exactly for a given seed.
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
            dict(os.environ, PYTHONHASHSEED="0"),
        )
    sys.exit(main())
