"""Deterministic work counts of a ``decide_cold`` prefix.

Wall-clock guards on this code are too noisy to catch a search that
quietly does more work, so this test pins the work itself.  In a
subprocess with ``PYTHONHASHSEED=0`` it runs the first
:data:`REQUESTS` requests of the benchmark's seed-1 ``decide_cold``
stream (``perfbench/decide_cold.py``) through its
:class:`~repro.engine.DecisionEngine`, under the benchmark's tracer, and
compares the summed emptiness and bounded-checker counts —
``automata.paths_explored``, ``automata.chains_checked`` and
``core.paths_explored`` — and the store work they cause —
``relational.mutations``, ``store.snapshot.ops`` and
``store.snapshot.mutations`` — and the plan executions of guard and
query evaluation (:data:`PLAN_KEYS`) with ``tests/data/work_counts.json``.
The plan executions are calls to ``execute_plan`` and
``execute_delta_plan`` (wherever imported by name; the delta count
includes the executions ``execute_plan`` delegates to) and to the naive
oracle that ``plans_hold`` falls back to for plans the slot compiler
cannot cover.  The tracer has no counter for them, so the guard adds
three with ``Tracer.patch_function``/``Tracer.patch_attr``; one extra
plan execution per guard check moves them while every search count
stays put (:func:`test_extra_plan_execution_fails_the_guard`).

The ``decide_cold`` automata are single compiled automata, whose
quotient has no subsumed chain.  So the guard also searches
:data:`UNIONS` union automata built the way ``perfbench/chains_pooled.py``
builds its requests (relabelled relevance automata of its probe grid),
sequentially and with that workload's path cap, and pins their summed
``paths_explored`` and ``chains_checked`` (``unions.*``): a union keeps a
direct exit chain per branch only when chain subsumption is lost.  The
unions run under a tracer of their own, with the plan wrappers, and
also pin :data:`UNION_KEYS`, the store work and plan executions of their
searches: the search's last level (``automata/emptiness.py``) evaluates
only the guards into accepting states and descends into no child, and
losing either half moves these counts on this shape of automaton while
every search count stays.

The ``serve_warm`` guard runs the first :data:`WARM_ROUNDS` rounds of
that workload's seed-1 session (``perfbench/serve_warm.py``: new and
repeated batches on one persistent engine, then the replay on a second
engine over the same store) under a second tracer, and pins the verdict
cache's ``lookups``, ``hits``, ``disk_hits`` and ``bytes_written`` plus
``engine.computed`` (``serve_warm.*``).  Equal ``bytes_written`` means
the cache wrote byte-identical keys and records.

The ``store_scale`` guard builds that workload (``perfbench/store_scale.py``)
at seed 1 on a :data:`STORE_BASE_FACTS`-fact base store and runs its first
:data:`STORE_OPERATIONS` operations (writes, lookups, the chain join and a
fixedpoint) under a third tracer.  It pins ``sql.pushdowns`` and
``sql.facts_ingested`` (``store_scale.*``): a change to the SQL backend's
storage must neither lose a pushdown nor drop or duplicate a fact.

The counts are exact: a change that is not meant to alter the searches
must reproduce them.  A change that is meant to re-records them with
``PYTHONPATH=src python tests/test_work_counts.py`` and says why.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE = Path(__file__).with_name("data") / "work_counts.json"

#: Seed, synthetic-scenario count and prefix length of the stream.
SEED = 1
SYNTHETIC = 30
REQUESTS = 20

KEYS = (
    "automata.paths_explored",
    "automata.chains_checked",
    "core.paths_explored",
    "relational.mutations",
    "store.snapshot.ops",
    "store.snapshot.mutations",
)

#: Plan executions of the ``decide_cold`` prefix, counted by the
#: wrappers of :data:`_COUNT_PLANS`.
PLAN_KEYS = (
    "queries.execute_plan",
    "queries.execute_delta_plan",
    "queries.naive_fallback",
)

#: Rounds of the ``serve_warm`` session and the counts pinned for them.
WARM_ROUNDS = 4
WARM_KEYS = (
    "verdict_cache.lookups",
    "verdict_cache.hits",
    "verdict_cache.disk_hits",
    "verdict_cache.bytes_written",
    "engine.computed",
)

#: Slices of ``chains_pooled.ltr_candidates()`` (capped, witnessed) whose
#: union is searched: three capped branches, then two capped and one
#: witnessed.
UNIONS = (((0, 3), (0, 0)), ((3, 5), (0, 1)))

#: Store and plan work of the union searches, beside their search counts.
UNION_KEYS = ("relational.mutations", "store.snapshot.ops", "queries.execute_plan")

#: Base-store size and operation count of the ``store_scale`` slice.
STORE_BASE_FACTS = 10_000
STORE_OPERATIONS = 6
STORE_KEYS = ("sql.pushdowns", "sql.facts_ingested")

#: Counts every plan execution on *tracer* (installed): ``execute_plan``
#: and ``execute_delta_plan`` in every module that imported them, and the
#: naive fallback in ``plans_hold``'s module only.
_COUNT_PLANS = """
import repro.core.transition

for name in ("execute_plan", "execute_delta_plan"):
    tracer.patch_function(
        "repro.queries.plan_cache",
        name,
        lambda fn, name=name: tracer.counted("queries." + name, fn),
    )
tracer.patch_attr(
    repro.core.transition,
    "naive_satisfying_assignments",
    lambda fn: tracer.counted("queries.naive_fallback", fn),
)
"""

_DECIDE_COLD = f"""
import json
from decide_cold import DecideCold
from harness import Recorder
from tracer import Tracer

workload = DecideCold(seed={SEED}, workdir="", synthetic={SYNTHETIC})
workload.setup()
recorder = Recorder()
tracer = Tracer()
tracer.install()
{_COUNT_PLANS}
try:
    workload.run_round(recorder, limit={REQUESTS})
finally:
    tracer.uninstall()
    workload.teardown()
counts = {{key: tracer.counts[key] for key in {KEYS + PLAN_KEYS!r}}}
counts["requests"] = recorder.attempted
counts["failed"] = recorder.failed
"""

_PRINT = """
print(json.dumps(counts, sort_keys=True))
"""

#: Runs one extra plan execution per guard check: every ``plans_hold``
#: call first evaluates the sentence's first disjunct on its own.
_INJECT_EXTRA_EXECUTION = """
import repro.core.transition
from tracer import Tracer

_plans_hold = repro.core.transition.plans_hold


def _plans_hold_twice(plans, instance):
    _plans_hold(plans[:1], instance)
    return _plans_hold(plans, instance)


Tracer().patch_function(
    "repro.core.transition", "plans_hold", lambda fn: _plans_hold_twice
)
"""

_SCRIPT = _DECIDE_COLD + f"""
from chains_pooled import (
    MAX_PATHS, ChainsPooled, Request, directory_probe_schema, ltr_candidates,
)
from repro.automata.emptiness import automaton_emptiness
from repro.core.solver import AccLTLSolver

pooled = ChainsPooled(seed={SEED}, workdir="")
pooled.schema = directory_probe_schema()
pooled.vocabulary = AccLTLSolver(pooled.schema).vocabulary
capped, witnessed = ltr_candidates()
automata = [
    pooled.automaton(Request("fanout", tuple(capped[c0:c1] + witnessed[w0:w1]), w1 > w0))
    for (c0, c1), (w0, w1) in {UNIONS!r}
]
counts["unions.paths_explored"] = counts["unions.chains_checked"] = 0
tracer = Tracer()
tracer.install()
{_COUNT_PLANS}
try:
    for automaton in automata:
        result = automaton_emptiness(
            automaton,
            pooled.vocabulary,
            max_paths=MAX_PATHS,
            use_datalog_precheck=False,
            parallel=False,
            subtree_parallel=False,
        )
        counts["unions.paths_explored"] += result.paths_explored
        counts["unions.chains_checked"] += result.chains_checked
finally:
    tracer.uninstall()
for key in {UNION_KEYS!r}:
    counts["unions." + key] = tracer.counts[key]

import shutil
import tempfile
from serve_warm import ServeWarm

workdir = tempfile.mkdtemp(prefix="work-counts-")
warm = ServeWarm(seed={SEED}, workdir=workdir)
warm.setup()
recorder = Recorder()
tracer = Tracer()
tracer.install()
try:
    warm.run_round(recorder, limit={WARM_ROUNDS})
finally:
    tracer.uninstall()
    warm.teardown()
    shutil.rmtree(workdir, ignore_errors=True)
for key in {WARM_KEYS!r}:
    counts["serve_warm." + key] = tracer.counts[key]
counts["serve_warm.requests"] = recorder.attempted
counts["serve_warm.failed"] = recorder.failed + recorder.wrong

from store_scale import StoreScale

workdir = tempfile.mkdtemp(prefix="work-counts-")
scale = StoreScale(seed={SEED}, workdir=workdir, base_facts={STORE_BASE_FACTS})
scale.setup()
recorder = Recorder()
tracer = Tracer()
tracer.install()
try:
    scale.run_round(recorder, limit={STORE_OPERATIONS})
finally:
    tracer.uninstall()
    scale.teardown()
    shutil.rmtree(workdir, ignore_errors=True)
for key in {STORE_KEYS!r}:
    counts["store_scale." + key] = tracer.counts[key]
counts["store_scale.requests"] = recorder.attempted
counts["store_scale.failed"] = recorder.failed
""" + _PRINT


def measure(script: str = _SCRIPT) -> dict:
    """The work counts of *script* (by default every slice), from a fresh
    interpreter."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "perfbench")]
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_work_counts_match_record():
    counts = measure()
    assert counts["requests"] == REQUESTS
    assert counts["failed"] == 0
    assert counts["serve_warm.failed"] == 0
    assert counts["store_scale.requests"] == STORE_OPERATIONS
    assert counts["store_scale.failed"] == 0
    assert counts == json.loads(FIXTURE.read_text())


def test_extra_plan_execution_fails_the_guard():
    """One extra plan execution per guard check shows in the plan counts
    alone: the searches, their store work and their verdicts are those
    of the recorded run."""
    recorded = json.loads(FIXTURE.read_text())
    counts = measure(_INJECT_EXTRA_EXECUTION + _DECIDE_COLD + _PRINT)
    assert counts["requests"] == REQUESTS
    assert counts["failed"] == 0
    for key in KEYS:
        assert counts[key] == recorded[key], key
    assert counts != {key: recorded[key] for key in counts}
    extra = sum(counts[key] - recorded[key] for key in PLAN_KEYS)
    assert extra > 0


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(measure(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
