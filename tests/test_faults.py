"""Fault-injection suite: scripted worker failures never change verdicts.

Drives the ``REPRO_FAULT_INJECT`` harness (:mod:`repro.store.faults`)
against real process pools at the worker entry point of pooled engine
reductions (``task``) and asserts two things for every scripted kill,
delay, corruption and transient failure:

* the final result is field-identical to the fault-free sequential
  oracle (the robustness guarantee of PR 6's retrying dispatch), and
* the failure is *visible*: the matching ``pool_*`` counter lands in the
  result stats or engine stats rather than being swallowed.

Forked workers inherit the environment, so the pool fixtures discard the
shared pool before (fresh workers see the spec) and after (later tests
never reuse poisoned workers) each case.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.core.solver import AccLTLSolver
from repro.engine import DecisionEngine, bounded_check_task, emptiness_task
from repro.store import faults
from repro.store import workqueue as workqueue_module
from repro.store.faults import (
    FAULT_INJECT_ENV,
    Fault,
    FaultPlan,
    parse_fault_spec,
)
from repro.workloads.scenarios import standard_scenarios


@pytest.fixture(autouse=True)
def _clean_fault_state():
    """No plan leaks between tests; no poisoned pool outlives its test."""
    faults.clear()
    yield
    faults.clear()
    workqueue_module.discard_shared_pool()


# ---------------------------------------------------------------------------
# Spec parsing and plan bookkeeping
# ---------------------------------------------------------------------------
class TestFaultSpec:
    def test_parse_full_spec(self):
        plan = parse_fault_spec("kill@task:2,delay@task:0:0.2, raise@task:1")
        assert plan == (
            Fault("kill", "task", 2),
            Fault("delay", "task", 0, 0.2),
            Fault("raise", "task", 1),
        )

    def test_parse_rejects_malformed_entries(self):
        for bad in ("kill", "kill@", "explode@task:0", "kill@nowhere:0",
                    "kill@subtree:0", "kill@chain:0", "kill@task:-1",
                    "kill@task:x"):
            with pytest.raises(ValueError):
                parse_fault_spec(bad)

    def test_plan_counters_are_per_point(self):
        plan = FaultPlan(parse_fault_spec("raise@task:1,trip@torn_write:0"))
        assert plan.next_fault("task") is None  # hit 0
        assert plan.next_fault("torn_write").action == "trip"  # hit 0
        assert plan.next_fault("task").action == "raise"  # hit 1
        assert plan.next_fault("task") is None  # hit 2
        assert plan.next_fault("torn_write") is None  # hit 1

    def test_install_and_clear(self):
        plan = faults.install("raise@task:0")
        assert faults.active_plan() is plan
        faults.clear()
        assert faults.active_plan() is None

    def test_env_plan_is_cached_per_raw_string(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "raise@task:5")
        first = faults.active_plan()
        assert first is faults.active_plan()  # same raw string, same plan
        monkeypatch.setenv(FAULT_INJECT_ENV, "raise@task:6")
        assert faults.active_plan() is not first  # fresh plan + counters

    def test_malformed_env_spec_disables_injection(self, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "not-a-spec")
        plan = faults.active_plan()
        assert plan is not None and plan.faults == ()
        faults.fire("task")  # must be a no-op, not an exception


class TestFireInProcess:
    def test_no_plan_is_a_noop(self):
        faults.fire("task")

    def test_corrupt_raises_unpickling_error(self):
        faults.install("corrupt@task:0")
        with pytest.raises(pickle.UnpicklingError):
            faults.fire("task")
        faults.fire("task")  # index 0 consumed: later hits pass

    def test_raise_raises_runtime_error(self):
        faults.install("raise@task:1")
        faults.fire("task")
        with pytest.raises(RuntimeError, match="scripted transient"):
            faults.fire("task")

    def test_delay_sleeps_for_arg_seconds(self):
        faults.install("delay@task:0:0.05")
        start = time.perf_counter()
        faults.fire("task")
        assert time.perf_counter() - start >= 0.05


# ---------------------------------------------------------------------------
# Real-pool injection: engine reduction tasks
# ---------------------------------------------------------------------------
def _bounded_tasks(count=2):
    from repro.core import properties
    from repro.core.bounded_check import Bounds

    scenario = next(s for s in standard_scenarios() if s.name == "directory")
    vocabulary = AccLTLSolver(scenario.access_schema).vocabulary
    tasks = []
    for length in range(2, 2 + count):
        formula = properties.ltr_formula(
            vocabulary, scenario.probe_access, scenario.query_one
        )
        bounds = Bounds(max_path_length=length, max_paths=500)
        tasks.append(bounded_check_task(vocabulary, formula, bounds))
    return tasks


def _emptiness_tasks(empty_language: bool):
    """Two emptiness tasks over a union automaton with several chains."""
    from repro.automata.library import containment_automaton, ltr_automaton
    from repro.automata.operations import union_automaton
    from repro.workloads.directory import join_query, resident_names_query

    scenario = next(s for s in standard_scenarios() if s.name == "directory")
    vocabulary = AccLTLSolver(scenario.access_schema).vocabulary
    queries = (join_query(), resident_names_query())
    if not empty_language:
        queries = queries[::-1]
    automaton = union_automaton(
        containment_automaton(vocabulary, *queries, grounded=False),
        ltr_automaton(vocabulary, scenario.probe_access, scenario.query_one),
    )
    return [
        emptiness_task(
            automaton,
            vocabulary,
            max_paths=max_paths,
            use_datalog_precheck=False,
            memoize=False,
        )
        for max_paths in (1200, 1201)
    ]


class TestEngineTaskFaults:
    def _oracle_values(self):
        return [r.value for r in DecisionEngine(parallel=False).run_batch(_bounded_tasks())]

    @pytest.mark.parametrize("spec", ["kill@task:0", "corrupt@task:0",
                                      "raise@task:0"])
    @pytest.mark.parametrize("empty_language", [True, False])
    def test_task_fault_never_changes_the_verdict(
        self, monkeypatch, spec, empty_language
    ):
        tasks = _emptiness_tasks(empty_language)
        oracle = [r.value for r in DecisionEngine(parallel=False).run_batch(tasks)]
        monkeypatch.setenv(FAULT_INJECT_ENV, spec)
        workqueue_module.discard_shared_pool()  # fork workers with the spec
        engine = DecisionEngine(max_workers=2)
        results = engine.run_batch(tasks)
        assert [r.value for r in results] == oracle
        # the failure is visible, not swallowed: every fresh worker fails
        # the first task it sees, so at least one task falls back in
        # process, counted in the engine stats
        assert engine.stats()["pool_inprocess_fallbacks"] >= 1

    def test_transient_failure_is_retried_to_success(self, monkeypatch):
        oracle = self._oracle_values()
        # index 1: the single worker completes task 0 (hit 0) and raises
        # on task 1 (hit 1); the retry resubmits task 1 to a rebuilt pool
        # whose fresh worker is at hit 0 again — so the retry succeeds
        monkeypatch.setenv(FAULT_INJECT_ENV, "raise@task:1")
        workqueue_module.discard_shared_pool()
        engine = DecisionEngine(max_workers=1)
        results = engine.run_batch(_bounded_tasks())
        assert [r.value for r in results] == oracle
        stats = engine.stats()
        assert stats["pool_worker_failures"] >= 1
        assert stats["pool_retries"] >= 1
        assert "pooled_retry" in {r.provenance for r in results}

    def test_worker_kill_falls_back_in_process(self, monkeypatch):
        oracle = self._oracle_values()
        # every freshly forked worker re-arms kill@task:0, so retries die
        # too and the coordinator must finish the work in-process
        monkeypatch.setenv(FAULT_INJECT_ENV, "kill@task:0")
        workqueue_module.discard_shared_pool()
        engine = DecisionEngine(max_workers=1)
        results = engine.run_batch(_bounded_tasks())
        assert [r.value for r in results] == oracle
        stats = engine.stats()
        assert stats["pool_worker_failures"] >= 1
        assert stats["pool_inprocess_fallbacks"] >= 1

    def test_stalled_worker_trips_item_timeout(self, monkeypatch):
        oracle = self._oracle_values()
        monkeypatch.setenv(FAULT_INJECT_ENV, "delay@task:0:1.5")
        monkeypatch.setenv(workqueue_module.POOL_ITEM_TIMEOUT_ENV, "0.1")
        workqueue_module.discard_shared_pool()
        engine = DecisionEngine(max_workers=1)
        results = engine.run_batch(_bounded_tasks())
        assert [r.value for r in results] == oracle
        stats = engine.stats()
        assert stats["pool_timeouts"] >= 1
        assert stats["pool_inprocess_fallbacks"] >= 1


# ---------------------------------------------------------------------------
# Environment-variable validation is loud, never silent
# ---------------------------------------------------------------------------
class TestEnvWarnings:
    @pytest.fixture(autouse=True)
    def _fresh_warning_state(self, monkeypatch):
        from repro.obs import env as envknobs_module

        monkeypatch.setattr(envknobs_module, "_ENV_WARNED", set())

    def test_invalid_retry_limit_warns_once_and_uses_default(self, monkeypatch):
        monkeypatch.setenv(workqueue_module.POOL_RETRIES_ENV, "many")
        with pytest.warns(RuntimeWarning, match=workqueue_module.POOL_RETRIES_ENV):
            assert (
                workqueue_module.pool_retry_limit()
                == workqueue_module.DEFAULT_POOL_RETRIES
            )
        # second read: same invalid value, no second warning
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            workqueue_module.pool_retry_limit()

    def test_invalid_item_timeout_warns_and_disables(self, monkeypatch):
        monkeypatch.setenv(workqueue_module.POOL_ITEM_TIMEOUT_ENV, "soon")
        with pytest.warns(
            RuntimeWarning, match=workqueue_module.POOL_ITEM_TIMEOUT_ENV
        ):
            assert workqueue_module.pool_item_timeout() is None

    def test_negative_retry_limit_is_rejected(self, monkeypatch):
        monkeypatch.setenv(workqueue_module.POOL_RETRIES_ENV, "-3")
        with pytest.warns(RuntimeWarning):
            assert (
                workqueue_module.pool_retry_limit()
                == workqueue_module.DEFAULT_POOL_RETRIES
            )
