"""Determinism of the parallel Lemma 4.9 chain checking.

The process-pool fan-out (:mod:`repro.store.parallel`) must be invisible
in the results: for every automaton, ``automaton_emptiness`` returns a
bit-identical :class:`~repro.automata.emptiness.EmptinessResult` with
``parallel=True`` and ``parallel=False`` — verdict, witness, exploration
counters and all.  The fallback paths (no pool, single chain) must be
equally invisible.

Every chain runs the one witness search: ``subtree_parallel=True`` is
accepted and ignored, so it returns the plain search's result on every
field, pooled or not.
"""

from __future__ import annotations

import pytest

from repro.automata.emptiness import automaton_emptiness, check_restriction
from repro.automata.library import containment_automaton, ltr_automaton
from repro.automata.operations import union_automaton
from repro.automata.progressive import chain_restrictions
from repro.automata.run import accepts_path
from repro.core.solver import AccLTLSolver
from repro.store import parallel as parallel_module
from repro.store import workqueue as workqueue_module
from repro.workloads.directory import (
    directory_access_schema,
    join_query,
    resident_names_query,
)
from repro.workloads.generators import WorkloadGenerator
from repro.workloads.scenarios import standard_scenarios


def _result_fields(result):
    return (
        result.empty,
        result.witness,
        result.exhausted,
        result.paths_explored,
        result.chains_checked,
    )


def _multi_chain_automaton(vocabulary, empty_language: bool):
    """A union automaton whose condensation has several chains."""
    scenario = next(s for s in standard_scenarios() if s.name == "directory")
    ltr = ltr_automaton(vocabulary, scenario.probe_access, scenario.query_one)
    if empty_language:
        containment = containment_automaton(
            vocabulary, join_query(), resident_names_query(), grounded=False
        )
    else:
        containment = containment_automaton(
            vocabulary, resident_names_query(), join_query(), grounded=False
        )
    return union_automaton(containment, ltr)


@pytest.fixture(scope="module")
def vocabulary():
    return AccLTLSolver(directory_access_schema()).vocabulary


class TestParallelMatchesSequential:
    @pytest.mark.parametrize("empty_language", [True, False])
    def test_bit_identical_results(self, vocabulary, empty_language):
        automaton = _multi_chain_automaton(vocabulary, empty_language)
        assert len(chain_restrictions(automaton.trim())) > 1
        kwargs = dict(max_paths=4000, use_datalog_precheck=False)
        sequential = automaton_emptiness(
            automaton, vocabulary, parallel=False, **kwargs
        )
        # max_workers=2 forces a real process pool even on one-core boxes,
        # so this test genuinely exercises cross-process pickling.
        parallel = automaton_emptiness(
            automaton, vocabulary, parallel=True, max_workers=2, **kwargs
        )
        assert _result_fields(sequential) == _result_fields(parallel)
        if sequential.witness is not None:
            assert accepts_path(automaton, vocabulary, sequential.witness)

    def test_bit_identical_with_precheck(self, vocabulary):
        automaton = _multi_chain_automaton(vocabulary, empty_language=True)
        sequential = automaton_emptiness(
            automaton, vocabulary, parallel=False, max_paths=4000
        )
        parallel = automaton_emptiness(
            automaton, vocabulary, parallel=True, max_workers=2, max_paths=4000
        )
        assert _result_fields(sequential) == _result_fields(parallel)

    def test_single_chain_skips_the_pool(self, vocabulary):
        scenario = next(s for s in standard_scenarios() if s.name == "directory-jones")
        voc = AccLTLSolver(scenario.access_schema).vocabulary
        automaton = ltr_automaton(voc, scenario.probe_access, scenario.query_one)
        sequential = automaton_emptiness(
            automaton, voc, parallel=False, max_paths=4000
        )
        parallel = automaton_emptiness(automaton, voc, parallel=True, max_paths=4000)
        assert _result_fields(sequential) == _result_fields(parallel)


class TestSequentialFallback:
    def test_pool_failure_falls_back_to_sequential(self, vocabulary, monkeypatch):
        class _BrokenPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no process pool in this environment")

        monkeypatch.setattr(workqueue_module, "ProcessPoolExecutor", _BrokenPool)
        monkeypatch.setattr(workqueue_module, "_POOL", None)
        monkeypatch.setattr(workqueue_module, "_POOL_WORKERS", 0)
        automaton = _multi_chain_automaton(vocabulary, empty_language=True)
        kwargs = dict(max_paths=3000, use_datalog_precheck=False)
        fallback = automaton_emptiness(
            automaton, vocabulary, parallel=True, max_workers=2, **kwargs
        )
        sequential = automaton_emptiness(
            automaton, vocabulary, parallel=False, **kwargs
        )
        assert _result_fields(fallback) == _result_fields(sequential)

    def test_pool_failure_in_subtree_mode_falls_back(self, vocabulary, monkeypatch):
        class _BrokenPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no process pool in this environment")

        monkeypatch.setattr(workqueue_module, "ProcessPoolExecutor", _BrokenPool)
        monkeypatch.setattr(workqueue_module, "_POOL", None)
        monkeypatch.setattr(workqueue_module, "_POOL_WORKERS", 0)
        automaton = _multi_chain_automaton(vocabulary, empty_language=True)
        kwargs = dict(max_paths=800, use_datalog_precheck=False, memoize=False)
        fallback = automaton_emptiness(
            automaton,
            vocabulary,
            parallel=True,
            subtree_parallel=True,
            max_workers=2,
            **kwargs,
        )
        sequential = automaton_emptiness(
            automaton, vocabulary, parallel=False, **kwargs
        )
        assert _result_fields(fallback) == _result_fields(sequential)

    def test_env_toggle_controls_default(self, vocabulary, monkeypatch):
        monkeypatch.delenv(parallel_module.PARALLEL_CHAINS_ENV, raising=False)
        assert parallel_module.parallel_chains_enabled() is False
        monkeypatch.setenv(parallel_module.PARALLEL_CHAINS_ENV, "1")
        assert parallel_module.parallel_chains_enabled() is True
        monkeypatch.setenv(parallel_module.PARALLEL_CHAINS_ENV, "off")
        assert parallel_module.parallel_chains_enabled() is False


class TestParallelChainsEnvParsing:
    """``REPRO_PARALLEL_CHAINS`` value parsing, case by case."""

    @pytest.mark.parametrize(
        "value",
        ["0", "false", "False", "FALSE", "no", "No", "off", "OFF", "", "  ", " 0 "],
    )
    def test_disabling_values(self, monkeypatch, value):
        monkeypatch.setenv(parallel_module.PARALLEL_CHAINS_ENV, value)
        assert parallel_module.parallel_chains_enabled() is False

    @pytest.mark.parametrize("value", ["1", "true", "True", "yes", "on", "2", " 1 "])
    def test_enabling_values(self, monkeypatch, value):
        monkeypatch.setenv(parallel_module.PARALLEL_CHAINS_ENV, value)
        assert parallel_module.parallel_chains_enabled() is True

    def test_unset_disables(self, monkeypatch):
        monkeypatch.delenv(parallel_module.PARALLEL_CHAINS_ENV, raising=False)
        assert parallel_module.parallel_chains_enabled() is False

    def test_zero_verifiably_bypasses_the_pool(self, vocabulary, monkeypatch):
        # With REPRO_PARALLEL_CHAINS=0 and parallel=None, the emptiness
        # pipeline must stay on the in-process loop: the pool fan-out is
        # rigged to explode if touched.
        monkeypatch.setenv(parallel_module.PARALLEL_CHAINS_ENV, "0")

        def _explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("process pool used despite REPRO_PARALLEL_CHAINS=0")

        monkeypatch.setattr(parallel_module, "map_chain_outcomes", _explode)
        automaton = _multi_chain_automaton(vocabulary, empty_language=True)
        result = automaton_emptiness(
            automaton, vocabulary, max_paths=1500, use_datalog_precheck=False
        )
        assert result.chains_checked >= 1


class TestWorkerUnit:
    def test_check_restriction_matches_inline_fold(self, vocabulary):
        """The worker unit itself is the sequential unit (shared code)."""
        automaton = _multi_chain_automaton(vocabulary, empty_language=True).trim()
        restrictions = chain_restrictions(automaton)
        kwargs = dict(
            max_length=4,
            max_response_size=2,
            max_paths=1500,
            fact_pool=None,
            value_pool=None,
            grounded_only=False,
            memoize=True,
        )
        initial = vocabulary.access_schema.empty_instance()
        outcomes = [
            check_restriction(r, vocabulary, initial, kwargs, True)
            for r in restrictions
        ]
        assert len(outcomes) == len(restrictions)
        for outcome in outcomes:
            assert outcome.explored >= 0


class TestSubtreeMatchesSequential:
    """Sequential / chain-parallel / subtree-parallel mode agreement."""

    @pytest.mark.parametrize("empty_language", [True, False])
    def test_full_field_equality_memoize_off(self, vocabulary, empty_language):
        """With memoize=False all modes agree on every field."""
        automaton = _multi_chain_automaton(vocabulary, empty_language)
        kwargs = dict(max_paths=1200, use_datalog_precheck=False, memoize=False)
        sequential = automaton_emptiness(
            automaton, vocabulary, parallel=False, **kwargs
        )
        chain_parallel = automaton_emptiness(
            automaton, vocabulary, parallel=True, max_workers=2, **kwargs
        )
        subtree_inprocess = automaton_emptiness(
            automaton, vocabulary, parallel=False, subtree_parallel=True, **kwargs
        )
        subtree_pooled = automaton_emptiness(
            automaton,
            vocabulary,
            parallel=True,
            subtree_parallel=True,
            max_workers=2,
            **kwargs,
        )
        reference = _result_fields(sequential)
        assert _result_fields(chain_parallel) == reference
        assert _result_fields(subtree_inprocess) == reference
        assert _result_fields(subtree_pooled) == reference
        if sequential.witness is not None:
            assert accepts_path(automaton, vocabulary, sequential.witness)

    @pytest.mark.parametrize("empty_language", [True, False])
    def test_verdict_equality_memoized(self, vocabulary, empty_language):
        """With the memo on, the modes agree on every field too."""
        automaton = _multi_chain_automaton(vocabulary, empty_language)
        kwargs = dict(max_paths=1500, use_datalog_precheck=False)
        sequential = automaton_emptiness(
            automaton, vocabulary, parallel=False, **kwargs
        )
        subtree = automaton_emptiness(
            automaton, vocabulary, parallel=False, subtree_parallel=True, **kwargs
        )
        assert _result_fields(subtree) == _result_fields(sequential)

    def test_memoized_boundary_abort_is_identical(self, vocabulary):
        """At the ``max_paths`` boundary the modes still agree on every field.

        A cap equal to the paths the memoised search needs to exhaust
        this automaton lets it finish; one less stops it one path short,
        undecided, in every mode alike.
        """
        automaton = containment_automaton(
            vocabulary, join_query(), resident_names_query(), grounded=False
        )
        needed = automaton_emptiness(
            automaton, vocabulary, parallel=False, use_datalog_precheck=False
        ).paths_explored
        for max_paths, exhausted in ((needed, True), (needed - 1, False)):
            kwargs = dict(max_paths=max_paths, use_datalog_precheck=False)
            sequential = automaton_emptiness(
                automaton, vocabulary, parallel=False, **kwargs
            )
            inprocess = automaton_emptiness(
                automaton, vocabulary, parallel=False, subtree_parallel=True, **kwargs
            )
            pooled = automaton_emptiness(
                automaton,
                vocabulary,
                parallel=True,
                subtree_parallel=True,
                max_workers=2,
                **kwargs,
            )
            assert sequential.empty and sequential.exhausted == exhausted
            assert sequential.paths_explored == needed
            assert _result_fields(inprocess) == _result_fields(sequential)
            assert _result_fields(pooled) == _result_fields(sequential)


class TestRandomizedDeterminism:
    """Randomised workloads: field-by-field mode agreement (memoize=False)."""

    @staticmethod
    def _random_automaton(seed: int):
        generator = WorkloadGenerator(seed=seed)
        access_schema = generator.access_schema(
            num_relations=2, methods_per_relation=2, max_inputs=1
        )
        vocabulary = AccLTLSolver(access_schema).vocabulary
        q1 = generator.conjunctive_query(
            access_schema.schema, num_atoms=2, num_variables=3
        )
        q2 = generator.conjunctive_query(
            access_schema.schema, num_atoms=2, num_variables=3
        )
        return containment_automaton(vocabulary, q1, q2, grounded=False), vocabulary

    @pytest.mark.parametrize("seed", range(6))
    def test_modes_agree_field_by_field(self, seed):
        automaton, vocabulary = self._random_automaton(seed)
        kwargs = dict(max_paths=250, use_datalog_precheck=False, memoize=False)
        sequential = automaton_emptiness(
            automaton, vocabulary, parallel=False, **kwargs
        )
        subtree = automaton_emptiness(
            automaton, vocabulary, parallel=False, subtree_parallel=True, **kwargs
        )
        assert _result_fields(subtree) == _result_fields(sequential)
        if seed % 3 == 0:
            # Exercise the real pool on a subset (pool dispatch is slow
            # on single-core CI boxes; the in-process decomposition above
            # is already the same code modulo placement).
            pooled = automaton_emptiness(
                automaton,
                vocabulary,
                parallel=True,
                subtree_parallel=True,
                max_workers=2,
                **kwargs,
            )
            assert _result_fields(pooled) == _result_fields(sequential)

    @pytest.mark.parametrize("seed", range(3))
    def test_memoized_verdicts_agree(self, seed):
        automaton, vocabulary = self._random_automaton(seed)
        kwargs = dict(max_paths=250, use_datalog_precheck=False)
        sequential = automaton_emptiness(
            automaton, vocabulary, parallel=False, **kwargs
        )
        subtree = automaton_emptiness(
            automaton, vocabulary, parallel=False, subtree_parallel=True, **kwargs
        )
        assert _result_fields(subtree) == _result_fields(sequential)


class TestCostGate:
    """Dispatch gating: parallel=True must never pay for a losing pool."""

    @staticmethod
    def _spy_pool(monkeypatch):
        calls = []

        def record(workers):
            calls.append(workers)
            raise RuntimeError("pool intentionally unavailable in this test")

        monkeypatch.setattr(workqueue_module, "shared_pool", record)
        return calls

    def test_single_cpu_blocks_dispatch(self, vocabulary, monkeypatch):
        monkeypatch.setattr(parallel_module, "available_cpus", lambda: 1)
        calls = self._spy_pool(monkeypatch)
        automaton = _multi_chain_automaton(vocabulary, empty_language=True)
        kwargs = dict(max_paths=2000, use_datalog_precheck=False)
        gated = automaton_emptiness(automaton, vocabulary, parallel=True, **kwargs)
        assert calls == []
        sequential = automaton_emptiness(
            automaton, vocabulary, parallel=False, **kwargs
        )
        assert _result_fields(gated) == _result_fields(sequential)

    def test_small_workload_blocks_dispatch_even_multicore(
        self, vocabulary, monkeypatch
    ):
        monkeypatch.setattr(parallel_module, "available_cpus", lambda: 8)
        calls = self._spy_pool(monkeypatch)
        automaton = _multi_chain_automaton(vocabulary, empty_language=True)
        # max_paths=3: estimated cost is far below the dispatch floor.
        kwargs = dict(max_paths=3, use_datalog_precheck=False)
        gated = automaton_emptiness(automaton, vocabulary, parallel=True, **kwargs)
        assert calls == []
        sequential = automaton_emptiness(
            automaton, vocabulary, parallel=False, **kwargs
        )
        assert _result_fields(gated) == _result_fields(sequential)

    def test_large_workload_dispatches_on_multicore(self, vocabulary, monkeypatch):
        monkeypatch.setattr(parallel_module, "available_cpus", lambda: 8)
        calls = self._spy_pool(monkeypatch)
        # Two copies of the multi-chain union: four chains of the quotient,
        # whose estimated cost clears the default dispatch floor.
        branch = _multi_chain_automaton(vocabulary, empty_language=True)
        automaton = union_automaton(branch, branch)
        assert len(chain_restrictions(automaton.minimise())) == 4
        kwargs = dict(max_paths=2000, use_datalog_precheck=False)
        result = automaton_emptiness(automaton, vocabulary, parallel=True, **kwargs)
        # The gate opened (pool requested); the rigged pool failure then
        # fell back to the sequential loop without changing the result.
        assert calls
        sequential = automaton_emptiness(
            automaton, vocabulary, parallel=False, **kwargs
        )
        assert _result_fields(result) == _result_fields(sequential)

    def test_explicit_max_workers_overrides_gate(self, vocabulary, monkeypatch):
        monkeypatch.setattr(parallel_module, "available_cpus", lambda: 1)
        calls = self._spy_pool(monkeypatch)
        automaton = _multi_chain_automaton(vocabulary, empty_language=True)
        kwargs = dict(max_paths=3, use_datalog_precheck=False)
        automaton_emptiness(
            automaton, vocabulary, parallel=True, max_workers=2, **kwargs
        )
        assert calls  # explicit worker count forces dispatch

    def test_min_cost_env_override(self, vocabulary, monkeypatch):
        monkeypatch.setattr(parallel_module, "available_cpus", lambda: 8)
        monkeypatch.setenv(parallel_module.PARALLEL_MIN_COST_ENV, "1")
        calls = self._spy_pool(monkeypatch)
        automaton = _multi_chain_automaton(vocabulary, empty_language=True)
        kwargs = dict(max_paths=3, use_datalog_precheck=False)
        automaton_emptiness(automaton, vocabulary, parallel=True, **kwargs)
        assert calls  # the lowered floor lets the tiny workload through

    def test_cost_estimate_is_deterministic(self, vocabulary):
        automaton = _multi_chain_automaton(vocabulary, empty_language=True).trim()
        restrictions = chain_restrictions(automaton)
        kwargs = {"max_paths": 1234}
        costs = [
            parallel_module.estimate_chain_cost(r, kwargs) for r in restrictions
        ]
        assert costs == [
            parallel_module.estimate_chain_cost(r, kwargs) for r in restrictions
        ]
        assert all(cost > 0 for cost in costs)

    def test_min_cost_env(self, monkeypatch):
        monkeypatch.delenv(parallel_module.PARALLEL_MIN_COST_ENV, raising=False)
        assert (
            parallel_module.min_dispatch_cost()
            == parallel_module.DEFAULT_MIN_DISPATCH_COST
        )
        monkeypatch.setenv(parallel_module.PARALLEL_MIN_COST_ENV, "42")
        assert parallel_module.min_dispatch_cost() == 42
        monkeypatch.setenv(parallel_module.PARALLEL_MIN_COST_ENV, "-5")
        assert (
            parallel_module.min_dispatch_cost()
            == parallel_module.DEFAULT_MIN_DISPATCH_COST
        )


class TestWorkerSizing:
    """Every pooled caller sizes the shared pool with the one rule."""

    def test_mixed_callers_never_rebuild_the_pool(self, vocabulary, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        from repro.engine import DecisionEngine, emptiness_task

        built, submitted = [], []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

            def submit(self, *args, **kwargs):
                submitted.append(args[1])  # the item's fault point
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(parallel_module, "available_cpus", lambda: 2)
        monkeypatch.setenv(parallel_module.PARALLEL_MIN_COST_ENV, "0")
        monkeypatch.setattr(workqueue_module, "ProcessPoolExecutor", CountingPool)
        workqueue_module.discard_shared_pool()
        try:
            automaton = _multi_chain_automaton(vocabulary, empty_language=True)
            kwargs = dict(max_paths=300, use_datalog_precheck=False, memoize=False)
            automaton_emptiness(automaton, vocabulary, parallel=True, **kwargs)
            assert "chain" in submitted
            del submitted[:]
            engine = DecisionEngine(parallel=True)
            engine.run_batch(
                [
                    emptiness_task(
                        automaton,
                        vocabulary,
                        max_paths=paths,
                        use_datalog_precheck=False,
                    )
                    for paths in (200, 300)
                ]
            )
            assert submitted == ["task", "task"]
            assert built == [2]
        finally:
            workqueue_module.discard_shared_pool()
