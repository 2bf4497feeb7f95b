"""Determinism of the parallel Lemma 4.9 chain checking.

The process-pool fan-out (:mod:`repro.store.parallel`) must be invisible
in the results: for every automaton, ``automaton_emptiness`` returns a
bit-identical :class:`~repro.automata.emptiness.EmptinessResult` with
``parallel=True`` and ``parallel=False`` — verdict, witness, exploration
counters and all.  The fallback paths (no pool, single chain) must be
equally invisible.

The same contract extends to the intra-chain subtree decomposition
(:mod:`repro.store.workqueue`): ``subtree_parallel=True`` returns
identical results whether items run pooled or in-process, agrees with
the plain search on verdict/witness/exhaustiveness always, and agrees on
*every* field (including ``paths_explored``) under ``memoize=False``,
where the scope-local expansion memos make exploration counts additive
over subtrees.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro.automata import emptiness as emptiness_module
from repro.automata.emptiness import (
    SubtreeItem,
    automaton_emptiness,
    check_restriction,
)
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
        """With memoize=False all three modes agree on every field.

        The expansion memo is the one scope-dependent layer of the
        search; without it, exploration counts are additive over
        subtrees, so the subtree decomposition reproduces the sequential
        counters exactly — in-process and pooled alike.
        """
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
        """Memoised subtree mode: verdicts coincide away from the cap.

        The expansion memo is scope-local (per subtree), so the
        decomposed search explores more than the globally memoised
        sequential search when transpositions cross subtree boundaries.
        Away from the ``max_paths`` boundary (here: both runs abort, or
        neither does) verdict, witness and exhausted coincide; the
        boundary itself is pinned in
        ``test_memoized_boundary_abort_is_sound_not_identical``.
        """
        automaton = _multi_chain_automaton(vocabulary, empty_language)
        kwargs = dict(max_paths=1500, use_datalog_precheck=False)
        sequential = automaton_emptiness(
            automaton, vocabulary, parallel=False, **kwargs
        )
        subtree = automaton_emptiness(
            automaton, vocabulary, parallel=False, subtree_parallel=True, **kwargs
        )
        assert (subtree.empty, subtree.witness, subtree.exhausted) == (
            sequential.empty,
            sequential.witness,
            sequential.exhausted,
        )

    def test_memoized_boundary_abort_is_sound_not_identical(self, vocabulary):
        """At the ``max_paths`` boundary, memoised subtree mode is sound.

        The scope-local memos prune less, so the decomposed search can
        hit the cap where the globally memoised sequential search
        finished exhaustively.  The documented contract: the decomposed
        result is then *less conclusive* (``exhausted=False``), never
        *wrong* — it must not claim exhaustion, and it must stay
        deterministic (pooled == in-process).  ``memoize=False`` on the
        same workload restores full field equality.
        """
        automaton = containment_automaton(
            vocabulary, join_query(), resident_names_query(), grounded=False
        )
        kwargs = dict(max_paths=500, use_datalog_precheck=False)
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
        # Deterministic across placements...
        assert _result_fields(inprocess) == _result_fields(pooled)
        # ...and sound versus the plain search: same emptiness verdict
        # here, and exhaustion is only ever claimed when the plain
        # search claims it too (the decomposition may be the less
        # conclusive side, never the overclaiming one).
        assert inprocess.empty == sequential.empty
        if inprocess.exhausted:
            assert sequential.exhausted
        # With the cap out of the picture the fields align exactly.
        exact = dict(kwargs, max_paths=100000, memoize=False)
        assert _result_fields(
            automaton_emptiness(
                automaton, vocabulary, parallel=False, subtree_parallel=True, **exact
            )
        ) == _result_fields(
            automaton_emptiness(automaton, vocabulary, parallel=False, **exact)
        )

    def test_resplit_budget_preserves_results(self, vocabulary):
        """A tiny split budget forces the overflow/re-split protocol.

        Re-splitting is a pure function of ``(item, budget)``, so pooled
        and in-process execution still agree with each other and with
        the plain sequential search (memoize=False: on every field).
        """
        automaton = _multi_chain_automaton(vocabulary, empty_language=True)
        kwargs = dict(max_paths=700, use_datalog_precheck=False, memoize=False)
        sequential = automaton_emptiness(
            automaton, vocabulary, parallel=False, **kwargs
        )
        inprocess = automaton_emptiness(
            automaton,
            vocabulary,
            parallel=False,
            subtree_parallel=True,
            split_budget=25,
            **kwargs,
        )
        pooled = automaton_emptiness(
            automaton,
            vocabulary,
            parallel=True,
            subtree_parallel=True,
            max_workers=2,
            split_budget=25,
            **kwargs,
        )
        assert _result_fields(inprocess) == _result_fields(sequential)
        assert _result_fields(pooled) == _result_fields(sequential)
        assert (inprocess.stats or {}).get("subtree_overflows", 0) > 0

    def test_single_chain_subtree_dispatch(self, vocabulary):
        """Subtree mode parallelises even a single-chain automaton."""
        scenario = next(s for s in standard_scenarios() if s.name == "directory")
        voc = AccLTLSolver(scenario.access_schema).vocabulary
        full = ltr_automaton(voc, scenario.probe_access, scenario.query_one)
        # One chain restriction *is* a single-chain automaton — the shape
        # whole-chain parallelism cannot split but subtree mode can.
        automaton = chain_restrictions(full.trim())[0]
        assert len(chain_restrictions(automaton.trim())) == 1
        kwargs = dict(max_paths=2000, use_datalog_precheck=False, memoize=False)
        sequential = automaton_emptiness(automaton, voc, parallel=False, **kwargs)
        pooled = automaton_emptiness(
            automaton,
            voc,
            parallel=True,
            subtree_parallel=True,
            max_workers=2,
            **kwargs,
        )
        assert _result_fields(pooled) == _result_fields(sequential)
        assert (pooled.stats or {}).get("subtree_items", 0) > 0


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
        assert (subtree.empty, subtree.witness, subtree.exhausted) == (
            sequential.empty,
            sequential.witness,
            sequential.exhausted,
        )


def _harvest_items(vocabulary):
    """A real search plus a few exported work items from its trunk."""
    scenario = next(s for s in standard_scenarios() if s.name == "directory")
    voc = AccLTLSolver(scenario.access_schema).vocabulary
    automaton = ltr_automaton(
        voc, scenario.probe_access, scenario.query_one
    ).trim()
    initial = voc.access_schema.empty_instance()
    search = emptiness_module._WitnessSearch(
        automaton,
        voc,
        initial,
        max_length=4,
        max_response_size=2,
        max_paths=2000,
        grounded_only=False,
        memoize=False,
    )
    expansion = search.run_round_exporting(3)
    assert expansion.records, "expected the trunk to export work items"
    payload = (automaton, voc, search.initial_snapshot, search.params())
    return search, [record.item for record in expansion.records], payload


class TestWorkItemShipping:
    """Subtree work items survive pickling — under fork *and* spawn.

    Spawn is the adversarial case: the child process has a different
    hash seed, so anything that serialises hash-dependent layout (a raw
    HAMT trie, a dict order) would rebuild differently.  Snapshots
    pickle as fact lists by construction, which these tests verify end
    to end through the real worker entry point.
    """

    def test_plain_pickle_round_trip(self, vocabulary):
        _, items, _ = _harvest_items(vocabulary)
        for item in items[:5]:
            clone = pickle.loads(pickle.dumps(item))
            assert clone.states == item.states
            assert clone.known == item.known
            assert clone.budget == item.budget
            assert clone.snapshot == item.snapshot  # exact structural equality

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_worker_round_trip_matches_inprocess(self, vocabulary, start_method):
        from concurrent.futures import ProcessPoolExecutor

        search, items, payload = _harvest_items(vocabulary)
        item = items[0]
        reference = search.run_subtree(item, 10**6)
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        token = workqueue_module._next_context_token()
        context = multiprocessing.get_context(start_method)
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            outcome = pool.submit(
                workqueue_module._subtree_worker, token, blob, item, 10**6
            ).result()
        assert (outcome.status, outcome.steps, outcome.explored) == (
            reference.status,
            reference.steps,
            reference.explored,
        )


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


class TestSubtreeEnvParsing:
    """``REPRO_PARALLEL_SUBTREES`` / knob env parsing."""

    @pytest.mark.parametrize("value", ["0", "false", "off", "", " 0 "])
    def test_disabling_values(self, monkeypatch, value):
        monkeypatch.setenv(parallel_module.PARALLEL_SUBTREES_ENV, value)
        assert parallel_module.subtree_parallel_enabled() is False

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
    def test_enabling_values(self, monkeypatch, value):
        monkeypatch.setenv(parallel_module.PARALLEL_SUBTREES_ENV, value)
        assert parallel_module.subtree_parallel_enabled() is True

    def test_unset_disables(self, monkeypatch):
        monkeypatch.delenv(parallel_module.PARALLEL_SUBTREES_ENV, raising=False)
        assert parallel_module.subtree_parallel_enabled() is False

    def test_split_budget_env(self, monkeypatch):
        monkeypatch.delenv(workqueue_module.SPLIT_BUDGET_ENV, raising=False)
        assert (
            workqueue_module.subtree_split_budget()
            == workqueue_module.DEFAULT_SPLIT_BUDGET
        )
        monkeypatch.setenv(workqueue_module.SPLIT_BUDGET_ENV, "123")
        assert workqueue_module.subtree_split_budget() == 123
        monkeypatch.setenv(workqueue_module.SPLIT_BUDGET_ENV, "not-a-number")
        assert (
            workqueue_module.subtree_split_budget()
            == workqueue_module.DEFAULT_SPLIT_BUDGET
        )

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

    def test_subtree_env_toggle_engages_decomposition(self, vocabulary, monkeypatch):
        monkeypatch.setenv(parallel_module.PARALLEL_SUBTREES_ENV, "1")
        automaton = _multi_chain_automaton(vocabulary, empty_language=True)
        kwargs = dict(max_paths=500, use_datalog_precheck=False, memoize=False)
        via_env = automaton_emptiness(automaton, vocabulary, parallel=False, **kwargs)
        monkeypatch.delenv(parallel_module.PARALLEL_SUBTREES_ENV)
        explicit = automaton_emptiness(
            automaton, vocabulary, parallel=False, subtree_parallel=True, **kwargs
        )
        sequential = automaton_emptiness(
            automaton, vocabulary, parallel=False, **kwargs
        )
        assert _result_fields(via_env) == _result_fields(explicit)
        assert _result_fields(via_env) == _result_fields(sequential)
        assert (via_env.stats or {}).get("subtree_items", 0) > 0


class TestWorkerSizing:
    """Every pooled caller sizes the shared pool with the one rule."""

    def test_mixed_callers_never_rebuild_the_pool(self, vocabulary, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        from repro.core.budget import Budget
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
            automaton_emptiness(
                automaton, vocabulary, parallel=True, subtree_parallel=True, **kwargs
            )
            assert "subtree" in submitted
            del submitted[:]
            automaton_emptiness(
                automaton,
                vocabulary,
                parallel=True,
                subtree_parallel=True,
                budget=Budget(node_cap=10**9),
                **kwargs,
            )
            assert "subtree" in submitted
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


class TestAnytimeContexts:
    def test_each_chain_ships_items_with_its_own_context(
        self, vocabulary, monkeypatch
    ):
        """Anytime pooled runs bind every chain's own search context."""
        from repro.core.budget import Budget

        executor_class = workqueue_module.SubtreeExecutor
        bound, shipped = {}, []
        bind, submit = executor_class.bind, executor_class.submit

        def recording_bind(self, context, node_budget):
            bind(self, context, node_budget)
            bound[self._token] = frozenset(context[0].states)

        def recording_submit(self, item):
            shipped.append((self._token, item.states))
            return submit(self, item)

        monkeypatch.setattr(executor_class, "bind", recording_bind)
        monkeypatch.setattr(executor_class, "submit", recording_submit)
        automaton = _multi_chain_automaton(vocabulary, empty_language=True)
        kwargs = dict(max_paths=600, use_datalog_precheck=False, memoize=False)
        try:
            anytime = automaton_emptiness(
                automaton,
                vocabulary,
                parallel=True,
                subtree_parallel=True,
                max_workers=2,
                budget=Budget(node_cap=10**9),
                **kwargs,
            )
        finally:
            workqueue_module.discard_shared_pool()
        sequential = automaton_emptiness(
            automaton, vocabulary, parallel=False, **kwargs
        )
        assert _result_fields(anytime) == _result_fields(sequential)
        assert len(bound) > 1
        assert shipped
        assert all(states <= bound[token] for token, states in shipped)
