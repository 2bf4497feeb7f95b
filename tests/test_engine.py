"""Tests for the unified reduction engine (repro.engine).

The load-bearing property is *field-identical equivalence*: whatever the
engine batches, dedups, memoizes or ships to a pool worker must come back
exactly equal — dataclass field by dataclass field — to the legacy
per-call procedures it replaced.  The randomized suites below drive all
three access procedures (relevance, AP-containment, answerability)
through seeded :class:`~repro.workloads.generators.WorkloadGenerator`
workloads and compare against the ``*_legacy`` oracle paths, and the
pooled cases go through the real worker entry (``execute_task`` submitted
to the shared process pool, plus an explicit pickle round-trip).
"""

from __future__ import annotations

import pickle

import pytest

from repro.access.answerability import (
    is_answerable_exactly,
    is_answerable_exactly_legacy,
)
from repro.access.containment_ap import (
    contained_under_access_patterns,
    contained_under_access_patterns_legacy,
)
from repro.access.relevance import (
    long_term_relevant,
    long_term_relevant_legacy,
    relevant_accesses,
)
from repro.automata.emptiness import automaton_emptiness
from repro.automata.library import containment_automaton
from repro.core.bounded_check import (
    Bounds,
    bounded_satisfiability,
    bounded_satisfiability_legacy,
)
from repro.core import properties
from repro.core.solver import AccLTLSolver
from repro.engine import (
    DecisionEngine,
    Deduper,
    answerability_task,
    containment_task,
    emptiness_task,
    execute_task,
    query_key,
    relevance_task,
)
from repro.queries.cq import ConjunctiveQuery
from repro.queries.parser import parse_cq
from repro.store import workqueue
from repro.workloads.generators import WorkloadGenerator
from repro.workloads.matrices import (
    instance_prefixes,
    probe_accesses,
    query_workload,
)
from repro.workloads.scenarios import _synthetic_scenario, standard_scenarios


def _relevance_workload(seed: int):
    generator = WorkloadGenerator(seed=seed)
    schema = generator.access_schema(
        num_relations=3, methods_per_relation=2, max_inputs=2
    )
    hidden = generator.instance(schema.schema, tuples_per_relation=6, domain_size=6)
    initial = generator.instance(schema.schema, tuples_per_relation=2, domain_size=6)
    query = generator.ucq(
        schema.schema, num_disjuncts=2, num_atoms=2, num_variables=3
    )
    accesses = probe_accesses(schema, hidden)
    return schema, initial, query, accesses


class TestRandomizedEquivalence:
    """Engine-batched results are field-identical to the legacy paths."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("grounded", [False, True])
    def test_relevance_matrix_matches_legacy(self, seed, grounded):
        schema, initial, query, accesses = _relevance_workload(seed)
        legacy = [
            long_term_relevant_legacy(
                schema,
                access,
                query,
                initial=initial,
                grounded=grounded,
                require_boolean_access=False,
            )
            for access in accesses
        ]
        engine = DecisionEngine()
        batched = engine.relevance_matrix(
            schema,
            accesses,
            query,
            initial=initial,
            grounded=grounded,
            require_boolean_access=False,
        )
        assert batched == legacy
        stats = engine.stats()
        assert stats["computed"] + stats["batch_dedup_hits"] == len(accesses)

    @pytest.mark.parametrize("seed", range(5))
    def test_containment_matrix_matches_legacy(self, seed):
        generator = WorkloadGenerator(seed=seed)
        schema = generator.access_schema(
            num_relations=3, methods_per_relation=2, max_inputs=1
        )
        queries = query_workload(
            [
                generator.conjunctive_query(
                    schema.schema, num_atoms=2, num_variables=4
                )
                for _ in range(3)
            ],
            resubmissions=2,
        )
        legacy = [
            [
                contained_under_access_patterns_legacy(schema, q1, q2)
                for q2 in queries
            ]
            for q1 in queries
        ]
        engine = DecisionEngine()
        batched = engine.containment_matrix(schema, queries)
        assert batched == legacy
        # The re-submitted copies differ only in their cosmetic names, so
        # the canonical fingerprints must collapse them.
        assert engine.stats()["batch_dedup_hits"] > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_answerability_sweep_matches_legacy(self, seed):
        generator = WorkloadGenerator(seed=seed)
        schema = generator.access_schema(
            num_relations=3, methods_per_relation=2, max_inputs=1
        )
        hidden = generator.instance(
            schema.schema, tuples_per_relation=8, domain_size=6
        )
        query = generator.ucq(
            schema.schema, num_disjuncts=2, num_atoms=2, num_variables=3
        )
        instances = instance_prefixes(hidden, steps=3)
        instances.append(instances[-1].copy())  # a repeated instance dedups
        legacy = [
            is_answerable_exactly_legacy(schema, query, instance, ["v0"])
            for instance in instances
        ]
        engine = DecisionEngine()
        swept = engine.answerability_sweep(schema, query, instances, ["v0"])
        assert swept == legacy
        assert engine.stats()["batch_dedup_hits"] >= 1

    def test_single_shot_wrappers_match_legacy(self):
        """The rewired public signatures stay exact on the paper's schema."""
        schema, initial, query, accesses = _relevance_workload(11)
        for access in accesses[:4]:
            assert long_term_relevant(
                schema, access, query, initial=initial, require_boolean_access=False
            ) == long_term_relevant_legacy(
                schema, access, query, initial=initial, require_boolean_access=False
            )
        generator = WorkloadGenerator(seed=11)
        q1 = generator.conjunctive_query(schema.schema, num_atoms=2, num_variables=3)
        q2 = generator.conjunctive_query(schema.schema, num_atoms=2, num_variables=3)
        assert contained_under_access_patterns(
            schema, q1, q2
        ) == contained_under_access_patterns_legacy(schema, q1, q2)
        assert is_answerable_exactly(
            schema, query, initial, ["v0"]
        ) == is_answerable_exactly_legacy(schema, query, initial, ["v0"])

    def test_bounded_check_wrapper_matches_legacy(self):
        scenario = next(s for s in standard_scenarios() if s.name == "directory")
        vocabulary = AccLTLSolver(scenario.access_schema).vocabulary
        formula = properties.ltr_formula(
            vocabulary, scenario.probe_access, scenario.query_one
        )
        bounds = Bounds(max_path_length=3, max_paths=2000)
        assert bounded_satisfiability(
            vocabulary, formula, bounds
        ) == bounded_satisfiability_legacy(vocabulary, formula, bounds)


class TestCrossRequestMemo:
    def test_second_batch_served_from_memo(self):
        schema, initial, query, accesses = _relevance_workload(3)
        engine = DecisionEngine()
        first = engine.relevance_matrix(
            schema, accesses, query, initial=initial, require_boolean_access=False
        )
        computed_once = engine.stats()["computed"]
        second = engine.relevance_matrix(
            schema, accesses, query, initial=initial, require_boolean_access=False
        )
        assert first == second
        stats = engine.stats()
        assert stats["computed"] == computed_once  # nothing recomputed
        assert stats["memo_hits"] >= computed_once
        assert stats["cross_request_hit_rate"] > 0

    def test_memo_keys_are_content_addressed(self):
        """Mutating the instance changes the fingerprint, so no stale hit."""
        schema, initial, query, accesses = _relevance_workload(4)
        engine = DecisionEngine()
        engine.answerability_sweep(schema, query, [initial])
        grown = initial.copy()
        relation = schema.schema.names()[0]
        arity = schema.schema.arity(relation)
        grown.add(relation, tuple("v5" for _ in range(arity)))
        verdict = engine.answerability_sweep(schema, query, [grown])[0]
        assert verdict == is_answerable_exactly_legacy(schema, query, grown)

    def test_caller_mutation_cannot_poison_memo(self, directory):
        """Counterexample Instances are caller-owned (the legacy contract);
        memo and dedup must hand out isolated copies."""
        from repro.workloads.directory import join_query, resident_names_query

        directory.add("AddrScan", "Address", ())
        engine = DecisionEngine()
        first = engine.run(
            containment_task(directory, resident_names_query(), join_query())
        ).value
        assert not first.contained
        pristine = first.counterexample.copy()
        # Mutate the returned counterexample, then re-request: the memo
        # serves the verdict, but with an unmutated instance.
        first.counterexample.add("Address", ("x", "y", "z", 1))
        second = engine.run(
            containment_task(directory, resident_names_query(), join_query())
        ).value
        assert engine.stats()["memo_hits"] >= 1
        assert second.counterexample == pristine
        # In-batch duplicates are isolated from each other the same way.
        matrix = engine.containment_matrix(
            directory,
            query_workload([resident_names_query()], resubmissions=2),
            [join_query()],
        )
        matrix[0][0].counterexample.add("Address", ("p", "q", "r", 2))
        assert matrix[1][0].counterexample == pristine

    def test_name_insensitive_query_fingerprints(self):
        q = parse_cq("Q(x) :- R(x, y)")
        renamed = ConjunctiveQuery(
            atoms=q.atoms, head=q.head, name="resubmitted-under-another-name"
        )
        assert query_key(q) == query_key(renamed)


class TestPooledDeterminism:
    def test_pooled_matches_in_process_through_real_worker_entry(self):
        """Explicit ``max_workers`` forces dispatch through the shared pool;
        every field of every result must match the in-process batch."""
        schema, initial, query, accesses = _relevance_workload(7)
        try:
            engine_in = DecisionEngine()
            in_process = engine_in.relevance_matrix(
                schema,
                accesses,
                query,
                initial=initial,
                require_boolean_access=False,
            )
            engine_pool = DecisionEngine(max_workers=2)
            pooled = engine_pool.relevance_matrix(
                schema,
                accesses,
                query,
                initial=initial,
                require_boolean_access=False,
            )
            assert pooled == in_process
            assert engine_pool.stats()["pooled_tasks"] > 0
        finally:
            workqueue.discard_shared_pool()

    def test_task_pickle_round_trip_matches_in_process(self):
        """The worker entry on an unpickled task reproduces the result —
        the spawn-safe property (snapshots rebuild from fact lists)."""
        schema, initial, query, accesses = _relevance_workload(9)
        task = relevance_task(
            schema,
            accesses[0],
            query,
            initial=initial,
            require_boolean_access=False,
        )
        shipped = pickle.loads(pickle.dumps(task))
        assert execute_task(shipped) == execute_task(task)
        generator = WorkloadGenerator(seed=9)
        q1 = generator.conjunctive_query(schema.schema, num_atoms=2, num_variables=3)
        q2 = generator.conjunctive_query(schema.schema, num_atoms=2, num_variables=3)
        ctask = containment_task(schema, q1, q2, initial=initial)
        assert execute_task(pickle.loads(pickle.dumps(ctask))) == execute_task(ctask)
        atask = answerability_task(schema, query, initial, ("v0",))
        assert execute_task(pickle.loads(pickle.dumps(atask))) == execute_task(atask)

    def test_dispatch_gate_stays_closed_by_default(self, monkeypatch):
        """Without an explicit worker count or env opt-in, batches never
        pay pool latency (the PR 4 non-loss discipline)."""
        monkeypatch.delenv("REPRO_PARALLEL_TASKS", raising=False)
        schema, initial, query, accesses = _relevance_workload(2)
        engine = DecisionEngine()
        engine.relevance_matrix(
            schema, accesses, query, initial=initial, require_boolean_access=False
        )
        assert engine.stats()["pooled_tasks"] == 0


def _gate_tasks(max_paths: int, count: int = 2):
    """*count* distinct emptiness tasks whose ``cost_hint`` follows *max_paths*.

    The union of the directory LTR and containment automata has 197
    states and transitions, so ``max_paths=3`` stays far below the default
    dispatch floor and ``max_paths=2000`` clears it.
    """
    from repro.automata.library import ltr_automaton
    from repro.automata.operations import union_automaton
    from repro.workloads.directory import (
        directory_access_schema,
        join_query,
        resident_names_query,
    )

    vocabulary = AccLTLSolver(directory_access_schema()).vocabulary
    scenario = next(s for s in standard_scenarios() if s.name == "directory")
    automaton = union_automaton(
        containment_automaton(
            vocabulary, join_query(), resident_names_query(), grounded=False
        ),
        ltr_automaton(vocabulary, scenario.probe_access, scenario.query_one),
    )
    return [
        emptiness_task(
            automaton,
            vocabulary,
            max_paths=max_paths + offset,
            use_datalog_precheck=False,
        )
        for offset in range(count)
    ]


def _spy_pool(monkeypatch):
    """Record each pool request (its worker count) and fail it."""
    calls = []

    def record(workers):
        calls.append(workers)
        raise RuntimeError("pool intentionally unavailable in this test")

    monkeypatch.setattr(workqueue, "shared_pool", record)
    return calls


class TestDispatchGate:
    """The engine's cost gate: a batch never pays for a pool that cannot win."""

    @staticmethod
    def _values(engine, tasks):
        return [result.value for result in engine.run_batch(tasks)]

    def test_single_cpu_blocks_dispatch(self, monkeypatch):
        monkeypatch.setattr(workqueue, "available_cpus", lambda: 1)
        calls = _spy_pool(monkeypatch)
        tasks = _gate_tasks(max_paths=2000)
        gated = self._values(DecisionEngine(parallel=True), tasks)
        assert calls == []
        assert gated == self._values(DecisionEngine(parallel=False), tasks)

    def test_small_workload_blocks_dispatch_even_multicore(self, monkeypatch):
        monkeypatch.setattr(workqueue, "available_cpus", lambda: 8)
        calls = _spy_pool(monkeypatch)
        tasks = _gate_tasks(max_paths=3)
        assert sum(task.cost_hint for task in tasks) < workqueue.min_dispatch_cost()
        gated = self._values(DecisionEngine(parallel=True), tasks)
        assert calls == []
        assert gated == self._values(DecisionEngine(parallel=False), tasks)

    def test_large_workload_dispatches_on_multicore(self, monkeypatch):
        monkeypatch.setattr(workqueue, "available_cpus", lambda: 8)
        calls = _spy_pool(monkeypatch)
        tasks = _gate_tasks(max_paths=2000)
        engine = DecisionEngine(parallel=True)
        values = self._values(engine, tasks)
        # The gate opened (pool requested); the rigged pool failure then
        # fell back in process without changing a result.
        assert calls
        assert engine.stats()["pool_submit_errors"] == 1
        assert values == self._values(DecisionEngine(parallel=False), tasks)

    def test_explicit_max_workers_overrides_gate(self, monkeypatch):
        monkeypatch.setattr(workqueue, "available_cpus", lambda: 1)
        calls = _spy_pool(monkeypatch)
        self._values(DecisionEngine(max_workers=2), _gate_tasks(max_paths=3))
        assert calls == [2]  # explicit worker count forces dispatch

    def test_min_cost_env_override(self, monkeypatch):
        monkeypatch.setattr(workqueue, "available_cpus", lambda: 8)
        monkeypatch.setenv(workqueue.PARALLEL_MIN_COST_ENV, "1")
        calls = _spy_pool(monkeypatch)
        self._values(DecisionEngine(parallel=True), _gate_tasks(max_paths=3))
        assert calls  # the lowered floor lets the tiny workload through

    def test_min_cost_env(self, monkeypatch):
        monkeypatch.delenv(workqueue.PARALLEL_MIN_COST_ENV, raising=False)
        assert workqueue.min_dispatch_cost() == workqueue.DEFAULT_MIN_DISPATCH_COST
        monkeypatch.setenv(workqueue.PARALLEL_MIN_COST_ENV, "42")
        assert workqueue.min_dispatch_cost() == 42
        monkeypatch.setenv(workqueue.PARALLEL_MIN_COST_ENV, "-5")
        assert workqueue.min_dispatch_cost() == workqueue.DEFAULT_MIN_DISPATCH_COST

    def test_worker_cap_holds(self, monkeypatch):
        monkeypatch.setattr(workqueue, "available_cpus", lambda: 64)
        monkeypatch.setenv(workqueue.PARALLEL_MIN_COST_ENV, "0")
        assert workqueue.worker_count(20, None) == workqueue._MAX_WORKERS_CAP
        assert workqueue.worker_count(3, None) == 3
        assert workqueue.worker_count(20, 16) == 16  # explicit count honoured
        calls = _spy_pool(monkeypatch)
        tasks = _gate_tasks(max_paths=3, count=10)
        self._values(DecisionEngine(parallel=True), tasks)
        assert calls == [workqueue._MAX_WORKERS_CAP]

    def test_pool_failure_falls_back_to_sequential(self, monkeypatch):
        class _BrokenPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no process pool in this environment")

        monkeypatch.setattr(workqueue, "ProcessPoolExecutor", _BrokenPool)
        monkeypatch.setattr(workqueue, "_POOL", None)
        monkeypatch.setattr(workqueue, "_POOL_WORKERS", 0)
        tasks = _gate_tasks(max_paths=300)
        engine = DecisionEngine(max_workers=2)
        fallback = self._values(engine, tasks)
        assert engine.stats()["pool_submit_errors"] == 1
        assert engine.stats()["pooled_tasks"] == 0
        assert fallback == self._values(DecisionEngine(parallel=False), tasks)


class TestParallelTasksEnvParsing:
    """``REPRO_PARALLEL_TASKS`` value parsing, case by case.

    The toggle is read when ``DecisionEngine(parallel=None)``; a multicore
    host and a zero dispatch floor leave it as the only gate, and a rigged
    pool records whether the batch asked for workers.
    """

    @staticmethod
    def _dispatches(monkeypatch, value):
        if value is None:
            monkeypatch.delenv("REPRO_PARALLEL_TASKS", raising=False)
        else:
            monkeypatch.setenv("REPRO_PARALLEL_TASKS", value)
        monkeypatch.setattr(workqueue, "available_cpus", lambda: 8)
        monkeypatch.setenv(workqueue.PARALLEL_MIN_COST_ENV, "0")
        calls = _spy_pool(monkeypatch)
        DecisionEngine().run_batch(_gate_tasks(max_paths=3))
        return bool(calls)

    @pytest.mark.parametrize(
        "value",
        ["0", "false", "False", "FALSE", "no", "No", "off", "OFF", "", "  ", " 0 "],
    )
    def test_disabling_values(self, monkeypatch, value):
        assert self._dispatches(monkeypatch, value) is False

    @pytest.mark.parametrize("value", ["1", "true", "True", "yes", "on", " 1 "])
    def test_enabling_values(self, monkeypatch, value):
        assert self._dispatches(monkeypatch, value) is True

    @pytest.mark.parametrize("value", ["2"])
    def test_unknown_values_disable(self, monkeypatch, value):
        assert self._dispatches(monkeypatch, value) is False

    def test_unset_disables(self, monkeypatch):
        assert self._dispatches(monkeypatch, None) is False

    def test_env_toggle_controls_default(self, monkeypatch):
        assert self._dispatches(monkeypatch, None) is False
        assert self._dispatches(monkeypatch, "1") is True
        assert self._dispatches(monkeypatch, "off") is False

    def test_zero_verifiably_bypasses_the_pool(self, monkeypatch):
        # With REPRO_PARALLEL_TASKS=0 and parallel=None a batch must stay
        # in process: the scheduler is rigged to explode if touched.
        monkeypatch.setenv("REPRO_PARALLEL_TASKS", "0")
        monkeypatch.setattr(workqueue, "available_cpus", lambda: 8)
        monkeypatch.setenv(workqueue.PARALLEL_MIN_COST_ENV, "0")

        def _explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("process pool used despite REPRO_PARALLEL_TASKS=0")

        monkeypatch.setattr(workqueue, "PoolScheduler", _explode)
        results = DecisionEngine().run_batch(_gate_tasks(max_paths=3))
        assert all(result.value is not None for result in results)


class TestNodeMemo:
    """The expansion memo follows ``memoize`` and decides within a path cap."""

    def test_memo_decides_within_path_cap(self):
        scenario = _synthetic_scenario(seed=1, num_relations=3, name="synthetic-1")
        vocabulary = AccLTLSolver(scenario.access_schema).vocabulary
        automaton = containment_automaton(
            vocabulary, scenario.query_one, scenario.query_two, grounded=False
        )
        memoized = automaton_emptiness(automaton, vocabulary, max_paths=120)
        assert not memoized.empty and memoized.witness is not None
        assert memoized.paths_explored == 94
        assert memoized.stats["node_memo_hits"] > 0
        plain = automaton_emptiness(
            automaton, vocabulary, max_paths=120, memoize=False
        )
        assert plain.empty and not plain.exhausted
        assert plain.paths_explored == 121
        assert plain.stats["node_memo_expansions"] == 0
        # Engine-run emptiness tasks keep the memo: the same fields come back.
        served = DecisionEngine().run(
            emptiness_task(automaton, vocabulary, max_paths=120)
        ).value
        assert served == memoized
        assert served.stats == memoized.stats


class TestIdentificationDedup:
    """Satellite: identical frozen candidates solve once in AP-containment."""

    def test_duplicate_candidates_counted_and_skipped(self, directory):
        # A union with a redundant (structurally identical) disjunct — the
        # shape a rewritten workload query easily ends up with — freezes
        # every identification of the second disjunct to a candidate the
        # first already produced, which used to re-solve all of them.
        from repro.queries.ucq import UnionOfConjunctiveQueries

        base = parse_cq("Q :- Mobile(n, pc, s, p)")
        duplicate = ConjunctiveQuery(atoms=base.atoms, head=(), name="redundant")
        union = UnionOfConjunctiveQueries((base, duplicate))
        target = parse_cq("Q :- Address(s, pc, n, f)")
        result = contained_under_access_patterns_legacy(directory, union, target)
        assert result.stats is not None
        assert result.stats["identification_dedup_hits"] > 0
        assert (
            result.stats["identification_candidates"]
            > result.stats["identification_dedup_hits"]
        )
        # The dedup is semantics-preserving: the wrapper (engine path)
        # agrees field by field, and so does the singleton union.
        assert contained_under_access_patterns(directory, union, target) == result
        assert (
            contained_under_access_patterns_legacy(directory, base, target).contained
            == result.contained
        )

    def test_counterexample_path_reports_stats(self, directory):
        directory.add("AddrScan", "Address", ())
        from repro.workloads.directory import join_query, resident_names_query

        result = contained_under_access_patterns_legacy(
            directory, resident_names_query(), join_query()
        )
        assert not result.contained
        assert result.stats is not None
        assert result.stats["identification_candidates"] >= 1

    def test_deduper_counts(self):
        dedup = Deduper()
        assert dedup.register("a", 1) is None
        assert dedup.register("a", 2) == 1
        assert dedup.register(None, 3) is None  # unkeyable: never deduped
        assert dedup.register(None, 4) is None
        assert dedup.hits == 1 and dedup.misses == 3


class TestMatrixWorkloadBuilders:
    def test_probe_accesses_limit(self):
        schema, initial, query, _ = _relevance_workload(1)
        assert probe_accesses(schema, initial, limit=0) == []
        full = probe_accesses(schema, initial)
        assert probe_accesses(schema, initial, limit=3) == full[:3]


class TestIteratorInputs:
    """One-shot iterables must not be silently half-consumed."""

    def test_answerability_accepts_value_iterator(self):
        schema, initial, query, _ = _relevance_workload(5)
        expected = is_answerable_exactly_legacy(schema, query, initial, ("v0", "v1"))
        engine = DecisionEngine()
        assert (
            engine.run(
                answerability_task(schema, query, initial, iter(("v0", "v1")))
            ).value
            == expected
        )
        # The memoized entry must have been keyed on the real values, so a
        # tuple-based repeat is a hit with the same (correct) verdict.
        assert (
            engine.run(answerability_task(schema, query, initial, ("v0", "v1"))).value
            == expected
        )
        assert engine.stats()["memo_hits"] >= 1

    def test_answerability_sweep_shares_one_value_iterable(self):
        schema, initial, query, _ = _relevance_workload(5)
        instances = [initial, initial.copy()]
        expected = [
            is_answerable_exactly_legacy(schema, query, inst, ("v0",))
            for inst in instances
        ]
        swept = DecisionEngine().answerability_sweep(
            schema, query, instances, iter(("v0",))
        )
        assert swept == expected

    def test_relevant_accesses_accepts_iterator(self):
        schema, initial, query, accesses = _relevance_workload(5)
        boolean = [
            access
            for access in accesses
            if access.method.num_inputs == schema.schema.arity(access.relation)
        ]
        from_list = relevant_accesses(schema, query, boolean, initial=initial)
        from_iter = relevant_accesses(schema, query, iter(boolean), initial=initial)
        assert from_iter == from_list


class TestRelevantAccessesBatch:
    def test_relevant_accesses_unchanged_by_batching(self):
        schema, initial, query, accesses = _relevance_workload(13)
        expected = [
            access
            for access in accesses
            if long_term_relevant_legacy(
                schema, access, query, initial=initial, require_boolean_access=False
            ).relevant
        ]
        # relevant_accesses requires boolean accesses by default; restrict
        # to the boolean candidates so the default-path contract holds.
        boolean = [
            access
            for access in accesses
            if access.method.num_inputs == schema.schema.arity(access.relation)
        ]
        got = relevant_accesses(schema, query, boolean, initial=initial)
        legacy_boolean = [
            access
            for access in boolean
            if long_term_relevant_legacy(
                schema, access, query, initial=initial
            ).relevant
        ]
        assert got == legacy_boolean
