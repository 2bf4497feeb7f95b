"""Tests for the unified reduction engine (repro.engine).

The load-bearing property is *field-identical equivalence*: whatever the
engine batches, dedups or memoizes must come back exactly equal —
dataclass field by dataclass field — to the legacy per-call procedures
it replaced.  The randomized suites below drive all three access
procedures (relevance, AP-containment, answerability) through seeded
:class:`~repro.workloads.generators.WorkloadGenerator` workloads and
compare against the ``*_legacy`` oracle paths.
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
from repro.access.lts import explore
from repro.access.relevance import (
    long_term_relevant,
    long_term_relevant_legacy,
    relevant_accesses,
)
from repro.automata.emptiness import automaton_emptiness
from repro.automata.library import containment_automaton
from repro.branching.ctl import ctl_atom, ctl_satisfiable_in_lts
from repro.core.bounded_check import (
    Bounds,
    bounded_satisfiability,
    bounded_satisfiability_legacy,
)
from repro.core import properties
from repro.core.formulas import lnext
from repro.core.solver import AccLTLSolver
from repro.datalog.containment import datalog_contained_in_ucq
from repro.datalog.program import DatalogProgram, Rule
from repro.engine import (
    DecisionEngine,
    Deduper,
    accltl_sat_task,
    answerability_task,
    containment_task,
    ctl_check_task,
    datalog_containment_task,
    emptiness_task,
    execute_task,
    ltl_word_task,
    query_key,
    relevance_task,
)
from repro.engine import engine as engine_module
from repro.engine.reduction import CachePolicy
from repro.ltl.sat import find_satisfying_word
from repro.ltl.syntax import And, Eventually, Globally, Not, Prop
from repro.queries.atoms import Atom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.parser import parse_cq
from repro.queries.terms import Variable
from repro.relational.schema import make_schema
from repro.store import workqueue
from repro.workloads.directory import directory_access_schema, directory_hidden_instance
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


def _direct_front_doors():
    """``(call, task, unwrap)`` for the four front doors that used to run
    on a process-wide engine: ``call()`` is the front door, ``unwrap``
    turns the engine task's value into the front door's return value."""
    directory = directory_access_schema()
    solver = AccLTLSolver(directory)
    formula = lnext(properties.relation_nonempty_post(solver.vocabulary, "Mobile"))
    word_formula = And(Eventually(Prop("p")), Globally(Not(Prop("q"))))
    lts = explore(
        directory,
        hidden_instance=directory_hidden_instance("small"),
        value_pool=["Smith", "Parks Rd", "OX13QD"],
        max_depth=2,
    )
    revealed = ctl_atom(parse_cq("Q :- Mobile__post(a, b, c, d)"))
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    closure = DatalogProgram(
        rules=[
            Rule(head=Atom("Path", (x, y)), body=(Atom("Edge", (x, y)),)),
            Rule(
                head=Atom("Path", (x, z)),
                body=(Atom("Edge", (x, y)), Atom("Path", (y, z))),
            ),
        ],
        edb_schema=make_schema({"Edge": 2}),
        goal="Path",
    )
    endpoints = parse_cq("Q(x, y) :- Edge(x, z), Edge(w, y)")
    return [
        (
            lambda: solver.satisfiable(formula),
            accltl_sat_task(directory, formula),
            lambda value: value,
        ),
        (
            lambda: find_satisfying_word(word_formula),
            ltl_word_task(word_formula),
            lambda value: list(value.word),
        ),
        (
            lambda: ctl_satisfiable_in_lts(solver.vocabulary, lts, revealed),
            ctl_check_task(solver.vocabulary, lts, revealed),
            lambda value: value.witness,
        ),
        (
            lambda: datalog_contained_in_ucq(closure, endpoints, max_depth=4),
            datalog_containment_task(closure, endpoints, max_depth=4),
            lambda value: value,
        ),
    ]


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
        engine = DecisionEngine(
            cache_policy=CachePolicy(memoize_results=False, persist_path="")
        )
        for call, task, unwrap in _direct_front_doors():
            assert call() == unwrap(engine.run(task).value)

    def test_front_doors_build_no_process_wide_engine(self, monkeypatch):
        monkeypatch.setattr(engine_module, "_SHARED_ENGINE", None)
        for call, _task, _unwrap in _direct_front_doors():
            call()
        assert engine_module._SHARED_ENGINE is None

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


def _union_tasks(max_paths: int = 300, count: int = 2):
    """*count* distinct emptiness tasks over one multi-chain union automaton.

    The union of the directory containment and LTR automata, as the
    ``chains_pooled`` benchmark builds its batches.
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


class TestInProcessBatches:
    def test_parallel_flag_runs_every_task_in_process(self, monkeypatch):
        """``parallel`` is accepted and ignored: no batch reaches for the
        process pool, and every result is computed in process, field for
        field equal whatever the flag says."""

        asked = []

        def no_pool(workers):  # pragma: no cover - must not run
            asked.append(workers)
            raise AssertionError("a batch asked for the process pool")

        monkeypatch.setattr(workqueue, "shared_pool", no_pool)
        tasks = _union_tasks()
        policy = CachePolicy(memoize_results=False, persist_path="")
        runs = [
            [
                (r.value, r.kind, r.backend, r.provenance, r.fingerprint)
                for r in DecisionEngine(cache_policy=policy, parallel=parallel).run_batch(
                    tasks
                )
            ]
            for parallel in (True, False, None)
        ]
        assert asked == []
        assert runs[0] == runs[1] == runs[2]
        assert [row[3] for row in runs[0]] == ["computed", "computed"]

    def test_deleted_pool_knobs_change_nothing(self, monkeypatch):
        """The removed pool knobs are inert: set to values that used to
        open the pool, a batch still runs in process with equal results."""
        tasks = _union_tasks(max_paths=3)
        policy = CachePolicy(memoize_results=False, persist_path="")

        def fields(results):
            return [(r.value, r.provenance, r.fingerprint) for r in results]

        for name in (
            "REPRO_PARALLEL_TASKS",
            "REPRO_PARALLEL_MIN_COST",
            "REPRO_POOL_RETRIES",
            "REPRO_POOL_ITEM_TIMEOUT",
        ):
            monkeypatch.delenv(name, raising=False)
        clean = fields(DecisionEngine(cache_policy=policy).run_batch(tasks))
        monkeypatch.setenv("REPRO_PARALLEL_TASKS", "1")
        monkeypatch.setenv("REPRO_PARALLEL_MIN_COST", "0")
        monkeypatch.setenv("REPRO_POOL_RETRIES", "3")
        monkeypatch.setenv("REPRO_POOL_ITEM_TIMEOUT", "0.001")

        def no_pool(workers):  # pragma: no cover - must not run
            raise AssertionError("a pool knob reopened the process pool")

        monkeypatch.setattr(workqueue, "shared_pool", no_pool)
        assert fields(DecisionEngine(cache_policy=policy).run_batch(tasks)) == clean

    def test_default_engine_keeps_pool_counters_at_zero(self):
        """A default engine computes a relevance matrix in process; the pool
        counters kept for the benchmark harness stay present and zero."""
        schema, initial, query, accesses = _relevance_workload(2)
        engine = DecisionEngine()
        engine.relevance_matrix(
            schema, accesses, query, initial=initial, require_boolean_access=False
        )
        stats = engine.stats()
        assert stats["computed"] > 0
        assert "pooled_tasks" not in stats
        for key in ("pool_retries", "pool_timeouts", "pool_inprocess_fallbacks"):
            assert stats[key] == 0

    def test_iter_results_streams_in_submission_order(self):
        """Without memo hits or duplicates, a wide batch yields its results
        in submission order, each one computed as it lands."""
        tasks = _union_tasks(max_paths=3, count=10)
        policy = CachePolicy(memoize_results=False, persist_path="")
        engine = DecisionEngine(cache_policy=policy)
        streamed = list(engine.iter_results(tasks))
        assert [index for index, _ in streamed] == list(range(len(tasks)))
        assert {result.provenance for _, result in streamed} == {"computed"}
        assert [record["index"] for record in engine.last_batch_profile] == list(
            range(len(tasks))
        )

    def test_task_pickle_round_trip_matches_in_process(self):
        """An unpickled task reproduces the result (snapshots rebuild from
        fact lists)."""
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
