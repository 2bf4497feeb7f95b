"""Microbenchmark for the indexed join engine and memoized emptiness search.

Runs the hot paths the performance subsystem optimises and records
median-of-N wall-clock timings, so future PRs have a perf trajectory to
compare against:

* ``cq_compiled`` / ``cq_naive`` — batch CQ evaluation with the compiled
  slot-and-index engine vs the naive backtracking oracle, on seeded
  workloads from :mod:`repro.workloads.generators`;
* ``datalog_fixedpoint`` — the accessible-part Datalog program evaluated
  bottom-up (rule bodies run through the compiled engine);
* ``datalog_fixedpoint_delta`` / ``datalog_fixedpoint_delta_dict`` /
  ``datalog_fixedpoint_posthoc`` / ``datalog_fixedpoint_naive`` —
  transitive closure over a deep chain
  (:meth:`repro.workloads.generators.WorkloadGenerator.chain_instance`):
  the compiled semi-naive delta plans (store-backed production default,
  plus the dict-backed twin that compares like-for-like against the
  dict-backed references) vs the PR 2 full-join-then-filter reference
  vs no delta restriction at all;
* ``emptiness_memo`` / ``emptiness_nomemo`` — A-automaton emptiness on the
  directory LTR scenario with the search memoisation on vs off (the
  memoised run's cache hit/miss counters are reported as
  ``emptiness_memo_stats``);
* ``snapshot_depth_copy`` / ``snapshot_depth_store`` — a search-stack
  simulation (snapshot, extend, fingerprint, at depth) contrasting O(n)
  ``Instance.copy``/``freeze`` per node against the persistent store's
  O(1) snapshots (:mod:`repro.store.snapshot`);
* ``relevance_matrix_seq`` / ``relevance_matrix_batched`` and
  ``containment_matrix_seq`` / ``containment_matrix_batched`` — matrix
  workloads (long-term relevance of every candidate access; pairwise
  AP-containment over a query set with re-submitted duplicates) as the
  per-call legacy loop vs one batched
  :class:`repro.engine.DecisionEngine` call sharing fingerprint dedup
  and the cross-request memo (engine counters are reported as
  ``matrix_engine_stats``); identical verdicts are asserted;
* ``anytime_emptiness_deadline`` / ``anytime_resume`` — the anytime
  decision layer: emptiness under a tight :class:`repro.core.budget.Budget`
  returning a tagged ``UNKNOWN`` with a resume frontier (the row measures
  bounded-latency interruption, not workload size), and the continuation
  from that frontier to the uninterrupted verdict (field-identical by the
  resume property; asserted here);
* ``batch_streaming_first_verdict`` — a warm relevance matrix consumed
  through ``DecisionEngine.iter_results``; the row times the full
  streamed batch and the first-verdict latency is reported alongside as
  ``anytime_stats``;
* ``memo_persist_cold`` / ``memo_persist_warm`` / ``memo_persist_crossproc``
  — the crash-safe persistent verdict store
  (:mod:`repro.store.verdict_cache`): a mixed LTL + Datalog-containment
  batch computed against an empty store, re-served from segment files by
  a fresh engine (disk hits asserted), and re-served in a *child
  interpreter* pointed at the store via ``REPRO_MEMO_PERSIST_PATH``
  (cross-process reuse asserted; verdict fields identical in all modes);
* ``sql_store_{ingest,lookup,join,fixedpoint}`` — the SQL/disk-backed
  store backend (:mod:`repro.store.sqlstore`) on the streaming scaling
  workloads of :mod:`repro.workloads.scaling` at 100k and 1M facts (10M
  behind ``--huge``), with ``mem_store_*`` twins on the in-memory
  snapshot store up to the RAM-policy cap — above it the memory rows are
  emitted as ``skipped`` and only the SQL backend keeps scaling (the
  bigger-than-RAM claim, measured); every row carries ``backend`` and
  ``facts`` tags;
* ``pipeline_end_to_end`` — the full containment + relevance pipeline of
  ``bench_pipeline_vs_bruteforce.py`` (automata pipeline and bounded
  brute-force checker side by side) at the largest configured size.

``benchmarks/check_regression.py`` compares a fresh run against the
committed ``BENCH_evaluation.json`` and fails on slowdowns beyond its
threshold.

Usage::

    PYTHONPATH=src python benchmarks/bench_evaluation.py --json
    PYTHONPATH=src python benchmarks/bench_evaluation.py --smoke --json

``--json`` writes ``BENCH_evaluation.json`` (override with ``--json-path``).
``--smoke`` shrinks sizes and repeats so the whole run fits in a tier-1
style time budget; the pytest entry point below runs smoke mode.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from typing import Callable, Dict, List, Optional

from repro.access.answerability import accessible_part_program
from repro.automata.emptiness import automaton_emptiness
from repro.automata.library import containment_automaton, ltr_automaton
from repro.core import properties
from repro.core.bounded_check import Bounds, bounded_satisfiability
from repro.core.solver import AccLTLSolver
from repro.datalog.evaluation import evaluate_program, goal_facts
from repro.queries.evaluation import (
    evaluate_cq,
    naive_satisfying_assignments,
    satisfying_assignments,
)
from repro.queries.plan_cache import clear_plan_cache, plan_cache_info
from repro.relational.instance import Instance
from repro.store.snapshot import SnapshotInstance
from repro.workloads.directory import (
    directory_access_schema,
    join_query,
    resident_names_query,
)
from repro.workloads.generators import WorkloadGenerator
from repro.workloads.scenarios import standard_scenarios


def _median_of(repeats: int, function: Callable[[], object]) -> Dict[str, object]:
    """Median-of-*repeats* wall time for *function* (first result kept)."""
    times: List[float] = []
    result = None
    for index in range(repeats):
        start = time.perf_counter()
        result = function()
        times.append(time.perf_counter() - start)
    return {
        "median_s": round(statistics.median(times), 6),
        "min_s": round(min(times), 6),
        "max_s": round(max(times), 6),
        "repeats": repeats,
        "checksum": repr(result)[:120],
    }


def _cq_workload(smoke: bool):
    generator = WorkloadGenerator(seed=17)
    num_pairs = 10 if smoke else 40
    tuples = 30 if smoke else 120
    pairs = []
    for _ in range(num_pairs):
        schema = generator.schema(num_relations=3, min_arity=2, max_arity=3)
        instance = generator.instance(
            schema, tuples_per_relation=tuples, domain_size=12
        )
        query = generator.conjunctive_query(
            schema, num_atoms=3, num_variables=4, constant_probability=0.15
        )
        pairs.append((query, instance))
    return pairs


def bench_cq_evaluation(smoke: bool, repeats: int) -> Dict[str, Dict[str, object]]:
    pairs = _cq_workload(smoke)

    def run_compiled():
        total = 0
        for query, instance in pairs:
            total += sum(1 for _ in satisfying_assignments(query, instance))
        return total

    def run_naive():
        total = 0
        for query, instance in pairs:
            total += sum(1 for _ in naive_satisfying_assignments(query, instance))
        return total

    compiled = _median_of(repeats, run_compiled)
    naive = _median_of(repeats, run_naive)
    assert compiled["checksum"] == naive["checksum"], "engine/oracle disagreement"
    return {"cq_compiled": compiled, "cq_naive": naive}


def _posthoc_seminaive_fixedpoint(program, database: Instance) -> Instance:
    """The PR 2 semi-naive algorithm, kept here as the benchmark reference.

    Every rule body is fully re-joined over the whole instance each round
    and derivations that touch no delta fact are discarded *post hoc* —
    the re-derivation overhead the compiled delta variants remove.  The
    engine itself no longer contains this path; the row exists so the
    ``datalog_fixedpoint_delta`` / ``datalog_fixedpoint_posthoc`` pair
    keeps measuring the win.
    """
    from repro.datalog.evaluation import _body_query
    from repro.queries.terms import Constant

    combined = program.combined_schema()
    state = Instance(combined)
    delta = set()
    for name in database.relation_names():
        for tup in database.tuples_view(name):
            state.add_unchecked(name, tup)
            delta.add((name, tup))
    while True:
        new_facts = set()
        for rule in program.rules:
            body_query = _body_query(rule)
            for assignment in satisfying_assignments(body_query, state):
                if not any(
                    (atom.relation, atom.substitute(assignment)) in delta
                    for atom in rule.body
                ):
                    continue
                values = tuple(
                    term.value if isinstance(term, Constant) else assignment[term]
                    for term in rule.head.terms
                )
                fact = (rule.head.relation, values)
                if fact not in state:
                    new_facts.add(fact)
        if not new_facts:
            break
        for fact in new_facts:
            state.add_fact(fact)
        delta = new_facts
    return state


def bench_datalog_deep_recursion(
    smoke: bool, repeats: int
) -> Dict[str, Dict[str, object]]:
    """Transitive closure over a deep chain: the semi-naive stress shape.

    ``length - 1`` rounds, a quadratic number of derived facts — re-joining
    the full instance every round is where the PR 2 post-hoc filter
    drowned, and where the compiled delta variants
    (``datalog_fixedpoint_delta``, the production default) win.
    ``datalog_fixedpoint_naive`` is the no-delta-restriction oracle for
    scale.
    """
    from repro.datalog.program import DatalogProgram, Rule
    from repro.queries.atoms import Atom
    from repro.queries.terms import Variable
    from repro.relational.schema import make_schema

    x, y, z = Variable("x"), Variable("y"), Variable("z")
    schema = make_schema({"Edge": 2})
    program = DatalogProgram(
        rules=[
            Rule(head=Atom("Path", (x, y)), body=(Atom("Edge", (x, y)),)),
            Rule(
                head=Atom("Path", (x, z)),
                body=(Atom("Edge", (x, y)), Atom("Path", (y, z))),
            ),
        ],
        edb_schema=schema,
        goal="Path",
    )
    generator = WorkloadGenerator(seed=47)
    chain = generator.chain_instance(schema, "Edge", 40 if smoke else 110)

    rows = {
        # The production default: compiled deltas on the persistent store.
        "datalog_fixedpoint_delta": _median_of(
            repeats, lambda: len(evaluate_program(program, chain).tuples("Path"))
        ),
        # Same algorithm on the dict backend — the like-for-like partner
        # of the posthoc row below (same backend), so the headline
        # delta/posthoc ratio measures the *algorithm* alone and the
        # delta vs delta_dict gap tracks the store's constant factor.
        "datalog_fixedpoint_delta_dict": _median_of(
            repeats,
            lambda: len(
                evaluate_program(program, chain, store_backed=False).tuples("Path")
            ),
        ),
        "datalog_fixedpoint_posthoc": _median_of(
            repeats,
            lambda: len(_posthoc_seminaive_fixedpoint(program, chain).tuples("Path")),
        ),
        "datalog_fixedpoint_naive": _median_of(
            repeats,
            lambda: len(
                evaluate_program(program, chain, semi_naive=False).tuples("Path")
            ),
        ),
    }
    checksums = {row["checksum"] for row in rows.values()}
    assert len(checksums) == 1, "datalog evaluation modes disagree"
    return rows


def bench_datalog(smoke: bool, repeats: int) -> Dict[str, Dict[str, object]]:
    generator = WorkloadGenerator(seed=23)
    access_schema = generator.access_schema(
        num_relations=3, methods_per_relation=2, max_inputs=1
    )
    hidden = generator.instance(
        access_schema.schema,
        tuples_per_relation=20 if smoke else 60,
        domain_size=10,
    )
    query = generator.conjunctive_query(
        access_schema.schema, num_atoms=2, num_variables=3
    )
    program = accessible_part_program(access_schema, query)
    database = Instance(program.edb_schema)
    for name in hidden.relation_names():
        for tup in hidden.tuples_view(name):
            database.add(name, tup)
    database.add("Init", ("v0",))

    def run():
        return len(goal_facts(program, database))

    results = {"datalog_fixedpoint": _median_of(repeats, run)}
    results.update(bench_datalog_deep_recursion(smoke, repeats))
    return results


def bench_emptiness(
    smoke: bool, repeats: int, memo_stats_out: Optional[Dict[str, object]] = None
) -> Dict[str, Dict[str, object]]:
    scenario = next(s for s in standard_scenarios() if s.name == "directory")
    vocabulary = AccLTLSolver(scenario.access_schema).vocabulary
    automaton = ltr_automaton(
        vocabulary, scenario.probe_access, scenario.query_one
    )
    max_paths = 4000 if smoke else 30000

    results: Dict[str, Dict[str, object]] = {}
    for label, memoize in (("emptiness_memo", True), ("emptiness_nomemo", False)):
        results[label] = _median_of(
            repeats,
            lambda memoize=memoize: automaton_emptiness(
                automaton, vocabulary, max_paths=max_paths, memoize=memoize
            ).empty,
        )
    assert results["emptiness_memo"]["checksum"] == results["emptiness_nomemo"][
        "checksum"
    ], "memoization changed the emptiness verdict"
    if memo_stats_out is not None:
        # Hit/miss instrumentation for the memoised run: the
        # memo-vs-nomemo timing gap above is small, so whether the memo
        # earns its overhead is a per-workload question — these counters
        # are what the next tuning pass needs to answer it.
        stats = automaton_emptiness(
            automaton, vocabulary, max_paths=max_paths, memoize=True
        ).stats or {}
        node_total = stats.get("node_memo_hits", 0) + stats.get(
            "node_memo_expansions", 0
        )
        sentence_total = stats.get("sentence_cache_hits", 0) + stats.get(
            "sentence_cache_misses", 0
        )
        memo_stats_out.update(stats)
        memo_stats_out["node_memo_hit_rate"] = (
            round(stats.get("node_memo_hits", 0) / node_total, 4)
            if node_total
            else None
        )
        memo_stats_out["sentence_cache_hit_rate"] = (
            round(stats.get("sentence_cache_hits", 0) / sentence_total, 4)
            if sentence_total
            else None
        )
    return results


def bench_snapshots(smoke: bool, repeats: int) -> Dict[str, Dict[str, object]]:
    """Search-stack simulation: snapshot + extend + fingerprint at depth.

    Mimics what every decision-procedure search does per node — capture
    the configuration, extend it with a small delta, fingerprint it for
    the visited set — over an instance large enough that the O(n) copies
    and frozen-set fingerprints of the dict-backed instance dominate.
    """
    generator = WorkloadGenerator(seed=31)
    schema = generator.schema(num_relations=4, min_arity=2, max_arity=3)
    tuples = 120 if smoke else 500
    depth = 80 if smoke else 300
    seeded = generator.instance(schema, tuples_per_relation=tuples, domain_size=40)
    relations = [relation.name for relation in schema]

    def fresh_facts(step: int):
        name = relations[step % len(relations)]
        arity = schema.arity(name)
        return name, [
            tuple(f"~d{step}_{j}_{position}" for position in range(arity))
            for j in range(2)
        ]

    def run_copy():
        config = seeded
        fingerprints = []
        for step in range(depth):
            child = config.copy()
            name, facts = fresh_facts(step)
            for tup in facts:
                child.add_unchecked(name, tup)
            fingerprints.append(child.fingerprint())
            config = child
        return config.size()

    def run_store():
        store = SnapshotInstance.from_instance(seeded)
        snapshots = []
        for step in range(depth):
            snapshots.append(store.snapshot())
            name, facts = fresh_facts(step)
            for tup in facts:
                store.add_unchecked(name, tup)
            snapshots.append(store.fingerprint())
        return store.size()

    copy_row = _median_of(repeats, run_copy)
    store_row = _median_of(repeats, run_store)
    assert copy_row["checksum"] == store_row["checksum"], "backends disagree"
    return {"snapshot_depth_copy": copy_row, "snapshot_depth_store": store_row}


def bench_matrices(
    smoke: bool, repeats: int, matrix_stats_out: Optional[Dict[str, object]] = None
) -> Dict[str, Dict[str, object]]:
    """Per-call loops vs the batched decision engine on matrix workloads.

    The relevance matrix probes every access projected from the observed
    tuples (duplicate-heavy by nature: distinct tuples share bindings);
    the containment matrix checks all ordered pairs of a query set that
    contains re-submitted, structurally equal copies.  The ``_seq`` rows
    run the legacy per-call procedures in a loop; the ``_batched`` rows
    run one :class:`repro.engine.DecisionEngine` batch, whose fingerprint
    dedup solves each unique request once — so batched can only win, and
    the win *is* the dedup (every batch runs in process).  Verdict equality between the modes is asserted, and
    the engine counters of the batched runs (dedup hits, cross-request
    hit rate) are reported via *matrix_stats_out*.
    """
    from repro.access.containment_ap import contained_under_access_patterns_legacy
    from repro.access.relevance import long_term_relevant_legacy
    from repro.engine import DecisionEngine
    from repro.workloads.matrices import probe_accesses, query_workload

    generator = WorkloadGenerator(seed=29)
    schema = generator.access_schema(
        num_relations=3, methods_per_relation=2, max_inputs=1
    )
    hidden = generator.instance(
        schema.schema,
        tuples_per_relation=12 if smoke else 40,
        domain_size=8,
    )
    # A non-empty initial instance is the realistic shape (the query
    # processor already knows facts when it asks which probes matter) and
    # the architectural point: the per-call loop re-snapshots it for
    # every candidate, the engine snapshots it once per unique request.
    initial = generator.instance(
        schema.schema,
        tuples_per_relation=8 if smoke else 25,
        domain_size=8,
    )
    relevance_query = generator.ucq(
        schema.schema, num_disjuncts=2, num_atoms=2, num_variables=3
    )
    accesses = probe_accesses(schema, hidden)

    base_queries = [
        generator.conjunctive_query(schema.schema, num_atoms=2, num_variables=4)
        for _ in range(3)
    ]
    queries = query_workload(base_queries, resubmissions=2 if smoke else 3)

    def relevance_seq():
        return tuple(
            long_term_relevant_legacy(
                schema,
                access,
                relevance_query,
                initial=initial,
                require_boolean_access=False,
            ).relevant
            for access in accesses
        )

    def relevance_batched(stats_out=None):
        engine = DecisionEngine()
        results = engine.relevance_matrix(
            schema,
            accesses,
            relevance_query,
            initial=initial,
            require_boolean_access=False,
        )
        if stats_out is not None:
            stats_out.update(engine.stats())
        return tuple(result.relevant for result in results)

    def containment_seq():
        return tuple(
            contained_under_access_patterns_legacy(schema, q1, q2).contained
            for q1 in queries
            for q2 in queries
        )

    def containment_batched(stats_out=None):
        engine = DecisionEngine()
        matrix = engine.containment_matrix(schema, queries)
        if stats_out is not None:
            stats_out.update(engine.stats())
        return tuple(cell.contained for row in matrix for cell in row)

    results = {
        "relevance_matrix_seq": _median_of(repeats, relevance_seq),
        "relevance_matrix_batched": _median_of(repeats, relevance_batched),
        "containment_matrix_seq": _median_of(repeats, containment_seq),
        "containment_matrix_batched": _median_of(repeats, containment_batched),
    }
    # Verdict equality is asserted on the full tuples (the stored row
    # checksums are repr-truncated, which would only cover a prefix of
    # these wide boolean vectors).
    assert relevance_seq() == relevance_batched(), (
        "batched relevance matrix changed a verdict"
    )
    assert containment_seq() == containment_batched(), (
        "batched containment matrix changed a verdict"
    )
    if matrix_stats_out is not None:
        relevance_stats: Dict[str, object] = {}
        containment_stats: Dict[str, object] = {}
        relevance_batched(stats_out=relevance_stats)
        containment_batched(stats_out=containment_stats)
        matrix_stats_out["relevance"] = relevance_stats
        matrix_stats_out["containment"] = containment_stats
    return results


def bench_anytime(
    smoke: bool, repeats: int, anytime_stats_out: Optional[Dict[str, object]] = None
) -> Dict[str, Dict[str, object]]:
    """The anytime decision layer: deadline, resume, streaming first verdict.

    The interrupted emptiness call is produced once outside the timed
    region (node caps expire at deterministic candidate boundaries; the
    cap is halved until the run genuinely interrupts, so the rows never
    depend on where the workload's verdict happens to land).  The timed rows then
    measure (a) how fast a budget-capped call comes back ``UNKNOWN`` —
    the serving guarantee is that this tracks the budget, not the
    workload — and (b) what the continuation to the full verdict costs.
    Field-identical resume is asserted against the uninterrupted oracle.
    """
    from repro.core.budget import Budget
    from repro.engine import DecisionEngine
    from repro.workloads.matrices import probe_accesses, stream_relevance_matrix

    scenario = next(s for s in standard_scenarios() if s.name == "directory")
    vocabulary = AccLTLSolver(scenario.access_schema).vocabulary
    automaton = ltr_automaton(vocabulary, scenario.probe_access, scenario.query_one)
    max_paths = 4000 if smoke else 30000
    kwargs = dict(max_paths=max_paths, use_datalog_precheck=False, memoize=False)

    oracle = automaton_emptiness(automaton, vocabulary, **kwargs)
    cap = max(1, oracle.paths_explored // 2)
    unknown = None
    while cap >= 1:
        candidate = automaton_emptiness(
            automaton, vocabulary, budget=Budget(node_cap=cap), **kwargs
        )
        if candidate.unknown:
            unknown = candidate
            break
        if cap == 1:
            break
        cap //= 2
    assert unknown is not None and unknown.frontier is not None, (
        "anytime benchmark could not interrupt the workload"
    )
    budget = Budget(deadline_s=0.25, node_cap=cap)

    def run_deadline():
        result = automaton_emptiness(
            automaton, vocabulary, budget=budget, **kwargs
        )
        assert result.unknown, "budget-capped emptiness completed unexpectedly"
        return result.verdict

    def run_resume():
        resumed = automaton_emptiness(
            automaton, vocabulary, resume_from=unknown.frontier, **kwargs
        )
        fields = (
            resumed.empty,
            resumed.witness,
            resumed.exhausted,
            resumed.paths_explored,
            resumed.chains_checked,
        )
        assert fields == (
            oracle.empty,
            oracle.witness,
            oracle.exhausted,
            oracle.paths_explored,
            oracle.chains_checked,
        ), "resumed emptiness disagrees with the uninterrupted run"
        return resumed.verdict

    # Streaming batch on a warm engine: the memo answers every request, so
    # the row isolates the serving overhead of the streamed path and the
    # first-verdict latency is the time to the first memo hit.
    generator = WorkloadGenerator(seed=29)
    schema = generator.access_schema(
        num_relations=3, methods_per_relation=2, max_inputs=1
    )
    hidden = generator.instance(
        schema.schema, tuples_per_relation=12 if smoke else 40, domain_size=8
    )
    relevance_query = generator.ucq(
        schema.schema, num_disjuncts=2, num_atoms=2, num_variables=3
    )
    accesses = probe_accesses(schema, hidden)
    engine = DecisionEngine()
    stream_relevance_matrix(  # warm the memo outside the timed region
        engine, schema, accesses, relevance_query, require_boolean_access=False
    )

    def run_stream():
        streamed = stream_relevance_matrix(
            engine,
            schema,
            accesses,
            relevance_query,
            require_boolean_access=False,
        )
        if anytime_stats_out is not None:
            anytime_stats_out["first_verdict_ms"] = round(
                streamed.first_verdict_s * 1000, 3
            )
            anytime_stats_out["batch_total_ms"] = round(streamed.total_s * 1000, 3)
        return tuple(result.relevant for result in streamed.values)

    results = {
        "anytime_emptiness_deadline": _median_of(repeats, run_deadline),
        "anytime_resume": _median_of(repeats, run_resume),
        "batch_streaming_first_verdict": _median_of(repeats, run_stream),
    }
    if anytime_stats_out is not None:
        anytime_stats_out["node_cap"] = cap
        anytime_stats_out["interrupted_paths_explored"] = unknown.paths_explored
        anytime_stats_out["oracle_paths_explored"] = oracle.paths_explored
    return results


def _memo_persist_tasks(smoke: bool):
    """A deterministic mixed batch for the persistent verdict store rows.

    LTL word searches plus Datalog-in-UCQ containment checks, submitted
    as ``ltl_word``/``datalog_containment`` engine tasks: their front
    doors (``find_satisfying_word``, ``datalog_contained_in_ucq``) run no
    engine, so only a batch like this one reaches the store.  Every
    task is structurally unique (no intra-batch dedup), so warm/cold hit
    counts measure the persistent tier and nothing else.  Construction
    must be reproducible across *processes*: the cross-process row
    rebuilds this exact batch in a child interpreter and the fingerprints
    must match the parent's.
    """
    from repro.datalog.program import DatalogProgram, Rule
    from repro.engine.engine import datalog_containment_task, ltl_word_task
    from repro.ltl.syntax import (
        And,
        Eventually,
        Globally,
        Next,
        Not,
        Or,
        Prop,
        Until,
    )
    from repro.queries.atoms import Atom
    from repro.queries.terms import Variable
    from repro.relational.schema import make_schema

    tasks = []
    props = [Prop(f"p{index}") for index in range(3)]
    letters = [
        frozenset(),
        frozenset({"p0"}),
        frozenset({"p1"}),
        frozenset({"p0", "p1"}),
        frozenset({"p2"}),
        frozenset({"p1", "p2"}),
    ]
    for index in range(6 if smoke else 12):
        a = props[index % 3]
        b = props[(index + 1) % 3]
        c = props[(index + 2) % 3]
        shapes = [
            Until(Or(a, Next(b)), And(Eventually(c), Not(a))),
            And(Eventually(And(a, Next(b))), Globally(Or(b, Not(c)))),
            Until(Not(a), And(b, Eventually(c))),
        ]
        formula = shapes[index % 3]
        for _ in range(index // 3):  # make every task unique
            formula = Next(formula)
        tasks.append(
            ltl_word_task(formula, letters=letters, max_length=5 if smoke else 6)
        )

    x, y, z = Variable("x"), Variable("y"), Variable("z")
    schema = make_schema({"Edge": 2})
    program = DatalogProgram(
        rules=[
            Rule(head=Atom("Path", (x, y)), body=(Atom("Edge", (x, y)),)),
            Rule(
                head=Atom("Path", (x, z)),
                body=(Atom("Edge", (x, y)), Atom("Path", (y, z))),
            ),
        ],
        edb_schema=schema,
        goal="Path",
    )
    generator = WorkloadGenerator(seed=37)
    for _ in range(4 if smoke else 8):
        query = generator.ucq(
            schema, num_disjuncts=2, num_atoms=2, num_variables=3
        )
        tasks.append(
            datalog_containment_task(
                program, query, max_depth=3, max_expansions=40
            )
        )
    return tasks


def _memo_persist_fields(values) -> List[List[object]]:
    """Canonical, JSON-safe verdict fields for cross-process comparison.

    ``repr`` of a frozenset depends on hash ordering, so the LTL word's
    letters are re-serialised as sorted lists; everything else is plain
    scalars (plus a deterministic dataclass ``repr`` for the Datalog
    counterexample CQ).
    """
    fields: List[List[object]] = []
    for value in values:
        if hasattr(value, "word"):
            word = value.word
            fields.append(
                [
                    "ltl",
                    None
                    if word is None
                    else [sorted(letter) for letter in word],
                ]
            )
        else:
            fields.append(
                [
                    "datalog",
                    value.contained,
                    value.exhaustive,
                    value.expansions_checked,
                    repr(value.counterexample),
                ]
            )
    return fields


def _run_memo_persist_workload(smoke: bool):
    """Run the memo-persist batch on a default-policy engine.

    The default :class:`~repro.engine.reduction.CachePolicy` leaves
    ``persist_path`` to the ``REPRO_MEMO_PERSIST_PATH`` environment knob,
    which is exactly how the cross-process child is pointed at the shared
    store.  Returns the canonical verdict fields and the engine's
    disk-hit counter.
    """
    from repro.engine import DecisionEngine

    engine = DecisionEngine()
    results = engine.run_batch(_memo_persist_tasks(smoke))
    fields = _memo_persist_fields([result.value for result in results])
    return fields, engine.stats()["memo_disk_hits"]


def bench_memo_persist(
    smoke: bool, repeats: int, persist_stats_out: Optional[Dict[str, object]] = None
) -> Dict[str, Dict[str, object]]:
    """The crash-safe persistent verdict store: cold vs warm vs cross-process.

    ``memo_persist_cold`` clears the store and computes the whole batch
    (each repeat re-clears, so every repeat pays full computation plus
    one atomic segment write).  ``memo_persist_warm`` starts a *fresh*
    engine over the populated store — the in-memory tier is empty, so
    every verdict is served from disk (``memo_disk_hits`` is asserted
    positive).  ``memo_persist_crossproc`` re-runs the identical batch in
    a child interpreter pointed at the store via
    ``REPRO_MEMO_PERSIST_PATH`` — the row that proves segment files
    written by one process are reused by another (interpreter startup is
    included in the timing; the reuse evidence is the asserted disk-hit
    count, reported in ``memo_persist_stats``).  Verdict fields are
    asserted identical across all three modes.
    """
    import os
    import shutil
    import subprocess
    import sys
    import tempfile

    from repro.engine import DecisionEngine
    from repro.engine.reduction import CachePolicy
    from repro.store.verdict_cache import clear_store, store_stats

    store = tempfile.mkdtemp(prefix="repro-memo-bench-")
    tasks = _memo_persist_tasks(smoke)

    def run_cold():
        clear_store(store)
        engine = DecisionEngine(cache_policy=CachePolicy(persist_path=store))
        results = engine.run_batch(tasks)
        assert engine.stats()["memo_disk_hits"] == 0, "cold run hit the store"
        return _memo_persist_fields([result.value for result in results])

    def run_warm():
        engine = DecisionEngine(cache_policy=CachePolicy(persist_path=store))
        results = engine.run_batch(tasks)
        hits = engine.stats()["memo_disk_hits"]
        assert hits > 0, "warm run never hit the persistent tier"
        if persist_stats_out is not None:
            persist_stats_out["warm_disk_hits"] = hits
        return _memo_persist_fields([result.value for result in results])

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(os.path.dirname(bench_dir), "src")
    child_env = dict(os.environ)
    child_env["REPRO_MEMO_PERSIST_PATH"] = store
    child_env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src_dir, child_env.get("PYTHONPATH", "")) if part
    )
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {bench_dir!r})\n"
        "from bench_evaluation import _run_memo_persist_workload\n"
        f"fields, hits = _run_memo_persist_workload({smoke!r})\n"
        "print(json.dumps({'fields': fields, 'hits': hits}))\n"
    )

    def run_crossproc():
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=child_env,
            capture_output=True,
            text=True,
            check=True,
        )
        payload = json.loads(proc.stdout.strip().splitlines()[-1])
        assert payload["hits"] > 0, "cross-process run never hit the shared store"
        if persist_stats_out is not None:
            persist_stats_out["crossproc_disk_hits"] = payload["hits"]
        return payload["fields"]

    try:
        results = {
            "memo_persist_cold": _median_of(repeats, run_cold),
            "memo_persist_warm": _median_of(repeats, run_warm),
            "memo_persist_crossproc": _median_of(repeats, run_crossproc),
        }
        cold, warm, crossproc = run_cold(), run_warm(), run_crossproc()
        assert cold == warm == crossproc, (
            "persistent verdict store changed a verdict across tiers"
        )
        if persist_stats_out is not None:
            persist_stats_out["tasks"] = len(tasks)
            persist_stats_out["store"] = store_stats(store)
            persist_stats_out["store"]["path"] = "<tempdir>"  # not reproducible
    finally:
        shutil.rmtree(store, ignore_errors=True)
    return results


#: Policy cap for the in-memory twins of the ``sql_store_*`` rows: above
#: this many facts the dict/snapshot backends hold the whole instance in
#: Python objects (the instances the SQL backend exists for), so their
#: rows are emitted with ``"status": "skipped"`` instead of timings —
#: ``check_regression.py`` treats those as informational only.
MEM_BACKEND_MAX_FACTS = 100_000


def bench_sql_store(
    smoke: bool,
    repeats: int,
    huge: bool = False,
    sql_stats_out: Optional[Dict[str, object]] = None,
) -> Dict[str, Dict[str, object]]:
    """The SQL/disk-backed store backend at workload scale.

    Four families — ``sql_store_{ingest,lookup,join,fixedpoint}`` — run
    the streaming fact generators of :mod:`repro.workloads.scaling`
    against the embedded-SQLite backend, with ``mem_store_*`` twins on
    the production in-memory snapshot store at every size the RAM policy
    allows (:data:`MEM_BACKEND_MAX_FACTS`); above it the memory twins
    are policy-skipped and the SQL rows keep scaling:

    * ``ingest`` — batched transactional bulk load of the grid-reach EDB
      plus the durability checkpoint (``snapshot()`` commits);
    * ``lookup`` — point probes through the per-position indexes plus
      membership checks, on the chain-join store;
    * ``join`` — the 1:1 ``R ⋈ S`` chain join through the compiled plan,
      pushed down as parameterised SQL on the sqlite backend (the
      ``store.pushdown`` counter is asserted) and run by the in-memory
      engine on the twin;
    * ``fixedpoint`` — the grid-reach Datalog program, computed in place
      on the ingested store (semi-naive deltas as SQL joins).

    Every workload has an analytically known answer count (the join has
    exactly ``facts // 2`` answers, the fixedpoint reaches exactly one
    node per EDB fact), and every run asserts it — so wherever both
    backends run, their agreement is checked, and at the sizes only
    SQLite runs the verdict is still pinned to ground truth.
    """
    import os
    import shutil
    import tempfile

    from repro.obs.metrics import REGISTRY
    from repro.store.snapshot import SnapshotInstance
    from repro.store.sqlstore import SQLStoreInstance
    from repro.workloads.scaling import (
        chain_join_facts,
        chain_join_query,
        chain_join_schema,
        grid_reach_facts,
        grid_reach_program,
    )

    program = grid_reach_program()
    combined = program.combined_schema()
    join_schema = chain_join_schema()
    query = chain_join_query()
    if smoke:
        sizes = [("2k", 2_000)]
    else:
        sizes = [("100k", 100_000), ("1m", 1_000_000)]
        if huge:
            sizes.append(("10m", 10_000_000))

    def ingest(store, facts_iter) -> int:
        if hasattr(store, "add_facts"):  # the SQL backend's batched path
            count = store.add_facts(facts_iter)
        else:
            count = 0
            for name, tup in facts_iter:
                if store.add_unchecked(name, tup):
                    count += 1
        store.snapshot()  # durability checkpoint (commit on sqlite)
        return count

    def discard(store) -> None:
        if store is not None and hasattr(store, "close"):
            store.close()

    results: Dict[str, Dict[str, object]] = {}
    workdir = tempfile.mkdtemp(prefix="repro-sqlstore-bench-")
    overall_base = REGISTRY.counters_snapshot()
    sequence = {"n": 0}
    try:
        for tag, facts in sizes:
            # Large runs are single-shot: those rows exist to prove
            # scale, not to hunt percent-level drift, and repeating a
            # million-fact ingest would double the suite's wall clock.
            n_repeats = 1 if facts > MEM_BACKEND_MAX_FACTS else min(repeats, 3)
            for backend in ("sqlite", "memory"):
                prefix = "sql_store" if backend == "sqlite" else "mem_store"
                if backend == "memory" and facts > MEM_BACKEND_MAX_FACTS:
                    for kind in ("ingest", "lookup", "join", "fixedpoint"):
                        results[f"{prefix}_{kind}_{tag}"] = {
                            "status": "skipped",
                            "backend": backend,
                            "facts": facts,
                            "reason": (
                                "in-memory backend skipped by policy "
                                f"above {MEM_BACKEND_MAX_FACTS} facts"
                            ),
                        }
                    continue

                def fresh_store(schema, label):
                    if backend == "memory":
                        return SnapshotInstance(schema)
                    sequence["n"] += 1
                    path = os.path.join(
                        workdir, f"{label}-{tag}-{sequence['n']}.db"
                    )
                    return SQLStoreInstance(schema, path)

                grid_holder = {"store": None}

                def run_ingest():
                    discard(grid_holder["store"])
                    store = fresh_store(combined, "grid")
                    added = ingest(store, grid_reach_facts(facts))
                    assert added == facts, "grid-reach ingest lost facts"
                    grid_holder["store"] = store
                    return added

                ingest_row = _median_of(n_repeats, run_ingest)
                grid_store = grid_holder["store"]

                chain_store = fresh_store(join_schema, "chain")
                ingest(chain_store, chain_join_facts(facts))

                probes = min(2_000, facts // 2)

                # Warm repeated rows outside the timed region (first
                # iterations otherwise pay one-off plan/SQL compilation
                # and shard-index builds, inflating the spread the
                # regression guard then flaps on).  Single-shot rows at
                # the large sizes stay cold: re-running a 1M-fact
                # fixedpoint to warm it would double their cost for a
                # one-off constant that is noise at that scale.
                warm = n_repeats > 1

                def run_lookup():
                    hits = 0
                    for i in range(probes):
                        hits += len(chain_store.index("R", 0, i))
                        hits += ("S", (facts + i, 2 * facts + i)) in chain_store
                    assert hits == 2 * probes, "indexed lookups missed facts"
                    return hits

                if warm:
                    run_lookup()
                lookup_row = _median_of(n_repeats, run_lookup)

                join_base = REGISTRY.counters_snapshot()

                def run_join():
                    answers = sum(
                        1 for _ in satisfying_assignments(query, chain_store)
                    )
                    assert answers == facts // 2, "chain join lost answers"
                    return answers

                if warm:
                    run_join()
                join_row = _median_of(n_repeats, run_join)
                if backend == "sqlite" and facts // 2 >= 512:
                    # The default REPRO_SQL_PUSHDOWN_MIN_ROWS threshold is
                    # below every configured size, so the join must have
                    # routed through SQL, not the in-memory engine.
                    pushed = REGISTRY.counters_delta(join_base).get(
                        "store.pushdown", 0
                    )
                    assert pushed >= n_repeats, "SQL join was never pushed down"

                grid_base = grid_store.snapshot()

                def run_fixedpoint():
                    if backend == "sqlite":
                        # In-place adoption: the ingested store *is* the
                        # fixedpoint state; roll derived facts back between
                        # repeats so every run starts from the EDB.
                        grid_store.restore(grid_base)
                        state = evaluate_program(
                            program, grid_store, backend="sqlite"
                        )
                        assert state is grid_store, "sqlite fixedpoint copied"
                    else:
                        state = evaluate_program(
                            program, grid_store, backend="memory"
                        )
                    reached = state.relation_count("Reach")
                    assert reached == facts, "fixedpoint missed reachable nodes"
                    return reached

                if warm:
                    run_fixedpoint()
                fixedpoint_row = _median_of(n_repeats, run_fixedpoint)

                for kind, row in (
                    ("ingest", ingest_row),
                    ("lookup", lookup_row),
                    ("join", join_row),
                    ("fixedpoint", fixedpoint_row),
                ):
                    row["backend"] = backend
                    row["facts"] = facts
                    results[f"{prefix}_{kind}_{tag}"] = row
                discard(grid_store)
                discard(chain_store)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if sql_stats_out is not None:
        sql_stats_out["sizes"] = {tag: facts for tag, facts in sizes}
        sql_stats_out["mem_backend_max_facts"] = MEM_BACKEND_MAX_FACTS
        sql_stats_out["pushdown_counters"] = {
            name: value
            for name, value in REGISTRY.counters_delta(overall_base).items()
            if name.startswith("store.pushdown")
        }
    return results


def bench_pipeline(smoke: bool, repeats: int) -> Dict[str, Dict[str, object]]:
    """The bench_pipeline_vs_bruteforce workload, timed end to end.

    Three rows share the workload: ``pipeline_end_to_end`` is the
    historical row the regression guard pins; ``pipeline_trace_off`` runs
    it with tracing explicitly disabled (the production default — this is
    the disabled-path cost the observability layer must keep near zero)
    and ``pipeline_trace_on`` with span recording enabled and the
    finished spans drained after every run.  Identical verdicts across
    all three are asserted: recording must never change a decision.
    """
    schema = directory_access_schema()
    vocabulary = AccLTLSolver(schema).vocabulary
    pairs = [
        (join_query(), resident_names_query()),
        (resident_names_query(), join_query()),
    ]
    scenarios = [
        s
        for s in standard_scenarios()
        if not (smoke and s.name.startswith("synthetic"))
    ]
    max_paths = 4000 if smoke else 30000

    def run():
        verdicts = []
        for q1, q2 in pairs:
            automaton = containment_automaton(vocabulary, q1, q2, grounded=False)
            verdicts.append(
                automaton_emptiness(automaton, vocabulary, max_paths=max_paths).empty
            )
            formula = properties.containment_counterexample_formula(
                vocabulary, q1, q2
            )
            verdicts.append(
                bounded_satisfiability(
                    vocabulary,
                    formula,
                    Bounds(max_path_length=4, max_paths=max_paths),
                ).satisfiable
            )
        for scenario in scenarios:
            voc = AccLTLSolver(scenario.access_schema).vocabulary
            automaton = ltr_automaton(
                voc, scenario.probe_access, scenario.query_one
            )
            verdicts.append(
                automaton_emptiness(automaton, voc, max_paths=max_paths).empty
            )
            formula = properties.ltr_formula(
                voc, scenario.probe_access, scenario.query_one
            )
            verdicts.append(
                bounded_satisfiability(
                    voc, formula, Bounds(max_path_length=4, max_paths=max_paths)
                ).satisfiable
            )
        return verdicts

    from repro.obs import trace

    def run_trace_off():
        trace.set_enabled(False)
        return run()

    def run_trace_on():
        trace.set_enabled(True)
        trace.reset()
        try:
            verdicts = run()
        finally:
            trace.take_spans()
            trace.set_enabled(False)
        return verdicts

    results = {
        "pipeline_end_to_end": _median_of(repeats, run),
        "pipeline_trace_off": _median_of(repeats, run_trace_off),
        "pipeline_trace_on": _median_of(repeats, run_trace_on),
    }
    checksums = {row["checksum"] for row in results.values()}
    assert len(checksums) == 1, "span recording changed a pipeline verdict"
    return results


def run_benchmarks(
    smoke: bool = False, repeats: Optional[int] = None, huge: bool = False
) -> Dict[str, object]:
    if repeats is None:
        repeats = 2 if smoke else 5
    clear_plan_cache()
    results: Dict[str, Dict[str, object]] = {}
    memo_stats: Dict[str, object] = {}
    matrix_stats: Dict[str, object] = {}
    anytime_stats: Dict[str, object] = {}
    persist_stats: Dict[str, object] = {}
    sql_stats: Dict[str, object] = {}
    results.update(bench_cq_evaluation(smoke, repeats))
    results.update(bench_datalog(smoke, repeats))
    results.update(bench_emptiness(smoke, repeats, memo_stats_out=memo_stats))
    results.update(bench_snapshots(smoke, repeats))
    results.update(bench_matrices(smoke, repeats, matrix_stats_out=matrix_stats))
    results.update(bench_anytime(smoke, repeats, anytime_stats_out=anytime_stats))
    results.update(
        bench_memo_persist(smoke, repeats, persist_stats_out=persist_stats)
    )
    results.update(
        bench_sql_store(smoke, repeats, huge=huge, sql_stats_out=sql_stats)
    )
    results.update(bench_pipeline(smoke, repeats))
    compiled = results["cq_compiled"]["median_s"]
    naive = results["cq_naive"]["median_s"]
    snap_copy = results["snapshot_depth_copy"]["median_s"]
    snap_store = results["snapshot_depth_store"]["median_s"]
    datalog_posthoc = results["datalog_fixedpoint_posthoc"]["median_s"]
    datalog_delta = results["datalog_fixedpoint_delta_dict"]["median_s"]
    relevance_seq = results["relevance_matrix_seq"]["median_s"]
    relevance_batched = results["relevance_matrix_batched"]["median_s"]
    containment_seq = results["containment_matrix_seq"]["median_s"]
    containment_batched = results["containment_matrix_batched"]["median_s"]
    trace_off = results["pipeline_trace_off"]["median_s"]
    trace_on = results["pipeline_trace_on"]["median_s"]
    memo_cold = results["memo_persist_cold"]["median_s"]
    memo_warm = results["memo_persist_warm"]["median_s"]
    return {
        "benchmark": "bench_evaluation",
        "mode": "smoke" if smoke else "full",
        "repeats": repeats,
        "speedup_cq_naive_over_compiled": round(naive / compiled, 2)
        if compiled
        else None,
        "speedup_datalog_delta_over_posthoc": round(
            datalog_posthoc / datalog_delta, 2
        )
        if datalog_delta
        else None,
        "speedup_snapshot_store_over_copy": round(snap_copy / snap_store, 2)
        if snap_store
        else None,
        "speedup_relevance_matrix_batched": round(
            relevance_seq / relevance_batched, 2
        )
        if relevance_batched
        else None,
        "speedup_containment_matrix_batched": round(
            containment_seq / containment_batched, 2
        )
        if containment_batched
        else None,
        "trace_overhead_ratio": round(trace_on / trace_off, 3)
        if trace_off
        else None,
        "speedup_memo_persist_warm": round(memo_cold / memo_warm, 2)
        if memo_warm
        else None,
        "memo_persist_stats": persist_stats,
        "sql_store_stats": sql_stats,
        "matrix_engine_stats": matrix_stats,
        "anytime_stats": anytime_stats,
        "emptiness_memo_stats": memo_stats,
        "plan_cache": plan_cache_info(),
        "results": results,
    }


def main(argv: Optional[List[str]] = None) -> Dict[str, object]:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="small sizes / few repeats"
    )
    parser.add_argument(
        "--huge",
        action="store_true",
        help="add the 10M-fact sql_store rows (disk-heavy, SQL backend only)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="override repeat count"
    )
    parser.add_argument(
        "--json", action="store_true", help="write the JSON report"
    )
    parser.add_argument(
        "--json-path",
        default="BENCH_evaluation.json",
        help="where to write the JSON report (with --json)",
    )
    args = parser.parse_args(argv)
    report = run_benchmarks(
        smoke=args.smoke, repeats=args.repeats, huge=args.huge
    )
    for name, row in report["results"].items():
        if row.get("status") == "skipped":
            print(f"{name:24s} skipped ({row['reason']})")
            continue
        print(
            f"{name:24s} median {row['median_s']*1000:9.1f} ms "
            f"(min {row['min_s']*1000:.1f}, max {row['max_s']*1000:.1f}, "
            f"n={row['repeats']})"
        )
    print(
        "cq naive/compiled speedup:",
        report["speedup_cq_naive_over_compiled"],
    )
    print(
        "datalog delta/posthoc speedup:",
        report["speedup_datalog_delta_over_posthoc"],
    )
    print(
        "snapshot store/copy speedup:",
        report["speedup_snapshot_store_over_copy"],
    )
    print(
        "relevance matrix batched speedup:",
        report["speedup_relevance_matrix_batched"],
    )
    print(
        "containment matrix batched speedup:",
        report["speedup_containment_matrix_batched"],
    )
    print(
        "trace overhead ratio (on/off):",
        report["trace_overhead_ratio"],
    )
    print(
        "memo persist warm speedup:",
        report["speedup_memo_persist_warm"],
        report["memo_persist_stats"],
    )
    print(
        "sql store stats:",
        report["sql_store_stats"],
    )
    print(
        "matrix engine stats:",
        report["matrix_engine_stats"],
    )
    print(
        "emptiness memo stats:",
        report["emptiness_memo_stats"],
    )
    anytime = report["anytime_stats"]
    print(
        "anytime streaming: first verdict after",
        anytime.get("first_verdict_ms"),
        "ms, batch total",
        anytime.get("batch_total_ms"),
        "ms (node cap",
        anytime.get("node_cap"),
        ")",
    )
    if args.json:
        with open(args.json_path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print("wrote", args.json_path)
    return report


def test_bench_evaluation_smoke(tmp_path):
    """Smoke entry point for the pytest benchmark harness (tier-1 budget)."""
    target = tmp_path / "BENCH_evaluation.json"
    report = main(["--smoke", "--json", "--json-path", str(target)])
    assert target.exists()
    assert report["results"]["pipeline_end_to_end"]["median_s"] > 0
    assert report["speedup_cq_naive_over_compiled"] is not None
    assert report["results"]["sql_store_fixedpoint_2k"]["backend"] == "sqlite"
    assert report["results"]["mem_store_join_2k"]["backend"] == "memory"


if __name__ == "__main__":
    main()
