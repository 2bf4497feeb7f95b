"""The batched decision engine: one reduction layer under the access procedures.

:class:`DecisionEngine` turns the per-call decision procedures of
:mod:`repro.access` and :mod:`repro.core` into a batched service:

* every request is normalised into a :class:`~repro.engine.reduction.ReductionTask`
  (canonical fingerprint payload + back-end tag);
* identical tasks inside one batch compute **once** (order-preserving
  dedup on the canonical fingerprints);
* results are memoized **across** requests, keyed by the
  ``Snapshot.fingerprint()`` / canonical-structure keys of
  :mod:`repro.engine.reduction`, so matrix-style workloads (relevance of
  every access in a schema, pairwise containment over a query set,
  answerability sweeps) share one memo, one plan cache and one snapshot
  store;
* every batch runs in process, one task after the other, and a batch
  budget is enforced between tasks and inside the budget-aware back-ends.

The per-call front doors (``long_term_relevant`` & friends,
:meth:`AccLTLSolver.satisfiable`, ``find_satisfying_word``,
``ctl_satisfiable_in_lts``, ``datalog_contained_in_ucq``) call their
procedures directly, with no engine in between; those procedures are also
what the executors below run, so an engine result is field-identical to
the direct call.  Emptiness
tasks keep ``automaton_emptiness``'s default ``memoize=True``, so their
search runs with the expansion memo and the guard cache on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.engine.reduction import (
    BOUNDED_CHECK,
    DIRECT,
    EMPTINESS,
    CachePolicy,
    Deduper,
    ReductionResult,
    ReductionTask,
    instance_key,
    query_key,
    schema_key,
    try_key,
    values_key,
    vocabulary_key,
)
from repro.store.verdict_cache import VerdictCache


# ----------------------------------------------------------------------
# Task normalisers
# ----------------------------------------------------------------------
def relevance_shared_key(
    schema, query, snap, grounded: bool, require_boolean_access: bool
):
    """The access-independent part of a relevance task key.

    Batch callers compute this once per matrix; per-access keys then cost
    one small tuple concatenation instead of re-fingerprinting the schema
    and query for every candidate.
    """
    return try_key(
        lambda: (
            schema_key(schema),
            query_key(query),
            snap,
            grounded,
            require_boolean_access,
        )
    )


def relevance_task(
    schema,
    access,
    query,
    initial=None,
    grounded: bool = False,
    require_boolean_access: bool = True,
    shared_key=None,
    cost_hint: Optional[int] = None,
) -> ReductionTask:
    """Normalise a long-term-relevance request (Example 2.3).

    *cost_hint* is accepted and ignored: ``perfbench/serve_warm.py``
    still passes it.
    """
    snap = instance_key(initial)
    if shared_key is None:
        shared_key = relevance_shared_key(
            schema, query, snap, grounded, require_boolean_access
        )
    key = (
        try_key(lambda: shared_key + (access,)) if shared_key is not None else None
    )
    return ReductionTask(
        kind="relevance",
        backend=BOUNDED_CHECK,
        args=(schema, access, query, snap, grounded, require_boolean_access),
        key=key,
    )


def containment_task(
    schema,
    query_one,
    query_two,
    initial=None,
    max_identified_variables: int = 8,
    key_parts=None,
) -> ReductionTask:
    """Normalise an AP-containment request (Example 2.2).

    *key_parts*, when given, is ``(schema_key, q1_key, q2_key)`` computed
    by a batch caller (the matrix fingerprints each query once instead of
    once per pair).
    """
    snap = instance_key(initial)
    if key_parts is None:
        key_parts = try_key(
            lambda: (schema_key(schema), query_key(query_one), query_key(query_two))
        )
    key = (
        try_key(lambda: key_parts + (snap, max_identified_variables))
        if key_parts is not None
        else None
    )
    return ReductionTask(
        kind="containment_ap",
        backend=BOUNDED_CHECK,
        args=(schema, query_one, query_two, snap, max_identified_variables),
        key=key,
    )


def answerability_task(
    schema,
    query,
    hidden_instance,
    initial_values=(),
) -> ReductionTask:
    """Normalise an exact-answerability request (accessible-part check)."""
    # Materialise the values first: the iterable feeds both the key and
    # the args, and a one-shot iterator consumed twice would silently
    # empty one of them.
    values = tuple(initial_values)
    snap = instance_key(hidden_instance)
    key = try_key(
        lambda: (schema_key(schema), query_key(query), snap, values_key(values))
    )
    return ReductionTask(
        kind="answerability",
        backend=BOUNDED_CHECK,
        args=(schema, query, snap, values),
        key=key,
    )


def emptiness_task(
    automaton,
    vocabulary,
    initial=None,
    **kwargs,
) -> ReductionTask:
    """Normalise an A-automaton emptiness request (Theorem 4.6)."""
    snap = instance_key(initial)
    key = try_key(
        lambda: (
            vocabulary_key(vocabulary),
            automaton.initial,
            tuple(automaton.states),
            automaton.accepting,
            tuple(automaton.transitions),
            snap,
            tuple(sorted(kwargs.items())),
        )
    )
    return ReductionTask(
        kind="emptiness",
        backend=EMPTINESS,
        args=(automaton, vocabulary, snap, dict(kwargs)),
        key=key,
    )


def bounded_check_task(
    vocabulary,
    formula,
    bounds,
    initial=None,
    fact_pool=None,
    value_pool=None,
    grounded_only: bool = False,
    enforce_schema_sanity: bool = True,
    budget=None,
) -> ReductionTask:
    """Normalise a bounded witness-path satisfiability request.

    An explicit *budget* becomes part of the fingerprint, so a
    deadline-capped request never deduplicates against (or is served the
    partial result of) an uncapped one.  Batch-level budgets injected by
    :meth:`DecisionEngine.iter_results` happen *after* fingerprinting and
    stay out of the key; the engine instead refuses to memoize partial
    (``interrupted``/``unknown``) values.
    """
    snap = instance_key(initial)
    fact_pool = tuple(fact_pool) if fact_pool is not None else None
    value_pool = tuple(value_pool) if value_pool is not None else None
    key = try_key(
        lambda: (
            vocabulary_key(vocabulary),
            formula,
            bounds,
            snap,
            fact_pool,
            value_pool,
            grounded_only,
            enforce_schema_sanity,
            budget,
        )
    )
    return ReductionTask(
        kind="bounded_check",
        backend=BOUNDED_CHECK,
        args=(
            vocabulary,
            formula,
            bounds,
            snap,
            fact_pool,
            value_pool,
            grounded_only,
            enforce_schema_sanity,
            budget,
        ),
        key=key,
    )


def accltl_sat_task(
    access_schema,
    formula,
    initial=None,
    grounded_only: bool = False,
    max_paths: int = 40000,
    bounded_path_length: int = 4,
) -> ReductionTask:
    """Normalise an AccLTL satisfiability request (the Table 1 dispatcher)."""
    snap = instance_key(initial)
    key = try_key(
        lambda: (
            schema_key(access_schema),
            formula,
            snap,
            grounded_only,
            max_paths,
            bounded_path_length,
        )
    )
    return ReductionTask(
        kind="accltl_sat",
        backend=DIRECT,
        args=(
            access_schema,
            formula,
            snap,
            grounded_only,
            max_paths,
            bounded_path_length,
        ),
        key=key,
    )


def ltl_word_task(formula, letters=None, max_length=None) -> ReductionTask:
    """Normalise a propositional-LTL finite-word search (Theorem 4.12 core)."""
    normalized = (
        tuple(frozenset(letter) for letter in letters)
        if letters is not None
        else None
    )
    key = try_key(lambda: (formula, normalized, max_length))
    return ReductionTask(
        kind="ltl_word",
        backend=DIRECT,
        args=(formula, normalized, max_length),
        key=key,
    )


def ctl_check_task(vocabulary, lts, formula) -> ReductionTask:
    """Normalise a ``CTL_EX`` model-checking request over an explored LTS."""
    key = try_key(
        lambda: (vocabulary_key(vocabulary), tuple(lts.transitions), formula)
    )
    return ReductionTask(
        kind="ctl_check",
        backend=DIRECT,
        args=(vocabulary, lts, formula),
        key=key,
    )


def datalog_containment_task(
    program,
    query,
    max_depth: int = 6,
    max_expansions: int = 2000,
) -> ReductionTask:
    """Normalise a Datalog ⊆ positive-query check (Proposition 4.11)."""
    key = try_key(
        lambda: (
            tuple(program.rules),
            tuple((relation.name, relation.arity) for relation in program.edb_schema),
            program.goal,
            query_key(query),
            max_depth,
            max_expansions,
        )
    )
    return ReductionTask(
        kind="datalog_containment",
        backend=DIRECT,
        args=(program, query, max_depth, max_expansions),
        key=key,
    )


def _query_size(query) -> int:
    """The size of *query* as a UCQ (``perfbench/serve_warm.py`` reads it)."""
    from repro.queries.ucq import as_ucq

    return as_ucq(query).size()


# ----------------------------------------------------------------------
# Task executors
# ----------------------------------------------------------------------
def _materialise(payload):
    from repro.store.snapshot import Snapshot

    if payload is None:
        return None
    if isinstance(payload, Snapshot):
        return payload.to_instance()
    # An SQL generation snapshot (``instance_key`` of an SQL store) is a
    # state token, not an instance; its pinned read-only view is one.
    return payload.view()


def _execute_relevance(args):
    from repro.access.relevance import long_term_relevant_legacy

    schema, access, query, snap, grounded, require_boolean = args
    return long_term_relevant_legacy(
        schema,
        access,
        query,
        initial=_materialise(snap),
        grounded=grounded,
        require_boolean_access=require_boolean,
    )


def _execute_containment(args):
    from repro.access.containment_ap import contained_under_access_patterns_legacy

    schema, query_one, query_two, snap, max_identified = args
    return contained_under_access_patterns_legacy(
        schema,
        query_one,
        query_two,
        initial=_materialise(snap),
        max_identified_variables=max_identified,
    )


def _execute_answerability(args):
    from repro.access.answerability import is_answerable_exactly_legacy

    schema, query, snap, initial_values = args
    return is_answerable_exactly_legacy(
        schema, query, _materialise(snap), initial_values
    )


def _execute_emptiness(args):
    from repro.automata.emptiness import automaton_emptiness

    automaton, vocabulary, snap, kwargs = args
    return automaton_emptiness(
        automaton, vocabulary, initial=_materialise(snap), **kwargs
    )


def _execute_bounded_check(args):
    from repro.core.bounded_check import bounded_satisfiability_legacy

    (
        vocabulary,
        formula,
        bounds,
        snap,
        fact_pool,
        value_pool,
        grounded_only,
        enforce_schema_sanity,
        budget,
    ) = args
    return bounded_satisfiability_legacy(
        vocabulary,
        formula,
        bounds,
        initial=_materialise(snap),
        fact_pool=fact_pool,
        value_pool=value_pool,
        grounded_only=grounded_only,
        enforce_schema_sanity=enforce_schema_sanity,
        budget=budget,
    )


@dataclass(frozen=True)
class _LTLWordValue:
    """Memo envelope for :func:`repro.ltl.sat.find_satisfying_word`.

    The raw return value is ``Optional[List[Letter]]`` — ``None`` means
    *unsatisfiable*, which the engine would refuse to memoize (a ``None``
    value reads as "no result").  Wrapping makes negative verdicts
    first-class cacheable values, and the immutable tuple keeps a memoized
    witness from being mutated by whoever read it.
    """

    word: Optional[Tuple] = None


@dataclass(frozen=True)
class _CTLWitnessValue:
    """Memo envelope for :func:`repro.branching.ctl.ctl_satisfiable_in_lts`
    (``None`` — no satisfying transition — is a cacheable verdict too)."""

    witness: object = None


def _execute_accltl_sat(args):
    from repro.core.solver import AccLTLSolver

    access_schema, formula, snap, grounded_only, max_paths, bounded_length = args
    return AccLTLSolver(access_schema).satisfiable_legacy(
        formula,
        initial=_materialise(snap),
        grounded_only=grounded_only,
        max_paths=max_paths,
        bounded_path_length=bounded_length,
    )


def _execute_ltl_word(args):
    from repro.ltl.sat import find_satisfying_word

    formula, letters, max_length = args
    word = find_satisfying_word(formula, letters=letters, max_length=max_length)
    return _LTLWordValue(tuple(word) if word is not None else None)


def _execute_ctl_check(args):
    from repro.branching.ctl import ctl_satisfiable_in_lts

    vocabulary, lts, formula = args
    return _CTLWitnessValue(ctl_satisfiable_in_lts(vocabulary, lts, formula))


def _execute_datalog_containment(args):
    from repro.datalog.containment import datalog_contained_in_ucq

    program, query, max_depth, max_expansions = args
    return datalog_contained_in_ucq(
        program, query, max_depth=max_depth, max_expansions=max_expansions
    )


_EXECUTORS = {
    "relevance": _execute_relevance,
    "containment_ap": _execute_containment,
    "answerability": _execute_answerability,
    "emptiness": _execute_emptiness,
    "bounded_check": _execute_bounded_check,
    "accltl_sat": _execute_accltl_sat,
    "ltl_word": _execute_ltl_word,
    "ctl_check": _execute_ctl_check,
    "datalog_containment": _execute_datalog_containment,
}


def _refresh_containment(value):
    import dataclasses

    if value.counterexample is None and value.stats is None:
        return value
    return dataclasses.replace(
        value,
        counterexample=(
            value.counterexample.copy()
            if value.counterexample is not None
            else None
        ),
        stats=dict(value.stats) if value.stats is not None else None,
    )


def _refresh_emptiness(value):
    import dataclasses

    if value.stats is None:
        return value
    return dataclasses.replace(value, stats=dict(value.stats))


#: Per-kind isolation of caller-owned mutable state.  Result dataclasses
#: are frozen, but an AP-containment counterexample is an Instance the
#: caller owns and may mutate (the legacy contract), and stats dicts are
#: plain dicts — so a value served from the memo (or shared by in-batch
#: dedup) is refreshed: the memo keeps the pristine original and every
#: requester gets its own copy of the mutable parts.  Kinds whose results
#: are fully immutable (witness paths are frozen dataclasses of
#: frozensets) serve identity.
_REFRESHERS = {
    "containment_ap": _refresh_containment,
    "emptiness": _refresh_emptiness,
}


def _refresh(kind: str, value):
    refresher = _REFRESHERS.get(kind)
    return refresher(value) if refresher is not None else value


def execute_task(task: ReductionTask):
    """Execute one task."""
    try:
        executor = _EXECUTORS[task.kind]
    except KeyError:
        raise ValueError(f"unknown reduction task kind {task.kind!r}") from None
    return executor(task.args)


#: Task kinds whose executors honour a :class:`~repro.core.budget.Budget`
#: natively.  These always run — even on an expired batch clock — because
#: a zero-remaining budget makes them return a *tagged* partial result
#: (an UNKNOWN with a resume frontier, an interrupted bounded check)
#: immediately, which is strictly more useful than a ``"deadline"`` skip.
_BUDGET_AWARE_KINDS = frozenset({"emptiness", "bounded_check"})


def _is_partial(value) -> bool:
    """Whether a result is budget-truncated (never memoized).

    An emptiness ``UNKNOWN`` or an ``interrupted`` bounded check depends
    on *when* it was cut short, not just on the task fingerprint; serving
    it from the memo would turn a transient deadline into a permanent
    non-answer.
    """
    return bool(getattr(value, "unknown", False)) or bool(
        getattr(value, "interrupted", False)
    )


def _with_budget(task: ReductionTask, clock) -> ReductionTask:
    """Inject the batch budget's unspent portion into a budget-aware task.

    Emptiness and bounded-check back-ends honour budgets natively; a task
    already carrying its own budget (or a resume frontier) keeps it.
    Injection happens after fingerprinting, so batch deadlines never
    fragment the memo key space — the partial-result check in
    :meth:`DecisionEngine.iter_results` keeps truncated values out of the
    memo instead.
    """
    import dataclasses

    if clock is None:
        return task
    remaining = clock.remaining_budget()
    if remaining.unbounded:
        return task
    if task.kind == "emptiness":
        automaton, vocabulary, snap, kwargs = task.args
        if kwargs.get("budget") is not None or kwargs.get("resume_from") is not None:
            return task
        new_kwargs = dict(kwargs)
        new_kwargs["budget"] = remaining
        return dataclasses.replace(
            task, args=(automaton, vocabulary, snap, new_kwargs)
        )
    if task.kind == "bounded_check":
        if task.args[-1] is not None:
            return task
        return dataclasses.replace(task, args=task.args[:-1] + (remaining,))
    return task


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class DecisionEngine:
    """Normalise, deduplicate, memoize and run reduction tasks.

    Parameters
    ----------
    cache_policy:
        Per-workload cache configuration (defaults to
        :class:`~repro.engine.reduction.CachePolicy`: cross-request memo
        on).
    parallel:
        Accepted and ignored: every batch runs in process.  The
        ``perfbench`` workloads still pass it.
    """

    def __init__(
        self,
        cache_policy: Optional[CachePolicy] = None,
        parallel: Optional[bool] = None,
    ) -> None:
        self.cache_policy = cache_policy if cache_policy is not None else CachePolicy()
        policy = self.cache_policy
        # Without cross-request memoization there is no cross-request
        # state to persist either — the persistent tier is pinned off so
        # the environment cannot opt a memo-less engine into the store.
        self._memo = VerdictCache(
            capacity=policy.memo_capacity,
            persist_path=policy.persist_path if policy.memoize_results else "",
            lock_timeout_s=policy.lock_timeout_s,
            compact_segments=policy.compact_segments,
        )
        self._stats: Dict[str, int] = {
            "requests": 0,
            "computed": 0,
            "memo_hits": 0,
            "memo_disk_hits": 0,
            "batch_dedup_hits": 0,
            "uncacheable": 0,
            "deadline_tasks": 0,
            # Always 0: ``perfbench/layers.py::_engine_retries`` reads them.
            "pool_retries": 0,
            "pool_timeouts": 0,
            "pool_inprocess_fallbacks": 0,
        }
        #: Per-request latency/provenance records of the most recent
        #: batch (one ``{"index", "kind", "provenance", "latency_s"}``
        #: dict per yielded result, in yield order); see
        #: :meth:`last_batch_summary`.
        self.last_batch_profile: List[Dict[str, object]] = []
        _metrics.track("engine", self, lambda engine: engine._stats)

    # ------------------------------------------------------------------
    # Core execution
    # ------------------------------------------------------------------
    def run(self, task: ReductionTask) -> ReductionResult:
        """Execute one task through the memo (one-task batch)."""
        return self.run_batch([task])[0]

    def run_batch(
        self, tasks: Sequence[ReductionTask], budget=None
    ) -> List[ReductionResult]:
        """Execute a batch, deduplicating and memoizing across requests.

        Results come back in input order with per-task provenance; tasks
        with equal fingerprints resolve to one computation, and fingerprints
        already answered by an earlier batch (or single call) on this
        engine are served from the memo without touching a solver.

        A *budget* (:class:`repro.core.budget.Budget`) caps the whole
        batch: budget-aware back-ends (emptiness, bounded check) receive
        the unspent portion and return tagged partial results, and once
        the deadline passes remaining tasks come back with provenance
        ``"deadline"`` and ``value=None`` instead of blocking the batch.
        """
        results: List[Optional[ReductionResult]] = [None] * len(tasks)
        for index, result in self.iter_results(tasks, budget=budget):
            results[index] = result
        return results  # type: ignore[return-value]

    def iter_results(
        self, tasks: Sequence[ReductionTask], budget=None
    ) -> Iterator[Tuple[int, ReductionResult]]:
        """Stream batch results as ``(input_index, result)`` pairs.

        Memo hits are yielded immediately — before any solver runs — so a
        caller watching for a particular verdict can act on cached answers
        at first-verdict latency.  Remaining tasks follow in submission
        order as their values land (each immediately followed by its
        in-batch duplicates), with the same dedup/memo semantics as
        :meth:`run_batch`.  Budget-truncated values (emptiness ``UNKNOWN``,
        interrupted bounded checks) are never memoized.
        """
        memoize = self.cache_policy.memoize_results
        stats = self._stats
        stats["requests"] += len(tasks)
        clock = (
            budget.start() if budget is not None and not budget.unbounded else None
        )
        # Latency measurement only: feeds last_batch_profile, never a
        # verdict or a fingerprint (stats are excluded from result
        # equality), so wall time cannot change what a batch returns.
        started = time.perf_counter()  # repro: noqa[TIME001]
        profile: List[Dict[str, object]] = []
        self.last_batch_profile = profile

        def _profiled(index: int, kind: str, provenance: str):
            latency = time.perf_counter() - started  # repro: noqa[TIME001]
            profile.append(
                {
                    "index": index,
                    "kind": kind,
                    "provenance": provenance,
                    "latency_s": latency,
                }
            )
            _metrics.observe("engine.request_latency_s", latency)

        batch_span = _trace.begin("engine.batch", tasks=len(tasks))
        try:
            dedup = Deduper()
            pending: List[Tuple[int, ReductionTask, Optional[Tuple]]] = []
            followers: Dict[int, List[int]] = {}
            classify_span = _trace.begin("engine.memo_dedup")
            for index, task in enumerate(tasks):
                fingerprint = task.fingerprint()
                if fingerprint is None:
                    stats["uncacheable"] += 1
                    pending.append((index, task, None))
                    continue
                if memoize:
                    value, tier = self._memo.lookup(fingerprint)
                    if tier is not None:
                        if tier == "disk":
                            stats["memo_disk_hits"] += 1
                            provenance = "memo_disk"
                        else:
                            stats["memo_hits"] += 1
                            provenance = "memo"
                        _profiled(index, task.kind, provenance)
                        yield index, ReductionResult(
                            _refresh(task.kind, value),
                            task.kind,
                            task.backend,
                            provenance,
                            fingerprint,
                        )
                        continue
                first = dedup.register(fingerprint, index)
                if first is not None:
                    stats["batch_dedup_hits"] += 1
                    followers.setdefault(first, []).append(index)
                    continue
                pending.append((index, task, fingerprint))
            _trace.end(
                classify_span,
                memo_hits=len(profile),
                pending=len(pending),
            )
            drain_span = _trace.begin("engine.drain", pending=len(pending))
            try:
                for (
                    (index, task, fingerprint),
                    value,
                    provenance,
                ) in self._compute_stream(pending, clock):
                    if provenance == "deadline":
                        stats["deadline_tasks"] += 1
                    else:
                        stats["computed"] += 1
                    shared = False
                    if (
                        memoize
                        and fingerprint is not None
                        and value is not None
                        and provenance != "deadline"
                        and not _is_partial(value)
                    ):
                        # The memo keeps the pristine value; every requester —
                        # including this first one — receives its own copy of any
                        # caller-owned mutable state (see _REFRESHERS).
                        self._memo.put(fingerprint, value)
                        shared = True
                    duplicates = followers.get(index, ())
                    _profiled(index, task.kind, provenance)
                    yield index, ReductionResult(
                        _refresh(task.kind, value)
                        if value is not None and (shared or duplicates)
                        else value,
                        task.kind,
                        task.backend,
                        provenance,
                        fingerprint,
                    )
                    for follower in duplicates:
                        follower_task = tasks[follower]
                        follower_provenance = (
                            "deadline" if provenance == "deadline" else "dedup"
                        )
                        _profiled(follower, follower_task.kind, follower_provenance)
                        yield follower, ReductionResult(
                            _refresh(follower_task.kind, value)
                            if value is not None
                            else None,
                            follower_task.kind,
                            follower_task.backend,
                            follower_provenance,
                            fingerprint,
                        )
            finally:
                _trace.end(drain_span)
        finally:
            # Spill this batch's new verdicts to the persistent tier (one
            # segment per batch); every storage failure inside degrades to
            # a counted, traced no-op — the batch's results are already
            # out, so a flush can never change a verdict.
            self._memo.flush()
            _trace.end(batch_span)

    def _compute_stream(self, pending, clock):
        """Yield ``(pending_entry, value, provenance)`` in submission order.

        The batch deadline is enforced between tasks: once the clock has
        expired, a task that is not budget-aware is skipped with
        provenance ``"deadline"``.
        """
        for entry in pending:
            _, task, _ = entry
            if (
                clock is not None
                and clock.expired()
                and task.kind not in _BUDGET_AWARE_KINDS
            ):
                yield entry, None, "deadline"
                continue
            with _trace.trace_span(f"task:{task.kind}"):
                value = execute_task(_with_budget(task, clock))
            yield entry, value, "computed"

    # ------------------------------------------------------------------
    # Batch entry points (the matrix workloads)
    # ------------------------------------------------------------------
    def relevance_matrix(
        self,
        schema,
        accesses: Sequence,
        query,
        initial=None,
        grounded: bool = False,
        require_boolean_access: bool = True,
        budget=None,
    ) -> List[object]:
        """Long-term relevance of *every* access, in order.

        The instance snapshot and canonical query/schema keys are built
        once; duplicate accesses (the norm when candidates are projected
        from observed tuples) compute once.  A *budget* bounds the whole
        matrix (expired tasks yield ``None``).
        """
        snap = instance_key(initial)
        shared = relevance_shared_key(
            schema, query, snap, grounded, require_boolean_access
        )
        tasks = [
            relevance_task(
                schema,
                access,
                query,
                initial=snap,
                grounded=grounded,
                require_boolean_access=require_boolean_access,
                shared_key=shared,
            )
            for access in accesses
        ]
        return [result.value for result in self.run_batch(tasks, budget=budget)]

    def containment_matrix(
        self,
        schema,
        queries: Sequence,
        others: Optional[Sequence] = None,
        initial=None,
        max_identified_variables: int = 8,
        budget=None,
    ) -> List[List[object]]:
        """Pairwise AP-containment: ``matrix[i][j]`` is ``Q_i ⊆ Q_j``.

        With *others* unset the matrix is square over *queries*.
        Structurally equal queries (regardless of their cosmetic names)
        deduplicate, so a workload's repeated submissions are solved once.
        """
        snap = instance_key(initial)
        column_queries = queries if others is None else others
        sk = try_key(lambda: schema_key(schema))
        row_keys = [try_key(lambda q=q: query_key(q)) for q in queries]
        column_keys = (
            row_keys
            if others is None
            else [try_key(lambda q=q: query_key(q)) for q in column_queries]
        )
        tasks = [
            containment_task(
                schema,
                query_one,
                query_two,
                initial=snap,
                max_identified_variables=max_identified_variables,
                key_parts=(
                    (sk, row_keys[i], column_keys[j])
                    if sk is not None
                    and row_keys[i] is not None
                    and column_keys[j] is not None
                    else None
                ),
            )
            for i, query_one in enumerate(queries)
            for j, query_two in enumerate(column_queries)
        ]
        values = [result.value for result in self.run_batch(tasks, budget=budget)]
        width = len(column_queries)
        return [values[row * width : (row + 1) * width] for row in range(len(queries))]

    def answerability_sweep(
        self,
        schema,
        query,
        hidden_instances: Sequence,
        initial_values=(),
        budget=None,
    ) -> List[bool]:
        """Exact answerability of *query* across a sweep of hidden instances."""
        values = tuple(initial_values)  # one shared iterable, many tasks
        tasks = [
            answerability_task(schema, query, hidden, values)
            for hidden in hidden_instances
        ]
        return [result.value for result in self.run_batch(tasks, budget=budget)]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Request/compute counters plus the derived cross-request hit rate."""
        stats: Dict[str, object] = dict(self._stats)
        requests = self._stats["requests"]
        saved = (
            self._stats["memo_hits"]
            + self._stats["memo_disk_hits"]
            + self._stats["batch_dedup_hits"]
        )
        stats["memo_entries"] = len(self._memo)
        stats["cross_request_hit_rate"] = (
            round(saved / requests, 4) if requests else None
        )
        stats["verdict_cache"] = self._memo.stats()
        return stats

    def last_batch_summary(self) -> Dict[str, object]:
        """Latency/provenance aggregate of the most recent batch.

        ``by_provenance`` counts results per provenance tag,
        ``first_verdict_s`` is the latency of the first yielded result
        (what a streaming consumer waited), ``total_s`` the latency of
        the last.  Empty batches return zeroed fields.
        """
        profile = self.last_batch_profile
        by_provenance: Dict[str, int] = {}
        for record in profile:
            tag = str(record["provenance"])
            by_provenance[tag] = by_provenance.get(tag, 0) + 1
        return {
            "requests": len(profile),
            "by_provenance": by_provenance,
            "first_verdict_s": profile[0]["latency_s"] if profile else 0.0,
            "total_s": profile[-1]["latency_s"] if profile else 0.0,
        }

    def clear(self) -> None:
        """Drop the in-memory memo tier (counters and the disk tier are kept)."""
        self._memo.clear()


_SHARED_ENGINE: Optional[DecisionEngine] = None


def shared_engine() -> DecisionEngine:
    """A lazily built process-wide engine that no library code runs on.

    Every front door calls its procedure directly.  This is kept for the
    repository benchmark only: ``perfbench/decide_cold.py`` calls
    ``shared_engine().clear()`` every round.
    """
    global _SHARED_ENGINE
    if _SHARED_ENGINE is None:
        _SHARED_ENGINE = DecisionEngine()
    return _SHARED_ENGINE
