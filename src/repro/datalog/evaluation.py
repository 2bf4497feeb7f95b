"""Bottom-up evaluation of Datalog programs.

We provide naive and semi-naive fixedpoint evaluation.  Semi-naive is the
default, and the delta restriction is **compiled into the join plans**:
for a rule with k body atoms, round n executes (up to) k delta-variant
plans (:func:`repro.queries.evaluation.satisfying_assignments_delta`),
the i-th binding body atom i to the facts derived in round n-1, atoms
before i to the previous generation and atoms after i to the full state —
the classic delta-rule rewrite, so no derivation is ever re-joined over
the whole instance and then discarded post hoc.  Naive evaluation
(``semi_naive=False``) re-derives everything each round and serves as the
oracle the property tests compare against.  Both produce the least
fixedpoint ``P(D)`` of the program on a database ``D`` (the notation of
the paper, Section 4.1), round by identical round.

The fixedpoint state lives on the persistent fact store by default
(:class:`~repro.store.snapshot.SnapshotInstance`).  Each round is
set-based: on the memory store and the dict oracle its derivations are
collected per head relation, one ``missing`` call per relation finds the
new ones, and one ``add_all`` per relation adds them.  On SQLite the
round stays inside SQLite: a delta variant that pushes down inserts its
head rows into a temp table with ``INSERT ... SELECT``, a declined
variant (or a rule without variants, or naive mode) adds the head tuples
it derives in Python to the same table with one ``executemany``, and one
``SELECT DISTINCT`` anti-join per head relation turns them into the next
round's delta table.  Python reads each new fact once, to validate it
and hash it into the store's fingerprint, and reads a delta only when a
declined variant scans it.  The previous-generation side of the delta plans is the
store's ``pin()`` of the pre-round state — a shared
:meth:`~repro.store.snapshot.Snapshot.view` on the memory backend (warm
indexes included), an uncommitted generation on SQLite, so an in-place
SQLite fixedpoint runs as one open transaction.  ``generation_log``
provenance is a by-product (committed ``snapshot()`` tokens) rather than
a separate mode.  ``store_backed=False`` keeps the dict-backed
:class:`~repro.relational.instance.Instance` as the oracle backend (the
old-generation side then lags one round behind in a second plain
instance).

Rule bodies are evaluated through the compiled join engine
(:mod:`repro.queries.plan_cache`); the body query of each rule is built
once and cached, so a fixedpoint that re-fires the same rules round after
round compiles each rule (and each of its delta variants) exactly once.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.datalog.program import DatalogProgram, Rule
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.queries.cq import ConjunctiveQuery
from repro.queries.evaluation import (
    satisfying_assignments,
    satisfying_assignments_delta,
)
from repro.queries.plan_cache import (
    SRC_NEW,
    SRC_OLD,
    execute_delta_plan,
    get_delta_plan,
    get_plan,
)
from repro.queries.terms import Constant, Variable
from repro.relational.instance import Instance
from repro.store import backend as _backend
from repro.store.snapshot import Snapshot, SnapshotInstance
from repro.store.sqlstore import SQLDelta, SQLStoreInstance

class FixedpointTruncated(RuntimeError):
    """``evaluate_program(max_rounds=...)`` ran out of rounds unconverged.

    A truncated run is *not* the least fixedpoint, and silently returning
    it makes truncation indistinguishable from convergence — ``accepts``
    or ``goal_facts`` built on it could report wrong verdicts.  The
    exception carries the partial state for callers that want it; pass
    ``allow_truncation=True`` to opt into receiving the truncated state
    as a return value instead.

    Note the semantics: the error means convergence was **not verified**
    within the budget (the last executed round still derived new facts),
    not necessarily that further rounds would derive more.
    """

    def __init__(self, rounds: int, state: Union[Instance, SnapshotInstance]) -> None:
        super().__init__(
            f"Datalog fixedpoint not reached within max_rounds={rounds}; "
            "pass allow_truncation=True to accept the partial result"
        )
        self.rounds = rounds
        self.state = state


# Per-rule body queries, keyed by rule identity with LRU eviction (the
# same idiom as the plan cache).  Rules are frozen dataclasses owned by
# their program; keeping the rule in the value pins it so the identity key
# cannot be recycled while the entry lives.
_BODY_QUERY_CACHE: "OrderedDict[int, Tuple[Rule, ConjunctiveQuery]]" = OrderedDict()
_BODY_QUERY_CACHE_MAX = 4096


def _body_query(rule: Rule) -> ConjunctiveQuery:
    cached = _BODY_QUERY_CACHE.get(id(rule))
    if cached is not None and cached[0] is rule:
        _BODY_QUERY_CACHE.move_to_end(id(rule))
        return cached[1]
    query = ConjunctiveQuery(
        atoms=rule.body,
        head=(),
        equalities=rule.equalities,
        inequalities=rule.inequalities,
    )
    _BODY_QUERY_CACHE[id(rule)] = (rule, query)
    if len(_BODY_QUERY_CACHE) > _BODY_QUERY_CACHE_MAX:
        _BODY_QUERY_CACHE.popitem(last=False)
    return query


def _head_tuple(rule: Rule, assignment: Dict[Variable, object]) -> Tuple[object, ...]:
    head_values = []
    for term in rule.head.terms:
        if isinstance(term, Constant):
            head_values.append(term.value)
        else:
            head_values.append(assignment[term])
    return tuple(head_values)


def _rule_derivations(rule: Rule, instance, derived: Set[Tuple[object, ...]]) -> None:
    """Add the head tuples *rule* derives from *instance* (the full join)."""
    body_query = _body_query(rule)
    for assignment in satisfying_assignments(body_query, instance):
        derived.add(_head_tuple(rule, assignment))


def _rule_delta_derivations(
    rule: Rule,
    state,
    old,
    delta: Dict[str, Set[Tuple[object, ...]]],
    derived: Set[Tuple[object, ...]],
) -> None:
    """Add the head tuples of *rule* whose body uses at least one delta fact.

    One compiled delta-variant plan per body position whose relation has
    delta facts this round; positions over delta-free relations are
    skipped outright (their variants cannot match).  The variants
    partition the delta-using derivations by the first delta-bound
    position, so together they derive exactly the facts the semi-naive
    restriction asks for — no full re-join, no post-hoc filtering.
    """
    body_query = _body_query(rule)
    for position, atom in enumerate(rule.body):
        if not delta.get(atom.relation):
            continue
        for assignment in satisfying_assignments_delta(
            body_query, state, old, delta, position
        ):
            derived.add(_head_tuple(rule, assignment))


def _rule_supports_delta(rule: Rule) -> bool:
    """Whether *rule* has compiled delta variants.

    Empty-body rules have no delta-bound position, and bodies the slot
    compiler cannot cover (comparison variables occurring in no
    relational atom) have no delta plans; both evaluate via the full join
    each round instead — always sound, merely re-deriving.
    """
    return bool(rule.body) and not get_plan(_body_query(rule)).fallback


def _seed(
    state, database: Instance, delta: Optional[Dict[str, Set[Tuple[object, ...]]]]
) -> None:
    """Copy the facts of *database* into *state* (collecting them in *delta*)."""
    for name in database.relation_names():
        tuples = database.tuples_view(name)
        if not tuples:
            # Empty relations contribute nothing; in particular a database
            # over a wider vocabulary than the program's EDB is fine as
            # long as the extra relations hold no facts (the convention
            # used by query evaluation throughout the package).
            continue
        # Bulk-load without re-validating only when the database's relation
        # signature matches the program's EDB declaration; otherwise fall
        # back to the validating path so a mismatched database fails with a
        # SchemaError at this boundary, not deep inside the join engine.
        compatible = (
            name in state.schema
            and state.schema.relation(name) == database.schema.relation(name)
        )
        bucket = delta.setdefault(name, set()) if delta is not None else None
        for tup in tuples:
            if compatible:
                state.add_unchecked(name, tup)
            else:
                tup = state.add(name, tup)
            if bucket is not None:
                bucket.add(tup)


def _python_round(
    program: DatalogProgram,
    state,
    old,
    delta: Dict[str, Set[Tuple[object, ...]]],
    semi_naive: bool,
    store_backed: bool,
) -> Tuple[Dict[str, Set[Tuple[object, ...]]], object]:
    """One round on the memory store or the dict oracle: ``(new facts, old)``.

    The derivations are collected per head relation, one ``missing`` call
    per relation finds the new ones and one ``add_all`` adds them.  A
    round that derives nothing new returns ``{}`` and mutates nothing.
    """
    derived: Dict[str, Set[Tuple[object, ...]]] = {}
    for rule in program.rules:
        bucket = derived.setdefault(rule.head.relation, set())
        if semi_naive and _rule_supports_delta(rule):
            _rule_delta_derivations(rule, state, old, delta, bucket)
        else:
            _rule_derivations(rule, state, bucket)
    new_facts: Dict[str, Set[Tuple[object, ...]]] = {}
    for name, bucket in derived.items():
        missing = state.missing(name, bucket)
        if missing:
            new_facts[name] = missing
    if not new_facts:
        return new_facts, old
    if semi_naive:
        # Advance the previous-generation side before mutating the
        # state (naive mode reads neither ``old`` nor ``delta``).
        if store_backed:
            old = state.pin()
        else:
            for name, bucket in delta.items():
                for tup in bucket:
                    old.add_unchecked(name, tup)
    for name, bucket in new_facts.items():
        state.add_all(name, bucket)
    return new_facts, old


def _reads_an_empty_side(plan, state, old) -> bool:
    """Whether a delta variant joins a relation with no facts on its side."""
    for atom in plan.atoms:
        if atom.source == SRC_NEW:
            if not state.relation_count(atom.relation):
                return True
        elif atom.source == SRC_OLD and not old.relation_count(atom.relation):
            return True
    return False


def _sql_round(
    program: DatalogProgram,
    state: SQLStoreInstance,
    old,
    delta: SQLDelta,
    semi_naive: bool,
) -> Tuple[SQLDelta, object]:
    """One round on the SQLite store: ``(new-fact delta, old)``.

    Every variant goes through the store's pushdown routing
    (``sql_assignments_delta``: threshold, encodability, the
    ``sql_pushdown`` fault point): one that pushes down stages its head
    rows in SQL; a declined variant, a rule without delta variants and
    naive mode derive in Python and stage their head tuples with one
    ``executemany`` per rule.  The store's
    anti-join then turns the staged rows into the next delta, and only
    those new facts are read into Python (to validate and hash them).
    """
    for rule in program.rules:
        head = rule.head
        derived: Set[Tuple[object, ...]] = set()
        if semi_naive and _rule_supports_delta(rule):
            body_query = _body_query(rule)
            for position, atom in enumerate(rule.body):
                if not delta.counts.get(atom.relation):
                    continue
                plan = get_delta_plan(body_query, position, state)
                if state.sql_assignments_delta(plan, old, delta, head) is not None:
                    continue
                if _reads_an_empty_side(plan, state, old):
                    continue  # derives nothing: leave its delta in SQLite
                for assignment in execute_delta_plan(
                    plan, body_query, state, old, delta
                ):
                    derived.add(_head_tuple(rule, assignment))
        else:
            _rule_derivations(rule, state, derived)
        state.stage(head.relation, derived)
    new_delta = state.next_delta(delta)
    if not new_delta:
        return new_delta, old
    if semi_naive:
        old = state.pin()
    state.add_delta(new_delta)
    return new_delta, old


def evaluate_program(
    program: DatalogProgram,
    database: Instance,
    max_rounds: Optional[int] = None,
    semi_naive: bool = True,
    generation_log: Optional[List[Snapshot]] = None,
    store_backed: Optional[bool] = None,
    allow_truncation: bool = False,
    backend: Optional[str] = None,
) -> Union[Instance, SnapshotInstance]:
    """Compute the least fixedpoint ``P(D)`` of *program* on *database*.

    The result is an instance over the combined (EDB ∪ IDB) schema that
    contains the database facts plus every derivable IDB fact.  It is a
    :class:`~repro.store.snapshot.SnapshotInstance` by default
    (*store_backed* ``None``/``True``); ``store_backed=False`` runs on
    the dict-backed :class:`~repro.relational.instance.Instance` — the
    oracle backend the property tests compare against.

    *backend* picks the store backend for the fixedpoint state
    (``"memory"``/``"sqlite"``; ``None`` is the memory store).  On the
    ``sqlite`` backend, the
    rounds pin MVCC generations inside one open transaction and large
    rule joins push down as SQL (see :mod:`repro.store.sqlstore`) — the
    bigger-than-RAM path.  As a special case, when *database* is itself
    an SQLite-backed store over the combined schema, the fixedpoint is
    computed **in place** (IDB facts are added to the given store and the
    same object is returned) instead of re-ingesting millions of facts
    into a copy.  Without *generation_log* nothing is committed: the
    caller's next ``snapshot()`` makes the result durable, and
    ``restore()`` of the pre-fixedpoint snapshot rolls it back.

    When *generation_log* is given, one O(1)
    :class:`~repro.store.snapshot.Snapshot` per generation (the seeded
    database, then the state after every round) is appended to the list —
    per-round provenance that deep copies would make O(n·rounds).  The
    snapshots share structure with each other and with the returned
    instance; this requires the store backend.

    When *max_rounds* is exhausted before a round derives nothing new,
    the run is **truncated**, not converged, and
    :class:`FixedpointTruncated` is raised (carrying the partial state);
    pass ``allow_truncation=True`` to receive the truncated state as the
    return value instead.
    """
    if store_backed is None:
        store_backed = True
    if generation_log is not None and not store_backed:
        raise ValueError("generation_log requires the store backend")
    if backend is not None and not store_backed:
        raise ValueError("backend selection requires the store backend")
    combined = program.combined_schema()
    adopted = False
    if not store_backed:
        state = Instance(combined)
    else:
        if backend is not None and backend not in _backend.BACKENDS:
            raise ValueError(
                f"unknown store backend {backend!r}; expected one of "
                + ", ".join(_backend.BACKENDS)
            )
        if backend == _backend.SQLITE_BACKEND:
            if (
                isinstance(database, SQLStoreInstance)
                and database.schema == combined
            ):
                state = database  # in place: the bigger-than-RAM path
                adopted = True
            else:
                state = SQLStoreInstance(combined)
        else:
            state = SnapshotInstance(combined)
    # ``old`` is the previous-generation side of the delta plans: on the
    # store it is a pinned view of the pre-round state; on the dict
    # backend it is a second instance lagging exactly one delta behind
    # (each fact is added to it once, O(n) over the whole run).
    old: Union[Instance, SnapshotInstance]
    if store_backed:
        old = state.pin()  # the pre-seed generation
    else:
        old = Instance(combined)
    # Round 1's delta is the whole database.  On SQLite it is copied from
    # the live rows in SQL; elsewhere the seeding loop collects it.
    in_sql = isinstance(state, SQLStoreInstance)
    delta: Union[Dict[str, Set[Tuple[object, ...]]], SQLDelta] = {}
    if not adopted:  # an adopted database already *is* the state
        _seed(state, database, None if in_sql else delta)
    if in_sql:
        delta = state.seed_delta()
    if generation_log is not None:
        generation_log.append(state.snapshot())
    rounds = 0
    converged = False
    fixedpoint_span = _trace.begin(
        "datalog.fixedpoint", rules=len(program.rules), semi_naive=semi_naive
    )
    try:
        while True:
            if max_rounds is not None and rounds >= max_rounds:
                break
            rounds += 1
            if in_sql:
                delta, old = _sql_round(program, state, old, delta, semi_naive)
                new_count = len(delta)
            else:
                delta, old = _python_round(
                    program, state, old, delta, semi_naive, store_backed
                )
                new_count = sum(map(len, delta.values()))
            _trace.event("datalog.round", round=rounds, new_facts=new_count)
            if not new_count:
                converged = True
                break
            if generation_log is not None:
                generation_log.append(state.snapshot())
    finally:
        _trace.end(fixedpoint_span, rounds=rounds, converged=converged)
    _metrics.counter("datalog.fixedpoint_runs")
    _metrics.counter("datalog.fixedpoint_rounds", rounds)
    if not converged:
        _metrics.counter("datalog.fixedpoint_truncated")
        if not allow_truncation:
            raise FixedpointTruncated(rounds, state)
    return state


def fixedpoint_generations(
    program: DatalogProgram,
    database: Instance,
    max_rounds: Optional[int] = None,
    semi_naive: bool = True,
    allow_truncation: bool = False,
) -> List[Snapshot]:
    """The per-round snapshots ``D = G0 ⊆ G1 ⊆ ... ⊆ P(D)`` of the fixedpoint.

    Convenience wrapper around ``evaluate_program(generation_log=...)``:
    returns the generation chain alone.  The last snapshot is the least
    fixedpoint (unless ``allow_truncation=True`` swallowed a truncated
    run); all snapshots share structure.
    """
    log: List[Snapshot] = []
    evaluate_program(
        program,
        database,
        max_rounds=max_rounds,
        semi_naive=semi_naive,
        generation_log=log,
        allow_truncation=allow_truncation,
    )
    return log


def goal_facts(program: DatalogProgram, database: Instance) -> FrozenSet[Tuple[object, ...]]:
    """The tuples of the goal predicate in the least fixedpoint."""
    fixedpoint = evaluate_program(program, database)
    return fixedpoint.tuples(program.goal)


def accepts(program: DatalogProgram, database: Instance) -> bool:
    """Whether the program accepts the database (goal predicate non-empty).

    This is the acceptance notion of Section 4.1 of the paper.
    """
    return bool(goal_facts(program, database))
