"""Evaluation of conjunctive queries and UCQs over instances.

Two evaluators live here, by design:

* :func:`satisfying_assignments` — the production path.  It compiles each
  CQ once into an indexed join plan (:mod:`repro.queries.plan_cache`):
  atoms ordered per query, a single mutable binding array instead of
  per-extension dictionary copies, and per-atom index probes against the
  instance's incremental hash indexes.  Every decision procedure in the
  repository (Datalog fixedpoints, containment, guard evaluation in the
  A-automaton emptiness search, answerability, relevance) evaluates
  queries through this path.

* :func:`naive_satisfying_assignments` — the original straightforward
  backtracking join, retained verbatim as the **oracle**: the property
  tests (``tests/test_engine_oracle.py``) assert that the compiled engine
  enumerates exactly the oracle's assignments on randomized queries and
  instances.  Keep this implementation boring; its value is that it is
  obviously correct.

Testing convention: any future rewrite of the production evaluator must
keep the oracle untouched and extend the agreement property test instead
of adapting it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Set,
    Tuple,
)

from repro.queries.atoms import Atom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.plan_cache import (
    atom_order,
    execute_delta_plan,
    execute_plan,
    get_delta_plan,
    get_plan,
)
from repro.queries.terms import Constant, Variable
from repro.queries.ucq import UnionOfConjunctiveQueries, as_ucq
from repro.relational.instance import Instance

Assignment = Dict[Variable, object]


class _Unbound:
    """Sentinel distinct from any database value (including ``None``)."""


_UNBOUND = _Unbound()


def _match_atom(
    atom: Atom, instance: Instance, assignment: Assignment
) -> Iterator[Assignment]:
    """Yield extensions of *assignment* matching *atom* in *instance*.

    A relation mentioned by the query but absent from the instance's schema
    is treated as empty (queries may be written over a larger vocabulary
    than a particular instance, e.g. canonical databases of expansions).

    Part of the naive oracle; the production path never calls this.
    """
    if atom.relation not in instance.schema:
        return
    for tup in instance.tuples(atom.relation):
        extension = dict(assignment)
        ok = True
        for term, value in zip(atom.terms, tup):
            if isinstance(term, Constant):
                if term.value != value:
                    ok = False
                    break
            else:
                bound = extension.get(term, _UNBOUND)
                if bound is _UNBOUND:
                    extension[term] = value
                elif bound != value:
                    ok = False
                    break
        if ok:
            yield extension


def _order_atoms(atoms: Tuple[Atom, ...]) -> List[Atom]:
    """Order atoms so that connected atoms are evaluated consecutively.

    Delegates to the single shared heuristic
    (:func:`repro.queries.plan_cache.atom_order`), so the oracle and the
    compiled planner can never disagree on atom order.
    """
    return atom_order(atoms)


@lru_cache(maxsize=512)
def _ordered_atoms(atoms: Tuple[Atom, ...]) -> Tuple[Atom, ...]:
    """Per-query cache of the atom ordering (computed once, not per call)."""
    return tuple(atom_order(atoms))


def naive_satisfying_assignments(
    query: ConjunctiveQuery, instance: Instance
) -> Iterator[Assignment]:
    """The oracle: naive backtracking join with per-extension dict copies.

    Semantically identical to :func:`satisfying_assignments`; kept as the
    reference implementation that the compiled engine is property-tested
    against.
    """
    try:
        ordered = _ordered_atoms(query.atoms)
    except TypeError:  # unhashable constant inside an atom
        ordered = tuple(_order_atoms(query.atoms))

    def backtrack(index: int, assignment: Assignment) -> Iterator[Assignment]:
        if index == len(ordered):
            if all(eq.satisfied_by(assignment) for eq in query.equalities) and all(
                ineq.satisfied_by(assignment) for ineq in query.inequalities
            ):
                yield assignment
            return
        for extension in _match_atom(ordered[index], instance, assignment):
            yield from backtrack(index + 1, extension)

    yield from backtrack(0, {})


def satisfying_assignments(
    query: ConjunctiveQuery, instance: Instance
) -> Iterator[Assignment]:
    """Yield every assignment of the query's variables satisfying the body.

    Production path: executes the cached compiled plan of the query (see
    :mod:`repro.queries.plan_cache`).  Falls back to the naive oracle for
    the rare queries the slot compiler does not cover (comparisons over
    variables that occur in no relational atom).

    On an SQL-backed store (:mod:`repro.store.sqlstore`) the same plan
    may instead run as a pushed-down SQL join when the instance is large
    enough (``REPRO_SQL_PUSHDOWN_MIN_ROWS``); the store decides, and a
    ``None`` answer routes back to the in-memory executor over the SQL
    facade — both engines enumerate identical assignment sets.
    """
    plan = get_plan(query, instance)
    if plan.fallback:
        yield from naive_satisfying_assignments(query, instance)
        return
    if getattr(instance, "_sql_backend", False):
        rows = instance.sql_assignments(plan)
        if rows is not None:
            yield from rows
            return
    yield from execute_plan(plan, query, instance)


def satisfying_assignments_delta(
    query: ConjunctiveQuery,
    instance: Instance,
    old_instance: Instance,
    delta: Mapping[str, Iterable[Tuple[object, ...]]],
    delta_atom: int,
) -> Iterator[Assignment]:
    """Assignments of the *delta_atom*-th semi-naive variant of *query*.

    Enumerates exactly the satisfying assignments whose homomorphic image
    binds body atom ``delta_atom`` to a fact of *delta*, every earlier
    body atom to a fact of *old_instance* (the previous generation) and
    every later one to a fact of *instance* (the full current state) —
    the standard delta-rule decomposition, so the union over all body
    positions is precisely the set of assignments using at least one
    delta fact, each found exactly once (at its first delta-bound
    position).

    Production-only entry point: queries the slot compiler cannot cover
    (comparisons over variables occurring in no relational atom) have no
    delta plan and raise ``ValueError`` — callers fall back to the full
    join for those (re-deriving is always sound, just slower).
    """
    plan = get_delta_plan(query, delta_atom, instance)
    if plan.fallback:
        raise ValueError(
            "query cannot be slot-compiled; no delta variant exists: "
            f"{query}"
        )
    yield from execute_delta_plan(plan, query, instance, old_instance, delta)


def evaluate_cq(
    query: ConjunctiveQuery, instance: Instance
) -> FrozenSet[Tuple[object, ...]]:
    """The set of answer tuples of *query* on *instance*.

    Boolean queries return ``{()}`` when satisfied and ``{}`` otherwise.
    """
    answers_set: Set[Tuple[object, ...]] = set()
    for assignment in satisfying_assignments(query, instance):
        answers_set.add(tuple(assignment[v] for v in query.head))
        if query.is_boolean:
            break
    return frozenset(answers_set)


def evaluate_ucq(
    query: UnionOfConjunctiveQueries, instance: Instance
) -> FrozenSet[Tuple[object, ...]]:
    """The set of answer tuples of a UCQ on *instance* (union of disjuncts)."""
    answers_set: Set[Tuple[object, ...]] = set()
    for disjunct in query.disjuncts:
        answers_set |= evaluate_cq(disjunct, instance)
    return frozenset(answers_set)


def holds(query, instance: Instance) -> bool:
    """Whether a boolean CQ or UCQ holds in *instance*."""
    normalised = as_ucq(query)
    for disjunct in normalised.disjuncts:
        boolean = disjunct if disjunct.is_boolean else disjunct.boolean_version()
        if evaluate_cq(boolean, instance):
            return True
    return False


def answers(query, instance: Instance) -> FrozenSet[Tuple[object, ...]]:
    """The answers of a CQ or UCQ on *instance*."""
    return evaluate_ucq(as_ucq(query), instance)
