"""Maximal answers to queries under limited access patterns.

The introduction of the paper recalls the classical result ([15], Li 2003;
also Duschka–Genesereth style constructions): for any conjunctive query one
can construct **in linear time** a Datalog program computing the *maximal
answers* obtainable under the access restrictions — the program simply
performs all valid (grounded) accesses, accumulating the *accessible part*
of the database, and then evaluates the query over the accessible part.

This module implements:

* :func:`accessible_part_program` — the Datalog program whose IDB predicates
  ``Acc_R`` contain the accessible part of each relation ``R`` (plus a
  unary ``Known`` predicate of accessible values);
* :func:`accessible_part` — the direct worklist computation of the
  accessible part that :func:`maximal_answers` and
  :func:`is_answerable_exactly` run; it equals the ``Acc_R`` facts of the
  program's fixedpoint, which the tests check on both store backends;
* :func:`maximal_answers` — the certain answers obtainable through grounded
  exact access paths, i.e. the query evaluated on the accessible part;
* :func:`is_answerable_exactly` — whether the maximal answers coincide with
  the true answers on a given hidden instance (the query is *answerable* on
  that instance).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Set, Tuple

from repro.access.methods import AccessSchema
from repro.datalog.program import DatalogProgram, Rule
from repro.queries.atoms import Atom
from repro.queries.evaluation import evaluate_ucq
from repro.queries.terms import Variable
from repro.queries.ucq import as_ucq
from repro.relational.instance import Instance
from repro.relational.schema import Relation, Schema


ACCESSIBLE_PREFIX = "Acc_"
KNOWN_PREDICATE = "Known"


def _acc(relation: str) -> str:
    """Name of the accessible-part IDB predicate for *relation*."""
    return ACCESSIBLE_PREFIX + relation


def accessible_part_program(
    schema: AccessSchema,
    query,
    initial_constants: Iterable[object] = (),
) -> DatalogProgram:
    """The Datalog program computing maximal answers of *query* under *schema*.

    The EDB schema consists of the original relations (interpreted as the
    hidden instance) plus a unary ``Init`` relation of initially known
    values.  The IDB contains ``Known`` (accessible values), one ``Acc_R``
    per relation (accessible tuples) and the goal predicate ``Goal`` whose
    rules are the query's disjuncts rewritten over the ``Acc_R`` predicates.

    The construction is linear in the size of the schema plus the query,
    mirroring the complexity claim recalled in the paper's introduction.
    """
    target = as_ucq(query)
    edb_relations: List[Relation] = [rel for rel in schema.schema]
    edb_relations.append(Relation("Init", 1))
    edb_schema = Schema(edb_relations)

    rules: List[Rule] = []

    # Known values: initially known constants...
    x = Variable("x")
    rules.append(Rule(head=Atom(KNOWN_PREDICATE, (x,)), body=(Atom("Init", (x,)),)))
    # ...and every value occurring in an accessible tuple.
    for relation in schema.schema:
        variables = tuple(Variable(f"x{i}") for i in range(relation.arity))
        for position in range(relation.arity):
            rules.append(
                Rule(
                    head=Atom(KNOWN_PREDICATE, (variables[position],)),
                    body=(Atom(_acc(relation.name), variables),),
                )
            )

    # Accessible tuples: for every access method, a tuple of the hidden
    # relation becomes accessible once all its input-position values are known.
    for method in schema:
        relation = schema.schema.relation(method.relation)
        variables = tuple(Variable(f"x{i}") for i in range(relation.arity))
        body: List[Atom] = [Atom(relation.name, variables)]
        for position in method.input_positions:
            body.append(Atom(KNOWN_PREDICATE, (variables[position],)))
        rules.append(Rule(head=Atom(_acc(relation.name), variables), body=tuple(body)))

    # Goal rules: the query over the accessible copies.
    goal_arity = target.head_arity
    for disjunct in target.disjuncts:
        renamed = disjunct.rename_relations(
            {rel.name: _acc(rel.name) for rel in schema.schema}
        )
        head_terms: Tuple = tuple(renamed.head)
        rules.append(
            Rule(
                head=Atom("Goal", head_terms),
                body=renamed.atoms,
                equalities=renamed.equalities,
                inequalities=renamed.inequalities,
            )
        )

    return DatalogProgram(rules=rules, edb_schema=edb_schema, goal="Goal")


def accessible_part(
    schema: AccessSchema,
    hidden_instance: Instance,
    initial_values: Iterable[object] = (),
) -> Instance:
    """The accessible part of *hidden_instance* under grounded exact accesses.

    Fixedpoint computation: a tuple is accessible if some access method of
    its relation has all its input-position values among the known values;
    known values are the initial values plus all values of accessible
    tuples.  Methods with no input positions make their whole relation
    accessible immediately.

    The fixedpoint is computed with a value worklist over the hidden
    instance's per-position hash indexes (:meth:`Instance.index`) instead
    of re-scanning every relation until stabilisation: when a value ``v``
    becomes known, only the tuples with ``v`` at some input position of
    some method are candidates for becoming accessible.  A tuple is
    admitted when the *last* of its input values is processed, so each
    tuple is examined O(arity · methods) times rather than once per round.
    """
    known: Set[object] = set(initial_values)
    accessible = Instance(schema.schema)
    input_methods = [method for method in schema if method.input_positions]

    def admit(relation: str, tup: Tuple[object, ...]) -> None:
        if not accessible.contains(relation, tup):
            accessible.add_unchecked(relation, tup)
            for value in tup:
                if value not in known:
                    known.add(value)
                    queue.append(value)

    queue: List[object] = list(known)
    # Input-free methods reveal their whole relation immediately.
    for method in schema:
        if not method.input_positions:
            for tup in hidden_instance.tuples_view(method.relation):
                admit(method.relation, tup)
    while queue:
        value = queue.pop()
        for method in input_methods:
            for position in method.input_positions:
                for tup in hidden_instance.index(method.relation, position, value):
                    if accessible.contains(method.relation, tup):
                        continue
                    if all(tup[i] in known for i in method.input_positions):
                        admit(method.relation, tup)
    return accessible


def maximal_answers(
    schema: AccessSchema,
    query,
    hidden_instance: Instance,
    initial_values: Iterable[object] = (),
) -> FrozenSet[Tuple[object, ...]]:
    """Maximal answers of *query* obtainable by grounded exact access paths."""
    part = accessible_part(schema, hidden_instance, initial_values)
    return evaluate_ucq(as_ucq(query), part)


def true_answers(query, hidden_instance: Instance) -> FrozenSet[Tuple[object, ...]]:
    """The answers of the query on the full hidden instance."""
    return evaluate_ucq(as_ucq(query), hidden_instance)


def is_answerable_exactly(
    schema: AccessSchema,
    query,
    hidden_instance: Instance,
    initial_values: Iterable[object] = (),
) -> bool:
    """Whether the maximal answers equal the true answers on this instance.

    This public signature runs :func:`is_answerable_exactly_legacy`, the
    direct check (looked up at call time, so instrumentation that patches
    the module attribute sees every call).  Sweeps over many hidden
    instances should prefer
    :meth:`repro.engine.DecisionEngine.answerability_sweep`, which
    deduplicates repeated instances by their store fingerprints.
    """
    return is_answerable_exactly_legacy(
        schema, query, hidden_instance, initial_values
    )


def is_answerable_exactly_legacy(
    schema: AccessSchema,
    query,
    hidden_instance: Instance,
    initial_values: Iterable[object] = (),
) -> bool:
    """The direct per-call check behind :func:`is_answerable_exactly`.

    This is the reduction the engine executes for ``answerability`` tasks
    and the oracle the randomized equivalence suite checks the batched
    engine against.
    """
    return maximal_answers(schema, query, hidden_instance, initial_values) == true_answers(
        query, hidden_instance
    )


def accessible_fraction(
    schema: AccessSchema,
    hidden_instance: Instance,
    initial_values: Iterable[object] = (),
) -> float:
    """Fraction of the hidden facts that are accessible (a workload metric)."""
    total = hidden_instance.size()
    if total == 0:
        return 1.0
    part = accessible_part(schema, hidden_instance, initial_values)
    return part.size() / total
