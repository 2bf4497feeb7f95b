"""Containment of conjunctive queries and UCQs.

Classical (unrestricted) query containment is the building block for

* containment under access patterns (Example 2.2 / :mod:`repro.access.containment_ap`),
* the Datalog-in-positive-query containment of Proposition 4.11, and
* minimisation used when constructing A-automata guards.

We implement the Chandra–Merlin homomorphism test for CQs (including
constants), the Sagiv–Yannakakis disjunct-wise test for UCQs, and, when
either side has inequalities, an exact test that freezes the left-hand
query once per equality type of its variables over the constants of both
queries.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Tuple

from repro.queries.cq import ConjunctiveQuery
from repro.queries.evaluation import satisfying_assignments
from repro.queries.homomorphism import FreshValue, canonical_instance
from repro.queries.terms import Variable
from repro.queries.ucq import UnionOfConjunctiveQueries, as_ucq
from repro.relational.instance import Instance


def _head_respecting_containment(
    container: ConjunctiveQuery, containee: ConjunctiveQuery
) -> bool:
    """Chandra–Merlin: is ``containee ⊆ container``? (no inequalities)."""
    instance, frozen = canonical_instance(containee)
    frozen_head = tuple(frozen[v] for v in containee.head)
    for assignment in satisfying_assignments(container.without_inequalities(), instance):
        candidate_head = tuple(
            assignment[v] if isinstance(v, Variable) else v.value
            for v in container.head
        )
        if candidate_head == frozen_head:
            return True
    return False


def cq_contained_in(containee: ConjunctiveQuery, container: ConjunctiveQuery) -> bool:
    """Whether ``containee ⊆ container`` over all instances.

    Handles constants.  Without inequalities this is Chandra–Merlin.  With
    inequalities on either side the test freezes the containee over every
    equality type (see :func:`_cq_contained_in_ucq`), which is sound and
    complete.
    """
    if len(containee.head) != len(container.head):
        return False
    if not containee.inequalities and not container.inequalities:
        return _head_respecting_containment(container, containee)
    return _cq_contained_in_ucq(containee, as_ucq(container))


def ucq_contained_in(containee, container) -> bool:
    """Whether a CQ/UCQ is contained in a CQ/UCQ over all instances.

    Sagiv–Yannakakis: a UCQ is contained in a UCQ iff every disjunct of the
    left-hand side is contained in the union of the right-hand side, which
    (without inequalities on the right) reduces to being contained in *some*
    disjunct after freezing.
    """
    left = as_ucq(containee)
    right = as_ucq(container)
    for disjunct in left.disjuncts:
        if not _cq_contained_in_ucq(disjunct, right):
            return False
    return True


def _cq_contained_in_ucq(
    disjunct: ConjunctiveQuery, container: UnionOfConjunctiveQueries
) -> bool:
    """Whether a single CQ is contained in a UCQ (freeze and evaluate).

    With inequalities on either side, one frozen instance does not
    decide: ``R(x,y)`` is not contained in ``R(x,y) ∧ x≠y`` (take
    ``R(a,a)``), nor ``R(x)`` in ``R(x) ∧ x≠'a'`` (take ``R('a')``).  So
    the disjunct is frozen once per *equality type*: each variable is
    sent to a constant of either query or to a fresh value, up to
    renaming the fresh values.  A type that violates the disjunct's own
    equalities or inequalities is no counterexample; every other type's
    frozen instance must satisfy some container disjunct with the frozen
    head.  This is exact: a homomorphism of the disjunct into any
    instance factors injectively through the frozen instance of its
    type, and injective maps that fix the constants preserve
    inequalities.
    """
    if not disjunct.inequalities and not container.has_inequalities:
        return _frozen_in_union(disjunct, container)
    constants = sorted(
        {term.value for term in disjunct.constants() | container.constants()},
        key=repr,
    )
    variables = sorted(disjunct.variables(), key=lambda v: v.name)
    for assignment in _equality_types(variables, constants):
        if not _satisfies_comparisons(disjunct, assignment):
            continue
        instance, _ = canonical_instance(disjunct, assignment=assignment)
        frozen_head = tuple(assignment[v] for v in disjunct.head)
        if not _head_in_union(instance, frozen_head, container):
            return False
    return True


def _equality_types(
    variables: List[Variable], constants: List[object]
) -> Iterable[Dict[Variable, object]]:
    """Every assignment of *variables* to *constants* or fresh values.

    Fresh values are numbered in order of first use, so each equality
    type appears once.
    """
    assignment: Dict[Variable, object] = {}

    def extend(index: int, fresh: int) -> Iterable[Dict[Variable, object]]:
        if index == len(variables):
            yield dict(assignment)
            return
        variable = variables[index]
        for value in itertools.chain(constants, map(FreshValue, range(fresh))):
            assignment[variable] = value
            yield from extend(index + 1, fresh)
        assignment[variable] = FreshValue(fresh)
        yield from extend(index + 1, fresh + 1)

    return extend(0, 0)


def _satisfies_comparisons(
    query: ConjunctiveQuery, assignment: Dict[Variable, object]
) -> bool:
    return all(e.satisfied_by(assignment) for e in query.equalities) and all(
        i.satisfied_by(assignment) for i in query.inequalities
    )


def _frozen_in_union(
    disjunct: ConjunctiveQuery, container: UnionOfConjunctiveQueries
) -> bool:
    instance, frozen = canonical_instance(disjunct.without_inequalities())
    frozen_head = tuple(frozen[v] for v in disjunct.head)
    return _head_in_union(instance, frozen_head, container)


def _head_in_union(
    instance: Instance, frozen_head: Tuple, container: UnionOfConjunctiveQueries
) -> bool:
    """Whether some container disjunct has a match in *instance* with *frozen_head*."""
    for candidate in container.disjuncts:
        for assignment in satisfying_assignments(candidate, instance):
            candidate_head = tuple(
                assignment[v] if isinstance(v, Variable) else v.value
                for v in candidate.head
            )
            if candidate_head == frozen_head:
                return True
    return False


def equivalent(query_a, query_b) -> bool:
    """Whether two (U)CQs are equivalent (mutual containment)."""
    return ucq_contained_in(query_a, query_b) and ucq_contained_in(query_b, query_a)


def minimize_cq(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Compute a core (minimal equivalent subquery) of a CQ without inequalities.

    Repeatedly tries to drop an atom while preserving equivalence.  The
    result is unique up to isomorphism (the core of the query).
    """
    if query.inequalities:
        return query
    atoms = list(query.atoms)
    changed = True
    while changed:
        changed = False
        for index in range(len(atoms)):
            reduced_atoms = atoms[:index] + atoms[index + 1 :]
            head_vars = set(query.head)
            remaining_vars = set()
            for atom in reduced_atoms:
                remaining_vars |= atom.variables()
            if not head_vars <= remaining_vars:
                continue
            candidate = ConjunctiveQuery(
                atoms=tuple(reduced_atoms),
                head=query.head,
                equalities=query.equalities,
                name=query.name,
            )
            if cq_contained_in(candidate, query) and cq_contained_in(query, candidate):
                atoms = reduced_atoms
                changed = True
                break
    return ConjunctiveQuery(
        atoms=tuple(atoms), head=query.head, equalities=query.equalities, name=query.name
    )
