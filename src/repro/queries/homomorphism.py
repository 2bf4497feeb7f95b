"""Homomorphisms between conjunctive queries and instances.

A homomorphism from a CQ ``Q`` to an instance ``I`` is an assignment of the
variables of ``Q`` to values of ``I`` sending every body atom to a fact of
``I`` (and respecting constants).  Homomorphisms underpin

* CQ evaluation (a boolean CQ holds iff there is a homomorphism),
* the classical Chandra–Merlin containment test (``Q1 ⊆ Q2`` iff there is a
  homomorphism from ``Q2`` into the canonical instance of ``Q1``),
* the expansion-based Datalog containment procedure of
  :mod:`repro.datalog.containment` (Proposition 4.11 of the paper), and
* the Boundedness Lemma (Lemma 4.13), which shrinks witness paths to the
  homomorphic images of the satisfied positive queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.queries.cq import ConjunctiveQuery
from repro.queries.evaluation import satisfying_assignments
from repro.queries.terms import Variable
from repro.relational.instance import Fact, Instance
from repro.relational.schema import Relation, Schema
from repro.store.snapshot import Snapshot, SnapshotInstance


def find_homomorphism(
    query: ConjunctiveQuery, instance: Instance
) -> Optional[Dict[Variable, object]]:
    """A homomorphism from *query*'s body into *instance*, or ``None``.

    Equality and inequality atoms of the query are respected.
    """
    for assignment in satisfying_assignments(query, instance):
        return dict(assignment)
    return None


def find_all_homomorphisms(
    query: ConjunctiveQuery, instance: Instance, limit: Optional[int] = None
) -> List[Dict[Variable, object]]:
    """All homomorphisms (up to *limit*) from *query*'s body into *instance*."""
    result: List[Dict[Variable, object]] = []
    for assignment in satisfying_assignments(query, instance):
        result.append(dict(assignment))
        if limit is not None and len(result) >= limit:
            break
    return result


def homomorphism_image(
    query: ConjunctiveQuery, assignment: Mapping[Variable, object]
) -> List[Tuple[str, Tuple[object, ...]]]:
    """The facts that the body atoms of *query* map to under *assignment*."""
    return [(atom.relation, atom.substitute(assignment)) for atom in query.atoms]


@dataclass(frozen=True)
class FreshValue:
    """A value frozen for a variable class: equal to no constant or data value.

    Canonical structures that must not identify a frozen variable with a
    constant by accident (the equality types of
    :mod:`repro.queries.containment`, the canonical transition structures
    of :mod:`repro.automata.emptiness`) freeze to these.
    """

    index: int


def freezing_assignment(
    query: ConjunctiveQuery, assignment: Optional[Mapping[Variable, object]] = None
) -> Dict[Variable, object]:
    """*assignment* completed by freezing every other variable ``v`` of
    *query* to the value ``"~v"`` (its name, tagged to avoid collision
    with constants)."""
    frozen = dict(assignment) if assignment else {}
    for variable in query.variables():
        frozen.setdefault(variable, f"~{variable.name}")
    return frozen


def canonical_instance(
    query: ConjunctiveQuery,
    schema: Optional[Schema] = None,
    assignment: Optional[Mapping[Variable, object]] = None,
) -> Tuple[Instance, Dict[Variable, object]]:
    """The canonical (frozen) instance of a CQ and the freezing assignment.

    Variables are frozen to their values under *assignment*, and the
    others as :func:`freezing_assignment` does; constants map to
    themselves.  If *schema* is not supplied, one is inferred from the
    query's atoms (all positions typed ``ANY``).
    """
    if schema is None:
        spec: Dict[str, int] = {}
        for atom in query.atoms:
            existing = spec.get(atom.relation)
            if existing is not None and existing != atom.arity:
                raise ValueError(
                    f"relation {atom.relation} used with inconsistent arities"
                )
            spec[atom.relation] = atom.arity
        schema = Schema([Relation(name, arity) for name, arity in spec.items()])

    frozen = freezing_assignment(query, assignment)
    instance = Instance(schema)
    for relation, tup in homomorphism_image(query, frozen):
        instance.add(relation, tup)
    return instance, frozen


def frozen_branch(
    query: ConjunctiveQuery,
    base: Snapshot,
    assignment: Optional[Mapping[Variable, object]] = None,
) -> Tuple[SnapshotInstance, List[Fact], Dict[Variable, object]]:
    """*base* plus the body of *query* frozen as :func:`canonical_instance` does.

    The instance branches off the snapshot in O(#relations), so callers
    that freeze one query many times (a candidate per variable
    identification or per unification) pay no deep copies.  Returns the
    instance, the frozen facts in body order (duplicates kept) and the
    completed freezing assignment.
    """
    frozen = freezing_assignment(query, assignment)
    instance = SnapshotInstance.from_snapshot(base)
    facts = homomorphism_image(query, frozen)
    for fact in facts:
        if fact not in instance:
            instance.add_fact(fact)
    return instance, facts, frozen
