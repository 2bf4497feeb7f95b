"""Undecidability gadgets (Theorems 3.1 and 5.2).

Both theorems reduce the implication problem for functional and inclusion
dependencies — undecidable by Chandra & Vardi — to (un)satisfiability of an
AccLTL formula.  The reductions share an architecture, which this module
reproduces as inspectable, runnable constructions:

* the schema is extended with a *successor* relation over the tuples of
  each relation, ``Beg``/``End`` relations marking the first and last
  tuples of the order, and per-dependency checking relations ``ChkFD(R)``
  (arity ``2·arity(R)``) and ``CheckIncDep(id)`` (arity of the source
  relation), all with boolean access methods, plus input-free ``Fill``
  methods that reveal arbitrary content for the original relations;
* the formula drives an iteration over the tuples of each relation in
  successor order (a pair of nested untils for FDs, a single until for
  IDs), checking the dependencies of ``Γ`` one tuple at a time and finally
  asserting the failure of the target dependency ``σ``.

The formula produced by :func:`implication_gadget` for Theorem 3.1 lives in
``AccLTL(FO∃+_Acc)`` (n-ary bindings used both positively and negatively);
the variant of Theorem 5.2 (:func:`implication_gadget_with_inequalities`)
is binding-positive but uses inequalities, witnessing that AccLTL+ with
inequalities is undecidable.  The constructions are exercised structurally
by the test suite (fragment classification, vocabulary, size growth) and
semantically on small decidable sub-instances (FD-only dependency sets,
where the chase decides implication and bounded model checking agrees with
the gadget's intent); their full correctness argument is the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.access.methods import AccessSchema
from repro.core.formulas import (
    AccFormula,
    atom,
    eventually,
    globally,
    land,
    lnot,
    lor,
    until,
)
from repro.core.properties import fd_violation_sentence, sentence_from_atoms
from repro.core.vocabulary import AccessVocabulary, isbind_name, post_name, pre_name
from repro.queries.atoms import Atom
from repro.queries.terms import Variable
from repro.relational.dependencies import FunctionalDependency, InclusionDependency
from repro.relational.schema import Relation, Schema


SUCCESSOR_SUFFIX = "_succ"
BEGIN_PREFIX = "Beg_"
END_PREFIX = "End_"
CHKFD_PREFIX = "ChkFD_"
CHKID_PREFIX = "CheckIncDep_"


@dataclass(frozen=True)
class GadgetSchema:
    """The extended access schema of the undecidability reductions."""

    access_schema: AccessSchema
    vocabulary: AccessVocabulary
    base_relations: Tuple[str, ...]


def extended_schema_for_dependencies(
    base_schema: Schema,
    constraints: Sequence[object],
) -> GadgetSchema:
    """Extend *base_schema* with the auxiliary relations of the reductions.

    For every base relation ``R`` we add ``R_succ`` (successor over tuples,
    arity ``2·arity(R)``), ``Beg_R`` and ``End_R`` (arity of ``R``) and
    ``ChkFD_R`` (arity ``2·arity(R)``); for every inclusion dependency we
    add ``CheckIncDep_<i>`` with the arity of its source relation.  Access
    methods: an input-free ``Fill`` method per base relation (revealing an
    "essentially random" configuration, as in the paper) and boolean
    methods on every auxiliary relation.
    """
    relations: List[Relation] = list(base_schema)
    for relation in base_schema:
        relations.append(Relation(relation.name + SUCCESSOR_SUFFIX, 2 * relation.arity))
        relations.append(Relation(BEGIN_PREFIX + relation.name, relation.arity))
        relations.append(Relation(END_PREFIX + relation.name, relation.arity))
        relations.append(Relation(CHKFD_PREFIX + relation.name, 2 * relation.arity))
    id_count = 0
    for constraint in constraints:
        if isinstance(constraint, InclusionDependency):
            source = base_schema.relation(constraint.source)
            relations.append(Relation(f"{CHKID_PREFIX}{id_count}", source.arity))
            id_count += 1

    extended = Schema(relations)
    access_schema = AccessSchema(extended)
    for relation in base_schema:
        access_schema.add(f"Fill_{relation.name}", relation.name, ())
    for relation in extended:
        if relation.name in base_schema.names():
            continue
        access_schema.add(
            f"Chk_{relation.name}", relation.name, tuple(range(relation.arity))
        )
    return GadgetSchema(
        access_schema=access_schema,
        vocabulary=AccessVocabulary.of(access_schema),
        base_relations=base_schema.names(),
    )


def _fd_holds_checked_formula(
    gadget: GadgetSchema, fd: FunctionalDependency
) -> AccFormula:
    """"The FD check table never exposes a violation" — the ChkFD iteration.

    Following the proof sketch of Theorem 3.1: the relation ``ChkFD_R``
    receives (via boolean accesses) pairs of ``R``-tuples one at a time;
    the formula requires that globally, any exposed pair agreeing on the
    FD's source positions agrees on its target.  Without inequalities the
    "agrees on the target" part is expressed positively through the checking
    relation itself; the iteration over pairs is driven by the accesses.
    """
    relation = gadget.access_schema.schema.relation(fd.relation)
    check = CHKFD_PREFIX + fd.relation
    ys = tuple(Variable(f"y{i}") for i in range(relation.arity))
    zs = tuple(
        ys[i] if i in fd.lhs else Variable(f"z{i}") for i in range(relation.arity)
    )
    # The exposed pair, with the target positions forced equal.
    zs_equal = tuple(
        ys[i] if (i in fd.lhs or i == fd.rhs) else zs[i]
        for i in range(relation.arity)
    )
    pair_exposed = sentence_from_atoms(
        (
            Atom(post_name(check), ys + zs),
            Atom(post_name(fd.relation), ys),
            Atom(post_name(fd.relation), zs),
        ),
        label=f"chkfd-pair[{fd}]",
    )
    pair_consistent = sentence_from_atoms(
        (
            Atom(post_name(check), ys + zs_equal),
            Atom(post_name(fd.relation), ys),
            Atom(post_name(fd.relation), zs_equal),
        ),
        label=f"chkfd-consistent[{fd}]",
    )
    return globally(atom(pair_exposed.query).implies(atom(pair_consistent.query)))


def _id_iteration_formula(
    gadget: GadgetSchema, id_dep: InclusionDependency, index: int
) -> AccFormula:
    """The until-driven iteration checking an inclusion dependency.

    Each tuple of the source relation is certified (via a boolean access to
    ``CheckIncDep``) only when a matching target tuple is already exposed;
    the iteration finishes when the last tuple in the successor order is
    certified.
    """
    schema = gadget.access_schema.schema
    source = schema.relation(id_dep.source)
    check = f"{CHKID_PREFIX}{index}"
    xs = tuple(Variable(f"x{i}") for i in range(source.arity))
    target = schema.relation(id_dep.target)
    ts = [Variable(f"t{i}") for i in range(target.arity)]
    for src_pos, tgt_pos in zip(id_dep.source_positions, id_dep.target_positions):
        ts[tgt_pos] = xs[src_pos]
    check_method = f"Chk_{check}"
    certified_with_witness = sentence_from_atoms(
        (
            Atom(isbind_name(check_method), xs),
            Atom(post_name(check), xs),
            Atom(post_name(id_dep.source), xs),
            Atom(post_name(id_dep.target), tuple(ts)),
        ),
        label=f"id-certified[{id_dep}]",
    )
    certified = sentence_from_atoms(
        (
            Atom(isbind_name(check_method), xs),
            Atom(post_name(check), xs),
            Atom(post_name(id_dep.source), xs),
        ),
        label=f"id-cert-any[{id_dep}]",
    )
    last_certified = sentence_from_atoms(
        (Atom(post_name(check), xs), Atom(post_name(END_PREFIX + id_dep.source), xs)),
        label=f"id-last[{id_dep}]",
    )
    # Every step of the iteration is either a sound certification (made on a
    # tuple with a matching target witness) or one of the other permitted
    # accesses (filling a base relation, or marking Beg/End), until the last
    # tuple in the order has been certified.  All binding atoms occur
    # positively, keeping the Theorem 5.2 variant binding-positive.
    permitted_steps: List[AccFormula] = [atom(certified_with_witness.query)]
    for relation_name in gadget.base_relations:
        permitted_steps.append(
            atom(
                sentence_from_atoms(
                    (Atom(isbind_name(f"Fill_{relation_name}"), ()),),
                    label=f"fill-step[{relation_name}]",
                ).query
            )
        )
        for marker_prefix in (BEGIN_PREFIX, END_PREFIX):
            marker = marker_prefix + relation_name
            marker_rel = gadget.access_schema.schema.relation(marker)
            marker_vars = tuple(Variable(f"m{i}") for i in range(marker_rel.arity))
            permitted_steps.append(
                atom(
                    sentence_from_atoms(
                        (Atom(isbind_name(f"Chk_{marker}"), marker_vars),),
                        label=f"marker-step[{marker}]",
                    ).query
                )
            )
    return until(lor(*permitted_steps), atom(last_certified.query))


def _sigma_fails_formula(gadget: GadgetSchema, sigma: FunctionalDependency) -> AccFormula:
    """"The target FD σ fails" — via the checking relation, without inequalities.

    Two ``R``-tuples agreeing on the source positions are exposed through
    ``ChkFD_R`` together with a ``Beg``/``End`` marker pair recording that
    their target values were placed at different ends of the successor
    order, which (in the intended models of the reduction) certifies them
    distinct.  The inequality-based variant in
    :func:`implication_gadget_with_inequalities` states the failure
    directly.
    """
    relation = gadget.access_schema.schema.relation(sigma.relation)
    check = CHKFD_PREFIX + sigma.relation
    ys = tuple(Variable(f"y{i}") for i in range(relation.arity))
    zs = tuple(
        ys[i] if i in sigma.lhs else Variable(f"z{i}") for i in range(relation.arity)
    )
    witness = sentence_from_atoms(
        (
            Atom(post_name(check), ys + zs),
            Atom(post_name(sigma.relation), ys),
            Atom(post_name(sigma.relation), zs),
            Atom(post_name(BEGIN_PREFIX + sigma.relation), ys),
            Atom(post_name(END_PREFIX + sigma.relation), zs),
        ),
        label=f"sigma-fails[{sigma}]",
    )
    return eventually(atom(witness.query))


def _check_access_guard_formula(gadget: GadgetSchema, relation: str) -> AccFormula:
    """"Accesses to ``ChkFD_R`` only test pairs that are already exposed in R".

    This is where the Theorem 3.1 reduction genuinely needs a *negative*
    occurrence of a binding atom (the access must **not** be made on an
    unexposed pair), which is exactly the capability the AccLTL+ restriction
    removes.
    """
    rel = gadget.access_schema.schema.relation(relation)
    check = CHKFD_PREFIX + relation
    check_method = f"Chk_{check}"
    ys = tuple(Variable(f"y{i}") for i in range(rel.arity))
    zs = tuple(Variable(f"z{i}") for i in range(rel.arity))
    any_check_access = sentence_from_atoms(
        (Atom(isbind_name(check_method), ys + zs),),
        label=f"chk-access[{relation}]",
    )
    exposed_check_access = sentence_from_atoms(
        (
            Atom(isbind_name(check_method), ys + zs),
            Atom(pre_name(relation), ys),
            Atom(pre_name(relation), zs),
        ),
        label=f"chk-access-exposed[{relation}]",
    )
    return globally(
        atom(any_check_access.query).implies(atom(exposed_check_access.query))
    )


def implication_gadget(
    base_schema: Schema,
    constraints: Sequence[object],
    sigma: FunctionalDependency,
) -> Tuple[GadgetSchema, AccFormula]:
    """The Theorem 3.1 reduction: a schema and an ``AccLTL(FO∃+_Acc)`` formula.

    The formula is satisfiable (in the intended encoding of dependency
    instances as access paths) iff ``Γ`` does **not** imply ``σ``; hence a
    satisfiability decision procedure for ``AccLTL(FO∃+_Acc)`` would decide
    the undecidable implication problem.
    """
    gadget = extended_schema_for_dependencies(base_schema, constraints)
    conjuncts: List[AccFormula] = []
    fds = [c for c in constraints if isinstance(c, FunctionalDependency)]
    ids = [c for c in constraints if isinstance(c, InclusionDependency)]
    checked_relations = sorted({fd.relation for fd in fds} | {sigma.relation})
    for relation in checked_relations:
        conjuncts.append(_check_access_guard_formula(gadget, relation))
    for fd in fds:
        conjuncts.append(_fd_holds_checked_formula(gadget, fd))
    for index, id_dep in enumerate(ids):
        conjuncts.append(_id_iteration_formula(gadget, id_dep, index))
    conjuncts.append(_sigma_fails_formula(gadget, sigma))
    return gadget, land(*conjuncts)


def implication_gadget_with_inequalities(
    base_schema: Schema,
    constraints: Sequence[object],
    sigma: FunctionalDependency,
) -> Tuple[GadgetSchema, AccFormula]:
    """The Theorem 5.2 reduction: binding-positive AccLTL with inequalities.

    Functional dependencies (and the failure of ``σ``) are expressed
    directly with inequalities, so no negative occurrence of a binding atom
    is needed; the inclusion dependencies still use the until-driven
    iteration.  The resulting formula is in binding-positive
    ``AccLTL(FO∃+,≠_Acc)``, the fragment Theorem 5.2 proves undecidable.
    """
    gadget = extended_schema_for_dependencies(base_schema, constraints)
    vocabulary = gadget.vocabulary
    conjuncts: List[AccFormula] = []
    fds = [c for c in constraints if isinstance(c, FunctionalDependency)]
    ids = [c for c in constraints if isinstance(c, InclusionDependency)]
    for fd in fds:
        violation = fd_violation_sentence(vocabulary, fd, use_post=True)
        conjuncts.append(lnot(eventually(atom(violation.query, label=str(fd)))))
    for index, id_dep in enumerate(ids):
        conjuncts.append(_id_iteration_formula(gadget, id_dep, index))
    sigma_violation = fd_violation_sentence(vocabulary, sigma, use_post=True)
    conjuncts.append(eventually(atom(sigma_violation.query, label=f"¬{sigma}")))
    return gadget, land(*conjuncts)
