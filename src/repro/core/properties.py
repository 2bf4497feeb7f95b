"""A library of the paper's example properties, as AccLTL formula builders.

This module packages the worked examples of Sections 1, 2 and 4 as reusable
constructors:

* groundedness of a path (the basic dataflow constraint expressible in
  AccLTL+, Section 4);
* long-term relevance of an access (Example 2.3), in both the n-ary and
  0-ary binding variants;
* query containment under access patterns (Example 2.2), as a validity and
  as the dual satisfiability (counterexample) formula;
* disjointness data-integrity constraints (introduction / Example 2.3);
* functional-dependency constraints via inequalities (Example 2.4);
* access-order restrictions (introduction, Section 4.2);
* dataflow restrictions ("names input to Mobile# must have appeared in
  Address", Example 2.3).

All builders return plain :class:`~repro.core.formulas.AccFormula` objects,
so they can be freely combined with the boolean and temporal connectives;
the fragment classifier then determines which decision procedure applies —
reproducing the DjC / FD / DF / AccOr columns of Table 1.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.access.methods import Access, AccessMethod
from repro.core.formulas import (
    AccFormula,
    EmbeddedSentence,
    atom,
    eventually,
    globally,
    land,
    lnot,
    lor,
    until,
)
from repro.core.vocabulary import (
    AccessVocabulary,
    isbind0_name,
    isbind_name,
    post_name,
    pre_name,
)
from repro.queries.atoms import Atom, Inequality
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Constant, Variable
from repro.queries.ucq import UnionOfConjunctiveQueries, as_ucq
from repro.relational.dependencies import DisjointnessConstraint, FunctionalDependency


# ----------------------------------------------------------------------
# Small sentence-building helpers
# ----------------------------------------------------------------------
def sentence_from_atoms(
    atoms: Sequence[Atom],
    inequalities: Sequence[Inequality] = (),
    label: Optional[str] = None,
) -> EmbeddedSentence:
    """An embedded sentence that is a single boolean CQ."""
    query = ConjunctiveQuery(atoms=tuple(atoms), head=(), inequalities=tuple(inequalities))
    return EmbeddedSentence(as_ucq(query), label=label)


def zeroary_binding_atom(method_name: str) -> AccFormula:
    """The atomic formula ``IsBind0_AcM()`` — "this transition used AcM"."""
    return atom(
        ConjunctiveQuery(atoms=(Atom(isbind0_name(method_name), ()),), head=()),
        label=f"IsBind0[{method_name}]",
    )


def nary_binding_atom(method: AccessMethod, binding: Sequence[object]) -> AccFormula:
    """The atomic formula ``IsBind_AcM(b̄)`` for a concrete binding."""
    terms = tuple(Constant(value) for value in binding)
    return atom(
        ConjunctiveQuery(atoms=(Atom(isbind_name(method.name), terms),), head=()),
        label=f"IsBind[{method.name}]{tuple(binding)!r}",
    )


def query_pre_atom(vocabulary: AccessVocabulary, query, label: Optional[str] = None) -> AccFormula:
    """The atomic formula ``Q^pre`` for a query over the base schema."""
    return atom(vocabulary.query_pre(query).boolean_version(), label=label)


def query_post_atom(vocabulary: AccessVocabulary, query, label: Optional[str] = None) -> AccFormula:
    """The atomic formula ``Q^post`` for a query over the base schema."""
    return atom(vocabulary.query_post(query).boolean_version(), label=label)


# ----------------------------------------------------------------------
# Groundedness (Section 4, the basic dataflow constraint in AccLTL+)
# ----------------------------------------------------------------------
def grounded_transition_sentence(
    vocabulary: AccessVocabulary, method: AccessMethod
) -> EmbeddedSentence:
    """The sentence "the transition uses *method* and its binding is grounded".

    Following the paper's formula: ``∃x̄ IsBind_AcM(x̄) ∧ ⋀_i ⋁_R ∃ȳ R_pre(ȳ)
    ∧ ⋁_j y_j = x_i``.  The conjunction of disjunctions is normalised into a
    UCQ by distributing: one disjunct per choice of witnessing relation and
    position for every input value.
    """
    schema = vocabulary.access_schema.schema
    binding_vars = tuple(Variable(f"b{i}") for i in range(method.num_inputs))
    binding_atom = Atom(isbind_name(method.name), binding_vars)
    if method.num_inputs == 0:
        return EmbeddedSentence(
            as_ucq(ConjunctiveQuery(atoms=(binding_atom,), head=())),
            label=f"grounded[{method.name}]",
        )

    per_value_choices: List[List[Tuple[Atom, ...]]] = []
    for index, binding_var in enumerate(binding_vars):
        choices: List[Tuple[Atom, ...]] = []
        for relation in schema:
            for position in range(relation.arity):
                terms = tuple(
                    binding_var
                    if j == position
                    else Variable(f"w_{method.name}_{index}_{relation.name}_{position}_{j}")
                    for j in range(relation.arity)
                )
                choices.append((Atom(pre_name(relation.name), terms),))
        per_value_choices.append(choices)

    disjuncts: List[ConjunctiveQuery] = []
    def build(index: int, accumulated: Tuple[Atom, ...]) -> None:
        if index == len(per_value_choices):
            disjuncts.append(
                ConjunctiveQuery(atoms=(binding_atom,) + accumulated, head=())
            )
            return
        for choice in per_value_choices[index]:
            build(index + 1, accumulated + choice)

    build(0, ())
    return EmbeddedSentence(
        UnionOfConjunctiveQueries(tuple(disjuncts)), label=f"grounded[{method.name}]"
    )


def groundedness_formula(vocabulary: AccessVocabulary) -> AccFormula:
    """``G(⋁_AcM grounded[AcM])`` — every transition makes a grounded access.

    The formula is binding-positive, hence in AccLTL+ (this is how the paper
    reduces satisfiability over grounded paths to plain satisfiability).
    """
    disjuncts = [
        atom(grounded_transition_sentence(vocabulary, method).query,
             label=f"grounded[{method.name}]")
        for method in vocabulary.access_schema
    ]
    return globally(lor(*disjuncts))


# ----------------------------------------------------------------------
# Long-term relevance (Example 2.3)
# ----------------------------------------------------------------------
def ltr_formula(
    vocabulary: AccessVocabulary, access: Access, query
) -> AccFormula:
    """``F(¬Q^pre ∧ IsBind_AcM(b̄) ∧ Q^post)`` — Example 2.3.

    Satisfiable iff the (boolean) access is long-term relevant for the
    query on the empty initial instance.
    """
    q_pre = query_pre_atom(vocabulary, query, label="Q_pre")
    q_post = query_post_atom(vocabulary, query, label="Q_post")
    bind = nary_binding_atom(access.method, access.binding)
    return eventually(land(lnot(q_pre), bind, q_post))


def ltr_formula_zeroary(
    vocabulary: AccessVocabulary, method_name: str, query
) -> AccFormula:
    """The 0-ary-binding variant of the LTR formula (Section 4.2).

    It records only *which* method performs the revealing access, which is
    the property expressible without dataflow information.
    """
    q_pre = query_pre_atom(vocabulary, query, label="Q_pre")
    q_post = query_post_atom(vocabulary, query, label="Q_post")
    return eventually(land(lnot(q_pre), zeroary_binding_atom(method_name), q_post))


# ----------------------------------------------------------------------
# Containment under access patterns (Example 2.2)
# ----------------------------------------------------------------------
def containment_formula(
    vocabulary: AccessVocabulary, query_one, query_two
) -> AccFormula:
    """``G ¬(Q1^pre ∧ ¬Q2^pre)`` — valid over grounded paths iff ``Q1 ⊆ Q2``."""
    q1 = query_pre_atom(vocabulary, query_one, label="Q1_pre")
    q2 = query_pre_atom(vocabulary, query_two, label="Q2_pre")
    return globally(lnot(land(q1, lnot(q2))))


def containment_counterexample_formula(
    vocabulary: AccessVocabulary, query_one, query_two
) -> AccFormula:
    """``F(Q1^pre ∧ ¬Q2^pre)`` — satisfiable (over grounded paths) iff ``Q1 ⊄ Q2``.

    This is the negation of :func:`containment_formula`, used when checking
    containment through a satisfiability procedure.
    """
    q1 = query_pre_atom(vocabulary, query_one, label="Q1_pre")
    q2 = query_pre_atom(vocabulary, query_two, label="Q2_pre")
    return eventually(land(q1, lnot(q2)))


# ----------------------------------------------------------------------
# Data integrity restrictions
# ----------------------------------------------------------------------
def disjointness_formula(
    vocabulary: AccessVocabulary, constraint: DisjointnessConstraint
) -> AccFormula:
    """``G(¬overlap_pre ∧ ¬overlap_post)`` — the two columns never overlap.

    This is the paper's "mobile customer names do not overlap with street
    names" example.  The constraint is imposed on the pre- *and* the
    post-instance of every transition, so every configuration reached along
    the path (including the final one) satisfies it.
    """
    schema = vocabulary.access_schema.schema
    relation_a = schema.relation(constraint.relation_a)
    relation_b = schema.relation(constraint.relation_b)
    shared = Variable("shared")
    terms_a = tuple(
        shared if i == constraint.position_a else Variable(f"a{i}")
        for i in range(relation_a.arity)
    )
    terms_b = tuple(
        shared if i == constraint.position_b else Variable(f"b{i}")
        for i in range(relation_b.arity)
    )
    overlap_pre = sentence_from_atoms(
        (
            Atom(pre_name(constraint.relation_a), terms_a),
            Atom(pre_name(constraint.relation_b), terms_b),
        ),
        label=f"overlap_pre[{constraint}]",
    )
    overlap_post = sentence_from_atoms(
        (
            Atom(post_name(constraint.relation_a), terms_a),
            Atom(post_name(constraint.relation_b), terms_b),
        ),
        label=f"overlap_post[{constraint}]",
    )
    return globally(
        land(
            lnot(atom(overlap_pre.query, label=f"{constraint}(pre)")),
            lnot(atom(overlap_post.query, label=f"{constraint}(post)")),
        )
    )


def fd_violation_sentence(
    vocabulary: AccessVocabulary, fd: FunctionalDependency, use_post: bool = False
) -> EmbeddedSentence:
    """The sentence "two tuples violate the FD" (requires inequalities)."""
    schema = vocabulary.access_schema.schema
    relation = schema.relation(fd.relation)
    name = post_name(fd.relation) if use_post else pre_name(fd.relation)
    ys = tuple(Variable(f"y{i}") for i in range(relation.arity))
    zs = tuple(
        ys[i] if i in fd.lhs else Variable(f"z{i}") for i in range(relation.arity)
    )
    return sentence_from_atoms(
        (Atom(name, ys), Atom(name, zs)),
        inequalities=(Inequality(ys[fd.rhs], zs[fd.rhs]),),
        label=f"violates[{fd}]",
    )


def fd_formula(vocabulary: AccessVocabulary, fd: FunctionalDependency) -> AccFormula:
    """``¬F[∃ȳ ȳ' R_pre(ȳ) ∧ R_pre(ȳ') ∧ ⋀ y_k=y'_k ∧ y_a ≠ y'_a]`` — Example 2.4."""
    violation = fd_violation_sentence(vocabulary, fd)
    return lnot(eventually(atom(violation.query, label=str(fd))))


def fd_constraints_formula(
    vocabulary: AccessVocabulary, fds: Iterable[FunctionalDependency]
) -> AccFormula:
    """Conjunction of :func:`fd_formula` over a set of FDs."""
    formulas = [fd_formula(vocabulary, fd) for fd in fds]
    return land(*formulas) if formulas else land()


def ltr_under_fds_formula(
    vocabulary: AccessVocabulary,
    access: Access,
    query,
    fds: Iterable[FunctionalDependency],
) -> AccFormula:
    """Example 2.4: LTR of an access under functional dependencies."""
    return land(ltr_formula(vocabulary, access, query),
                fd_constraints_formula(vocabulary, fds))


# ----------------------------------------------------------------------
# Access-order and dataflow restrictions
# ----------------------------------------------------------------------
def access_order_formula(
    vocabulary: AccessVocabulary, before_method: str, after_method: str
) -> AccFormula:
    """No access via *after_method* may occur before one via *before_method*.

    Introduction example: "before making any access to Mobile#, the
    interface requires at least one access to Address".  Expressed with
    0-ary binding predicates, so the property lives in the PSPACE fragment.
    """
    after = zeroary_binding_atom(after_method)
    before = zeroary_binding_atom(before_method)
    never_after = globally(lnot(after))
    before_then_after = until(lnot(after), before)
    return lor(never_after, before_then_after)


def dataflow_formula(
    vocabulary: AccessVocabulary,
    method: AccessMethod,
    input_index: int,
    relation: str,
    relation_position: int,
) -> AccFormula:
    """Every value bound at *input_index* of *method* must already occur in
    *relation* (pre-access) at *relation_position*.

    This is the paper's "names input to Mobile# must have appeared
    previously in Address" dataflow restriction (Example 2.3).  The formula
    is binding-positive, hence in AccLTL+; it has no equivalent in the
    0-ary languages (the DF column of Table 1).

    Binding-positivity is obtained with the same trick the paper uses for
    groundedness: instead of the implication ``uses(AcM) → flow``, whose
    antecedent would put a binding atom under a negation, the formula says
    that every transition either uses one of the *other* methods or
    satisfies the flow condition — every transition uses exactly one
    method, so the two phrasings are equivalent.
    """
    schema = vocabulary.access_schema.schema
    target = schema.relation(relation)
    binding_vars = tuple(Variable(f"b{i}") for i in range(method.num_inputs))
    binding_atom = Atom(isbind_name(method.name), binding_vars)
    flow_terms = tuple(
        binding_vars[input_index] if j == relation_position else Variable(f"f{j}")
        for j in range(target.arity)
    )
    flows = atom(
        ConjunctiveQuery(
            atoms=(binding_atom, Atom(pre_name(relation), flow_terms)), head=()
        ),
        label=f"flow[{method.name}.{input_index}←{relation}.{relation_position}]",
    )
    alternatives = [flows]
    for other in vocabulary.access_schema:
        if other.name == method.name:
            continue
        other_vars = tuple(Variable(f"o{i}") for i in range(other.num_inputs))
        alternatives.append(
            atom(
                ConjunctiveQuery(
                    atoms=(Atom(isbind_name(other.name), other_vars),), head=()
                ),
                label=f"uses[{other.name}]",
            )
        )
    return globally(lor(*alternatives))


# ----------------------------------------------------------------------
# Relation-emptiness and simple observation atoms (used by Figure 1 / tests)
# ----------------------------------------------------------------------
def relation_nonempty_pre(vocabulary: AccessVocabulary, relation: str) -> AccFormula:
    """``∃x̄ R_pre(x̄)`` — the relation has a known fact before the access."""
    arity = vocabulary.access_schema.schema.arity(relation)
    variables = tuple(Variable(f"x{i}") for i in range(arity))
    return atom(
        ConjunctiveQuery(atoms=(Atom(pre_name(relation), variables),), head=()),
        label=f"nonempty_pre[{relation}]",
    )


def relation_nonempty_post(vocabulary: AccessVocabulary, relation: str) -> AccFormula:
    """``∃x̄ R_post(x̄)`` — the relation has a known fact after the access."""
    arity = vocabulary.access_schema.schema.arity(relation)
    variables = tuple(Variable(f"x{i}") for i in range(arity))
    return atom(
        ConjunctiveQuery(atoms=(Atom(post_name(relation), variables),), head=()),
        label=f"nonempty_post[{relation}]",
    )


def intro_until_example(vocabulary: AccessVocabulary, mobile: str, address: str,
                        mobile_method: str) -> AccFormula:
    """The introduction's running AccLTL sentence.

    ``(¬∃... Mobile#_pre(...)) U (∃n IsBind_AcM1(n) ∧ ∃... Address_pre(.., n, ..))``:
    nothing is known of Mobile# until an access via AcM1 is made whose bound
    name already occurs (as the resident name) in Address.
    """
    schema = vocabulary.access_schema.schema
    address_rel = schema.relation(address)
    method = vocabulary.access_schema.method(mobile_method)
    left = lnot(relation_nonempty_pre(vocabulary, mobile))
    name_var = Variable("n")
    # Address(street, postcode, name, houseno): the name is position 2.
    address_terms = tuple(
        name_var if j == 2 else Variable(f"a{j}") for j in range(address_rel.arity)
    )
    right = atom(
        ConjunctiveQuery(
            atoms=(
                Atom(isbind_name(method.name), (name_var,)),
                Atom(pre_name(address), address_terms),
            ),
            head=(),
        ),
        label="AcM1-binding-known-in-Address",
    )
    return until(left, right)
