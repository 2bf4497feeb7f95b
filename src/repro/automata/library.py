"""Ready-made A-automata for the static-analysis problems of Proposition 4.4.

Proposition 4.4: for positive queries ``Q``, ``Q'``, a set of access
methods and a set of disjointness constraints, one can efficiently produce
A-automata such that

* ``Q ⊆ Q'`` under limited access patterns with disjointness constraints
  iff the automaton's language is empty, and
* an access is long-term relevant for ``Q`` under disjointness constraints
  iff the automaton's language is non-empty.

We produce the automata by compiling the corresponding AccLTL+ formulas
(Examples 2.2 / 2.3 conjoined with the disjointness and groundedness
formulas of :mod:`repro.core.properties`); Lemma 4.5 guarantees the result
is an equivalent A-automaton.  The builders accept optional flags to omit
the groundedness conjunct (for "independent" accesses) and to add
access-order restrictions.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.access.methods import Access
from repro.automata.aautomaton import AAutomaton
from repro.automata.compile import compile_accltl_plus
from repro.core.formulas import AccFormula, land
from repro.core.properties import (
    access_order_formula,
    containment_counterexample_formula,
    disjointness_formula,
    groundedness_formula,
    ltr_formula,
)
from repro.core.vocabulary import AccessVocabulary
from repro.relational.dependencies import DisjointnessConstraint


def _with_constraints(
    vocabulary: AccessVocabulary,
    base_formula: AccFormula,
    disjointness: Iterable[DisjointnessConstraint],
    grounded: bool,
    access_order: Sequence[tuple] = (),
) -> AccFormula:
    """Conjoin a base property with constraint formulas."""
    conjuncts = [base_formula]
    for constraint in disjointness:
        conjuncts.append(disjointness_formula(vocabulary, constraint))
    if grounded:
        conjuncts.append(groundedness_formula(vocabulary))
    for before_method, after_method in access_order:
        conjuncts.append(access_order_formula(vocabulary, before_method, after_method))
    return land(*conjuncts)


def containment_automaton(
    vocabulary: AccessVocabulary,
    query_one,
    query_two,
    disjointness: Iterable[DisjointnessConstraint] = (),
    grounded: bool = True,
    access_order: Sequence[tuple] = (),
) -> AAutomaton:
    """The counterexample automaton for ``Q1 ⊆ Q2`` under access patterns.

    Its language is empty iff ``Q1`` is contained in ``Q2`` relative to the
    schema's access patterns, the given disjointness constraints and
    (optionally) groundedness and access-order restrictions.
    """
    formula = _with_constraints(
        vocabulary,
        containment_counterexample_formula(vocabulary, query_one, query_two),
        disjointness,
        grounded,
        access_order,
    )
    return compile_accltl_plus(formula, name="containment-counterexample")


def ltr_automaton(
    vocabulary: AccessVocabulary,
    access: Access,
    query,
    disjointness: Iterable[DisjointnessConstraint] = (),
    grounded: bool = False,
    access_order: Sequence[tuple] = (),
) -> AAutomaton:
    """The witness automaton for long-term relevance of an access.

    Its language is non-empty iff the (boolean) access is long-term
    relevant for the query under the given constraints (Example 2.3 /
    Proposition 4.4).
    """
    formula = _with_constraints(
        vocabulary,
        ltr_formula(vocabulary, access, query),
        disjointness,
        grounded,
        access_order,
    )
    return compile_accltl_plus(formula, name="ltr-witness")
