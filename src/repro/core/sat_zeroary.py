"""Satisfiability for the 0-ary binding languages (Theorems 4.12 and 5.1).

``AccLTL(FO∃+_0-Acc)`` — and its extension with inequalities — refers to
accesses only through the 0-ary predicates ``IsBind0_AcM`` ("which method
was used"), never to the binding values.  The paper proves satisfiability
PSPACE-complete via two steps:

1. **Boundedness Lemma (Lemma 4.13).**  If the formula is satisfiable then
   it has a witness path whose instances and binding set are polynomial in
   the sizes of the formula and the schema: it suffices to keep, for every
   positive sentence satisfied along the path, one homomorphic image of it.

2. **Reduction to propositional LTL.**  Guess a bounded sequence of
   instances and accesses, abstract each transition into a propositional
   letter, rewrite the formula over those propositions and call an ordinary
   finite-word LTL satisfiability checker.

This module implements both ingredients:

* :func:`lemma_4_13_bounds` computes the fact pool (the homomorphic-image
  candidates), the value pool and the path-length bound used by the search;
* :func:`abstract_to_word` / :func:`translate_to_ltl` implement the
  propositional abstraction of a concrete path and of the formula — the
  tests check the abstraction theorem ``(p,1) ⊨ φ  iff  word ⊨ φ̄`` on
  sampled paths, and :func:`is_satisfiable_via_ltl_abstraction` uses it to
  decide satisfiability over a supplied family of candidate paths;
* :func:`zeroary_satisfiable` is the end-to-end decision procedure: it
  searches for a witness among paths built from the Lemma 4.13 pools.  The
  search bound on the path length is ``|fact pool| + #temporal operators +
  1`` — enough for every formula in this repository (each step either
  reveals a new fact from the pool or serves one temporal obligation);
  the returned result records the bounds used so callers can enlarge them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.access.path import AccessPath
from repro.core.bounded_check import (
    Bounds,
    bounded_satisfiability,
    formula_fact_pool,
    default_value_pool,
)
from repro.core.formulas import (
    AccAnd,
    AccAtom,
    AccEventually,
    AccFormula,
    AccGlobally,
    AccNext,
    AccNot,
    AccOr,
    AccTrue,
    AccUntil,
    EmbeddedSentence,
)
from repro.core.fragments import classify
from repro.core.semantics import path_satisfies
from repro.core.transition import path_structures
from repro.core.vocabulary import AccessVocabulary
from repro.ltl import syntax as ltl_syntax
from repro.ltl.semantics import word_satisfies
from repro.queries.evaluation import holds
from repro.relational.instance import Instance


class FragmentError(ValueError):
    """Raised when a formula is outside the fragment a procedure handles."""


def _require_zeroary(formula: AccFormula) -> None:
    report = classify(formula)
    if report.uses_nary_binding:
        raise FragmentError(
            "the 0-ary procedure only handles formulas without n-ary IsBind "
            f"predicates; got fragment {report.fragment.value}"
        )


# ----------------------------------------------------------------------
# Lemma 4.13: bounds
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ZeroaryBounds:
    """The bounds produced by the Boundedness Lemma for a formula."""

    fact_pool: Tuple[Tuple[str, Tuple[object, ...]], ...]
    value_pool: Tuple[object, ...]
    max_path_length: int
    max_response_size: int


def lemma_4_13_bounds(
    vocabulary: AccessVocabulary,
    formula: AccFormula,
    initial: Optional[Instance] = None,
    slack: int = 1,
) -> ZeroaryBounds:
    """Compute the witness-size bounds of Lemma 4.13 for *formula*.

    The fact pool contains one frozen homomorphic image per disjunct of
    every embedded sentence; the value pool adds the formula's constants,
    the initial instance's values and one fresh value; the path length is
    bounded by the size of the fact pool plus the number of temporal
    operators plus *slack* (each useful step either reveals a pool fact or
    discharges a temporal obligation).
    """
    if initial is None:
        initial = vocabulary.access_schema.empty_instance()
    fact_pool = tuple(formula_fact_pool(vocabulary, formula))
    value_pool = tuple(
        default_value_pool(vocabulary, formula, fact_pool, initial, fresh_values=1)
    )
    temporal_operators = sum(
        1
        for node in formula.walk()
        if isinstance(node, (AccNext, AccUntil, AccEventually, AccGlobally))
    )
    # The path-length bound counts the facts a witness may need to reveal
    # (one homomorphic image per sentence, revealed one relation-and-binding
    # at a time) plus one step per temporal obligation.  The *enriched* pool
    # contains alternative variants of the same facts, so the bound is based
    # on the per-sentence atom counts, not on the pool size.
    revealed_facts_bound = 0
    for sentence in formula.atoms():
        revealed_facts_bound += max(
            (
                sum(1 for atom in disjunct.atoms if not atom.relation.startswith("IsBind"))
                for disjunct in sentence.query.disjuncts
            ),
            default=0,
        )
    max_path_length = max(1, revealed_facts_bound + temporal_operators + slack)
    # A single response only ever needs to deliver the atoms of one disjunct
    # that fall in one relation (the homomorphic image of a disjunct is
    # revealed one relation-and-binding at a time).
    max_response_size = 1
    for sentence in formula.atoms():
        for disjunct in sentence.query.disjuncts:
            per_relation: Dict[str, int] = {}
            for atom in disjunct.atoms:
                per_relation[atom.relation] = per_relation.get(atom.relation, 0) + 1
            if per_relation:
                max_response_size = max(max_response_size, max(per_relation.values()))
    return ZeroaryBounds(
        fact_pool=fact_pool,
        value_pool=value_pool,
        max_path_length=max_path_length,
        max_response_size=max_response_size,
    )


# ----------------------------------------------------------------------
# Propositional abstraction (the reduction of Theorem 4.12)
# ----------------------------------------------------------------------
def _sentence_propositions(formula: AccFormula) -> Dict[EmbeddedSentence, str]:
    """A proposition name for every embedded sentence of the formula."""
    return {
        sentence: f"q{index}"
        for index, sentence in enumerate(formula.atoms())
    }


def translate_to_ltl(
    formula: AccFormula, naming: Optional[Dict[EmbeddedSentence, str]] = None
) -> ltl_syntax.LTLFormula:
    """Rewrite an AccLTL formula over propositions, one per embedded sentence."""
    if naming is None:
        naming = _sentence_propositions(formula)

    def rewrite(node: AccFormula) -> ltl_syntax.LTLFormula:
        if isinstance(node, AccTrue):
            return ltl_syntax.TrueFormula()
        if isinstance(node, AccAtom):
            return ltl_syntax.Prop(naming[node.sentence])
        if isinstance(node, AccNot):
            return ltl_syntax.Not(rewrite(node.operand))
        if isinstance(node, AccAnd):
            return ltl_syntax.And(rewrite(node.left), rewrite(node.right))
        if isinstance(node, AccOr):
            return ltl_syntax.Or(rewrite(node.left), rewrite(node.right))
        if isinstance(node, AccNext):
            return ltl_syntax.Next(rewrite(node.operand))
        if isinstance(node, AccUntil):
            return ltl_syntax.Until(rewrite(node.left), rewrite(node.right))
        if isinstance(node, AccEventually):
            return ltl_syntax.Eventually(rewrite(node.operand))
        if isinstance(node, AccGlobally):
            return ltl_syntax.Globally(rewrite(node.operand))
        raise TypeError(f"unknown AccLTL node {node!r}")

    return rewrite(formula)


def abstract_to_word(
    vocabulary: AccessVocabulary,
    formula: AccFormula,
    path: AccessPath,
    initial: Optional[Instance] = None,
    naming: Optional[Dict[EmbeddedSentence, str]] = None,
) -> List[FrozenSet[str]]:
    """The propositional abstraction of a path w.r.t. the formula's sentences.

    Letter *i* contains the proposition of every embedded sentence that is
    true in the *i*-th transition structure.
    """
    if naming is None:
        naming = _sentence_propositions(formula)
    structures = path_structures(vocabulary, path, initial)
    word: List[FrozenSet[str]] = []
    for structure in structures:
        letter = frozenset(
            name
            for sentence, name in naming.items()
            if holds(sentence.query, structure.structure)
        )
        word.append(letter)
    return word


def abstraction_agrees(
    vocabulary: AccessVocabulary,
    formula: AccFormula,
    path: AccessPath,
    initial: Optional[Instance] = None,
) -> bool:
    """Check the abstraction theorem on one path: ``(p,1)⊨φ iff word⊨φ̄``.

    Used by the property tests; always true by construction of the
    abstraction (each atom is replaced by a proposition carrying exactly
    its truth value at every position).
    """
    naming = _sentence_propositions(formula)
    concrete = path_satisfies(vocabulary, path, formula, initial=initial)
    word = abstract_to_word(vocabulary, formula, path, initial=initial, naming=naming)
    if not word:
        return concrete is False
    abstract = word_satisfies(word, translate_to_ltl(formula, naming))
    return concrete == abstract


def is_satisfiable_via_ltl_abstraction(
    vocabulary: AccessVocabulary,
    formula: AccFormula,
    candidate_paths: Iterable[AccessPath],
    initial: Optional[Instance] = None,
) -> Optional[AccessPath]:
    """Find a satisfying path among candidates using the LTL abstraction.

    The abstraction of each candidate path is checked against the
    translated propositional formula; the first path whose abstraction
    satisfies it is returned (and, by the abstraction theorem, really
    satisfies the AccLTL formula).
    """
    naming = _sentence_propositions(formula)
    translated = translate_to_ltl(formula, naming)
    for path in candidate_paths:
        if len(path) == 0:
            continue
        word = abstract_to_word(vocabulary, formula, path, initial=initial, naming=naming)
        if word_satisfies(word, translated):
            return path
    return None


# ----------------------------------------------------------------------
# End-to-end decision procedure
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ZeroarySatResult:
    """Result of the 0-ary satisfiability procedure."""

    satisfiable: bool
    witness: Optional[AccessPath]
    bounds: ZeroaryBounds
    paths_explored: int
    exhausted: bool


def zeroary_satisfiable(
    vocabulary: AccessVocabulary,
    formula: AccFormula,
    initial: Optional[Instance] = None,
    grounded_only: bool = False,
    max_paths: int = 60000,
    slack: int = 1,
) -> ZeroarySatResult:
    """Decide satisfiability of a 0-ary-binding AccLTL formula.

    Implements the algorithm of Theorem 4.12 (and Theorem 5.1 — the
    presence of inequalities changes nothing): compute the Lemma 4.13
    pools and search for a witness path over them.  Raises
    :class:`FragmentError` if the formula uses n-ary binding predicates.
    """
    _require_zeroary(formula)
    if initial is None:
        initial = vocabulary.access_schema.empty_instance()
    bounds = lemma_4_13_bounds(vocabulary, formula, initial=initial, slack=slack)
    search_bounds = Bounds(
        max_path_length=bounds.max_path_length,
        max_response_size=bounds.max_response_size,
        max_paths=max_paths,
    )
    result = bounded_satisfiability(
        vocabulary,
        formula,
        search_bounds,
        initial=initial,
        fact_pool=list(bounds.fact_pool),
        value_pool=list(bounds.value_pool),
        grounded_only=grounded_only,
    )
    return ZeroarySatResult(
        satisfiable=result.satisfiable,
        witness=result.witness,
        bounds=bounds,
        paths_explored=result.paths_explored,
        exhausted=result.exhausted,
    )
