"""Fragment classification of AccLTL formulas.

The paper studies a hierarchy of languages (Figure 2 / Table 1):

* ``AccLTL(FO∃+,≠_Acc)`` — full n-ary bindings, inequalities (undecidable);
* ``AccLTL(FO∃+_Acc)``   — full n-ary bindings (undecidable, Theorem 3.1);
* ``AccLTL+``            — binding-positive fragment (3EXPTIME, Theorem 4.2);
* ``AccLTL(FO∃+_0-Acc)`` and ``AccLTL(FO∃+,≠_0-Acc)`` — 0-ary binding
  predicates (PSPACE-complete, Theorems 4.12 / 5.1);
* ``AccLTL(X)(FO∃+(,≠)_0-Acc)`` — additionally only ``X`` as temporal
  operator (ΣP2-complete, Theorem 4.14).

This module computes the syntactic features of a formula (polarity of
binding atoms, binding arity used, temporal operators, inequalities) and
classifies it into the *smallest* language of the hierarchy that contains
it, which the solver uses to dispatch to the cheapest decision procedure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

from repro.core.formulas import (
    AccAtom,
    AccEventually,
    AccFormula,
    AccGlobally,
    AccNot,
    AccUntil,
)


class Fragment(enum.Enum):
    """The language classes of Table 1, ordered from smallest to largest."""

    ACCLTL_X_ZEROARY = "AccLTL(X)(FO∃+,≠_0-Acc)"
    ACCLTL_ZEROARY = "AccLTL(FO∃+_0-Acc)"
    ACCLTL_ZEROARY_INEQ = "AccLTL(FO∃+,≠_0-Acc)"
    ACCLTL_PLUS = "AccLTL+"
    ACCLTL_FULL = "AccLTL(FO∃+_Acc)"
    ACCLTL_FULL_INEQ = "AccLTL(FO∃+,≠_Acc)"


#: Fragments with a decidable satisfiability problem (Table 1).
DECIDABLE_FRAGMENTS = frozenset(
    {
        Fragment.ACCLTL_X_ZEROARY,
        Fragment.ACCLTL_ZEROARY,
        Fragment.ACCLTL_ZEROARY_INEQ,
        Fragment.ACCLTL_PLUS,
    }
)

#: Complexity of satisfiability per fragment, as established by the paper.
COMPLEXITY = {
    Fragment.ACCLTL_X_ZEROARY: "ΣP2-complete",
    Fragment.ACCLTL_ZEROARY: "PSPACE-complete",
    Fragment.ACCLTL_ZEROARY_INEQ: "PSPACE-complete",
    Fragment.ACCLTL_PLUS: "in 3EXPTIME (2EXPTIME-hard)",
    Fragment.ACCLTL_FULL: "undecidable",
    Fragment.ACCLTL_FULL_INEQ: "undecidable",
}


@dataclass(frozen=True)
class FragmentReport:
    """The syntactic features of a formula and its fragment classification."""

    fragment: Fragment
    uses_nary_binding: bool
    nary_binding_negative: bool
    uses_inequalities: bool
    temporal_operators: FrozenSet[str]
    only_next: bool

    @property
    def decidable(self) -> bool:
        """Whether satisfiability is decidable for the classified fragment."""
        return self.fragment in DECIDABLE_FRAGMENTS

    @property
    def complexity(self) -> str:
        """The paper's complexity bound for the classified fragment."""
        return COMPLEXITY[self.fragment]


def _binding_polarities(formula: AccFormula, negative: bool = False) -> List[Tuple[AccAtom, bool]]:
    """Pairs ``(atom, occurs_under_odd_negations)`` for binding-mentioning atoms."""
    results: List[Tuple[AccAtom, bool]] = []
    if isinstance(formula, AccAtom):
        if formula.sentence.mentions_nary_binding():
            results.append((formula, negative))
        return results
    if isinstance(formula, AccNot):
        return _binding_polarities(formula.operand, not negative)
    for child in formula.children():
        results.extend(_binding_polarities(child, negative))
    return results


def is_binding_positive(formula: AccFormula) -> bool:
    """Whether every n-ary ``IsBind`` atom occurs only positively (AccLTL+)."""
    return all(not negative for _, negative in _binding_polarities(formula))


def uses_nary_binding(formula: AccFormula) -> bool:
    """Whether any embedded sentence uses an n-ary binding predicate."""
    return any(
        isinstance(node, AccAtom) and node.sentence.mentions_nary_binding()
        for node in formula.walk()
    )


def uses_inequalities(formula: AccFormula) -> bool:
    """Whether any embedded sentence uses inequality atoms."""
    return any(
        isinstance(node, AccAtom) and node.sentence.has_inequalities
        for node in formula.walk()
    )


def only_next_operator(formula: AccFormula) -> bool:
    """Whether the only temporal operator used is ``X``."""
    for node in formula.walk():
        if isinstance(node, (AccUntil, AccEventually, AccGlobally)):
            return False
    return True


def classify(formula: AccFormula) -> FragmentReport:
    """Classify a formula into the smallest language of the hierarchy."""
    nary = uses_nary_binding(formula)
    binding_positive = is_binding_positive(formula)
    inequalities = uses_inequalities(formula)
    only_x = only_next_operator(formula)
    operators = formula.temporal_operators()

    if not nary:
        if only_x:
            fragment = Fragment.ACCLTL_X_ZEROARY
        elif inequalities:
            fragment = Fragment.ACCLTL_ZEROARY_INEQ
        else:
            fragment = Fragment.ACCLTL_ZEROARY
    else:
        if binding_positive and not inequalities:
            fragment = Fragment.ACCLTL_PLUS
        elif inequalities:
            fragment = Fragment.ACCLTL_FULL_INEQ
        else:
            fragment = Fragment.ACCLTL_FULL

    return FragmentReport(
        fragment=fragment,
        uses_nary_binding=nary,
        nary_binding_negative=not binding_positive,
        uses_inequalities=inequalities,
        temporal_operators=operators,
        only_next=only_x,
    )


def inclusion_order() -> List[Tuple[Fragment, Fragment]]:
    """The strict inclusions between language classes shown in Figure 2.

    Each pair ``(small, large)`` states that every property expressible in
    the small language is expressible in the large one.  (The A-automata
    node of Figure 2 is handled in :mod:`repro.automata`.)
    """
    return [
        (Fragment.ACCLTL_X_ZEROARY, Fragment.ACCLTL_ZEROARY_INEQ),
        (Fragment.ACCLTL_ZEROARY, Fragment.ACCLTL_ZEROARY_INEQ),
        (Fragment.ACCLTL_ZEROARY, Fragment.ACCLTL_PLUS),
        (Fragment.ACCLTL_PLUS, Fragment.ACCLTL_FULL),
        (Fragment.ACCLTL_FULL, Fragment.ACCLTL_FULL_INEQ),
        (Fragment.ACCLTL_ZEROARY_INEQ, Fragment.ACCLTL_FULL_INEQ),
    ]
