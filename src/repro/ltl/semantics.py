"""Finite-word semantics of propositional LTL.

A finite word is a sequence of letters, each letter being a set (or
frozenset) of proposition names true at that position.  The semantics
matches the paper's usage (satisfiability of LTL over *finite* words, the
target of the reductions of Theorems 4.12 and 4.14):

* ``X φ`` requires a next position to exist (strict next);
* ``φ U ψ`` requires ψ to hold at some position ``j ≥ i`` within the word;
* ``F``/``G`` are the usual abbreviations.

The empty word satisfies no formula (there is no position 0), matching the
convention that access paths are non-empty when checked against AccLTL
formulas at position 1.
"""

from __future__ import annotations

from typing import FrozenSet, Sequence, Set, Union

from repro.ltl.syntax import (
    And,
    Eventually,
    FalseFormula,
    Globally,
    LTLFormula,
    Next,
    Not,
    Or,
    Prop,
    TrueFormula,
    Until,
)

Letter = Union[Set[str], FrozenSet[str]]
Word = Sequence[Letter]


def satisfies(word: Word, position: int, formula: LTLFormula) -> bool:
    """Whether ``(word, position) ⊨ formula`` under finite-word semantics."""
    if position < 0 or position >= len(word):
        return False
    if isinstance(formula, TrueFormula):
        return True
    if isinstance(formula, FalseFormula):
        return False
    if isinstance(formula, Prop):
        return formula.name in word[position]
    if isinstance(formula, Not):
        return not satisfies(word, position, formula.operand)
    if isinstance(formula, And):
        return satisfies(word, position, formula.left) and satisfies(
            word, position, formula.right
        )
    if isinstance(formula, Or):
        return satisfies(word, position, formula.left) or satisfies(
            word, position, formula.right
        )
    if isinstance(formula, Next):
        return position + 1 < len(word) and satisfies(
            word, position + 1, formula.operand
        )
    if isinstance(formula, Until):
        for j in range(position, len(word)):
            if satisfies(word, j, formula.right):
                if all(satisfies(word, k, formula.left) for k in range(position, j)):
                    return True
        return False
    if isinstance(formula, Eventually):
        return any(
            satisfies(word, j, formula.operand) for j in range(position, len(word))
        )
    if isinstance(formula, Globally):
        return all(
            satisfies(word, j, formula.operand) for j in range(position, len(word))
        )
    raise TypeError(f"unknown LTL formula node {formula!r}")


def word_satisfies(word: Word, formula: LTLFormula) -> bool:
    """Whether the (non-empty) word satisfies the formula at its first position."""
    return satisfies(word, 0, formula)
