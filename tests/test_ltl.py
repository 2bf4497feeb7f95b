"""Tests for propositional LTL over finite words: syntax, semantics, satisfiability."""

import pytest

from repro.ltl.sat import desugar, find_satisfying_word, is_satisfiable
from repro.ltl.semantics import satisfies, word_satisfies
from repro.ltl.syntax import (
    And,
    Eventually,
    FalseFormula,
    Globally,
    Next,
    Not,
    Or,
    Prop,
    TrueFormula,
    Until,
    bottom,
    conjunction,
    disjunction,
    prop,
    top,
)

p, q, r = prop("p"), prop("q"), prop("r")


class TestSyntax:
    def test_propositions_collected(self):
        formula = Until(p, And(q, Next(r)))
        assert formula.propositions() == frozenset({"p", "q", "r"})

    def test_size_and_depth(self):
        formula = Globally(Or(p, Next(q)))
        assert formula.size() == 5
        assert formula.temporal_depth() == 2

    def test_only_next_fragment(self):
        assert Next(And(p, q)).uses_only_next()
        assert not Eventually(p).uses_only_next()
        assert not Until(p, q).uses_only_next()

    def test_operators_sugar(self):
        formula = (p & q) | ~r
        assert isinstance(formula, Or)
        assert isinstance(formula.right, Not)
        assert isinstance(p.implies(q), Or)

    def test_conjunction_disjunction_helpers(self):
        assert isinstance(conjunction([]), TrueFormula)
        assert isinstance(disjunction([]), FalseFormula)
        assert conjunction([p]) == p
        assert disjunction([p, q]) == Or(p, q)


class TestSemantics:
    def test_prop_and_boolean(self):
        word = [{"p"}, {"q"}]
        assert word_satisfies(word, p)
        assert not word_satisfies(word, q)
        assert word_satisfies(word, Or(q, p))
        assert word_satisfies(word, Not(q))
        assert word_satisfies(word, top())
        assert not word_satisfies(word, bottom())

    def test_next_is_strict(self):
        assert word_satisfies([{"p"}, {"q"}], Next(q))
        assert not word_satisfies([{"p"}], Next(top()))

    def test_until(self):
        word = [{"p"}, {"p"}, {"q"}]
        assert word_satisfies(word, Until(p, q))
        assert not word_satisfies([{"p"}, set(), {"q"}], Until(p, q))
        # The right-hand side may hold immediately.
        assert word_satisfies([{"q"}], Until(p, q))

    def test_until_requires_witness_within_word(self):
        assert not word_satisfies([{"p"}, {"p"}], Until(p, q))

    def test_eventually_globally(self):
        word = [{"p"}, {"p", "q"}, {"p"}]
        assert word_satisfies(word, Eventually(q))
        assert word_satisfies(word, Globally(p))
        assert not word_satisfies(word, Globally(q))

    def test_positions(self):
        word = [{"p"}, {"q"}]
        assert satisfies(word, 1, q)
        assert not satisfies(word, 2, q)
        assert not satisfies(word, -1, q)

    def test_empty_word_satisfies_nothing(self):
        assert not word_satisfies([], top())


class TestSatisfiability:
    def test_simple_satisfiable(self):
        word = find_satisfying_word(And(p, Next(q)))
        assert word is not None
        assert word_satisfies(word, And(p, Next(q)))

    def test_contradiction_unsatisfiable(self):
        assert not is_satisfiable(And(p, Not(p)))

    def test_eventually_and_globally_interaction(self):
        formula = And(Globally(p), Eventually(q))
        word = find_satisfying_word(formula)
        assert word is not None
        assert word_satisfies(word, formula)

    def test_globally_not_vs_eventually(self):
        assert not is_satisfiable(And(Globally(Not(p)), Eventually(p)))

    def test_until_satisfiable_with_witness(self):
        formula = Until(p, And(q, Not(p)))
        word = find_satisfying_word(formula)
        assert word is not None
        assert word_satisfies(word, formula)

    def test_next_chain(self):
        formula = Next(Next(Next(p)))
        word = find_satisfying_word(formula)
        assert word is not None
        assert len(word) >= 4
        assert word_satisfies(word, formula)

    def test_next_false_is_satisfiable_by_short_word(self):
        # ¬X true holds exactly at the last position of a word.
        formula = Not(Next(TrueFormula()))
        word = find_satisfying_word(formula)
        assert word is not None
        assert len(word) == 1

    def test_restricted_alphabet(self):
        formula = And(p, Next(q))
        letters = [frozenset({"p"}), frozenset({"q"})]
        word = find_satisfying_word(formula, letters=letters)
        assert word is not None
        assert all(letter in letters for letter in word)

    def test_restricted_alphabet_can_make_unsatisfiable(self):
        formula = And(p, q)
        letters = [frozenset({"p"}), frozenset({"q"})]
        assert not is_satisfiable(formula, letters=letters)

    def test_max_length_bound(self):
        formula = Next(Next(p))
        assert not is_satisfiable(formula, max_length=2)
        assert is_satisfiable(formula, max_length=5)

    def test_desugar_preserves_satisfaction(self):
        formula = Globally(Or(p, Eventually(q)))
        word = [{"p"}, set(), {"q"}]
        assert word_satisfies(word, formula) == word_satisfies(word, desugar(formula))

    def test_mutual_exclusion_scheduler_like_formula(self):
        # A small "protocol" property: p and q alternate and never co-occur.
        formula = And(
            Globally(Not(And(p, q))),
            And(Eventually(p), Eventually(q)),
        )
        word = find_satisfying_word(formula)
        assert word is not None
        assert word_satisfies(word, formula)


def _reference_transition_allowed(tableau, source, target):
    """The tableau step relation re-derived from the two assignments."""
    from repro.ltl.sat import _local_eval

    before = {f: (f in source) for f in tableau.elementary}
    after = {f: (f in target) for f in tableau.elementary}
    for next_formula in tableau.nexts:
        if before[next_formula] != _local_eval(next_formula.operand, after):
            return False
    for until in tableau.untils:
        if before[until] and not _local_eval(until.right, before) and not after[until]:
            return False
        if not before[until] and _local_eval(until.left, before) and after[until]:
            return False
    return True


class TestTableauSteps:
    @pytest.mark.parametrize(
        "formula",
        [
            Until(p, And(q, Next(r))),
            Globally(Or(p, Next(q))),
            And(Eventually(p), Until(Not(q), Next(Until(q, r)))),
            Next(Next(Or(p, Until(q, Not(p))))),
        ],
    )
    def test_cached_state_profiles_match_reference(self, formula):
        from repro.ltl.sat import _Tableau

        tableau = _Tableau(desugar(formula), letters=None)
        states = [state for state, _ in tableau.states()]
        for _ in range(2):  # the second pass reads the cached profiles
            for source in states:
                for target in states:
                    assert tableau.transition_allowed(
                        source, target
                    ) == _reference_transition_allowed(tableau, source, target)
