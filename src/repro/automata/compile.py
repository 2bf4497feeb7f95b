"""Compilation of AccLTL+ formulas into A-automata (Lemma 4.5).

The construction follows the standard LTL-to-automaton tableau, applied to
the propositional abstraction of the formula (one proposition per embedded
sentence):

* tableau states are truth assignments to the elementary subformulas of the
  abstracted formula (propositions = embedded sentences, ``X``- and
  ``U``-subformulas), locally consistent with the ``U`` fixpoint expansion;
* the automaton has an extra initial state; a transition into a tableau
  state is guarded by the conjunction of the sentences the state asserts
  true and the negations of the (non-binding) sentences it asserts false;
* accepting states are the tableau states with no pending obligations.

Binding-positivity is what makes dropping the negations of
binding-mentioning sentences sound: those sentences occur only positively
in the formula, so a path whose transition satisfies *more* of them than
the run guessed still satisfies the formula.  The resulting automaton is
exponential in the number of embedded sentences and temporal operators —
the bound stated by Lemma 4.5.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from repro.automata.aautomaton import AAutomaton, ATransition, Guard
from repro.core.formulas import AccFormula, EmbeddedSentence
from repro.core.fragments import classify
from repro.core.sat_zeroary import FragmentError, translate_to_ltl
from repro.ltl.sat import _Tableau, desugar
from repro.ltl.syntax import LTLFormula


def compile_accltl_plus(
    formula: AccFormula, name: Optional[str] = None, enforce_fragment: bool = True
) -> AAutomaton:
    """Compile a binding-positive AccLTL formula into an equivalent A-automaton.

    Raises :class:`~repro.core.sat_zeroary.FragmentError` when the formula
    is not binding-positive (unless *enforce_fragment* is disabled, which is
    useful for experiments on the boundary of the fragment — the resulting
    automaton is then only an over-approximation of the formula's language).
    """
    report = classify(formula)
    if enforce_fragment and report.uses_nary_binding and report.nary_binding_negative:
        raise FragmentError(
            "compile_accltl_plus requires a binding-positive formula (AccLTL+); "
            f"got fragment {report.fragment.value}"
        )

    sentences = formula.atoms()
    naming: Dict[EmbeddedSentence, str] = {
        sentence: f"q{index}" for index, sentence in enumerate(sentences)
    }
    by_name: Dict[str, EmbeddedSentence] = {v: k for k, v in naming.items()}

    ltl_formula: LTLFormula = desugar(translate_to_ltl(formula, naming))
    tableau = _Tableau(ltl_formula, letters=None)
    tableau_states = list(tableau.states())

    state_names: Dict[FrozenSet, str] = {}
    guards: Dict[str, Guard] = {}
    for index, (state, letter) in enumerate(tableau_states):
        state_name = f"s{index}"
        state_names[state] = state_name
        true_sentences = tuple(by_name[p] for p in sorted(letter) if p in by_name)
        false_sentences = [
            by_name[p.name]
            for p in tableau.props
            if p.name in by_name and p.name not in letter
        ]
        # Sentences asserted false become negated guard conjuncts, except
        # those mentioning an n-ary binding predicate: Definition 4.3 forbids
        # them in ψ⁻, and binding-positivity makes dropping them sound (the
        # formula is monotone in those atoms).  Negated 0-ary IsBind
        # propositions are kept (see the Guard docstring).
        negated = tuple(
            sentence
            for sentence in false_sentences
            if not sentence.mentions_nary_binding()
        )
        guards[state_name] = Guard(positives=true_sentences, negated=negated)

    initial_name = "init"
    transitions: List[ATransition] = []
    accepting: List[str] = []

    for (state, _letter) in tableau_states:
        state_name = state_names[state]
        if tableau.is_initial(state):
            transitions.append(
                ATransition(initial_name, guards[state_name], state_name)
            )
        if tableau.is_final(state):
            accepting.append(state_name)

    for (source, _sl) in tableau_states:
        for (target, _tl) in tableau_states:
            if tableau.transition_allowed(source, target):
                transitions.append(
                    ATransition(
                        state_names[source],
                        guards[state_names[target]],
                        state_names[target],
                    )
                )

    automaton = AAutomaton(
        states=[initial_name] + [state_names[s] for s, _ in tableau_states],
        initial=initial_name,
        accepting=accepting,
        transitions=transitions,
        name=name or f"A[{formula}]",
    )
    return automaton.trim()
