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

**Templates.**  Everything above except the guards' sentences is a
function of two things: the desugared abstract LTL formula (propositions
``q0``, ``q1``, … are positions in ``formula.atoms()``) and which of those
propositions mention an n-ary binding predicate (they decide which false
sentences become negated conjuncts).  A bounded LRU keyed by that pair
caches the *template*: the trimmed state names, the accepting states, each
state's letter as proposition indices and the ``(source, target)``
transitions, all in the order the construction produces them.  A compile
substitutes its own sentences into the letters, one ``Guard`` per target
state, so a cached template yields the automaton a cold compile would
build.  The template also records the automaton's ``minimise()`` quotient
in its own terms (see :meth:`AAutomaton.minimise`): the quotient
partitions states by guard labels, which are sets of sentences, and the
sentences of one formula are distinct, so labels are equal exactly when
the index sets are.  The fragment check, the Definition 4.3 check in
``Guard`` and the automaton's validation run on every compile.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.automata.aautomaton import AAutomaton, ATransition, Guard, useful_states
from repro.core.formulas import AccFormula, EmbeddedSentence
from repro.core.fragments import classify
from repro.core.sat_zeroary import FragmentError, translate_to_ltl
from repro.ltl.sat import _Tableau, desugar
from repro.ltl.syntax import LTLFormula
from repro.obs import metrics as _metrics

#: Name of the automaton's extra initial state.
INITIAL = "init"

#: A state's letter: the indices of the sentences it asserts true (in
#: ``sorted`` proposition-name order) and of those it negates (in tableau
#: order, binding-mentioning ones dropped).
Letter = Tuple[Tuple[int, ...], Tuple[int, ...]]


@dataclass
class _Template:
    """A compiled formula with proposition indices in place of sentences."""

    states: Tuple[str, ...]
    accepting: FrozenSet[str]
    letters: Dict[str, Letter]
    edges: Tuple[Tuple[str, str], ...]
    #: ``minimise()`` in template terms — ``(states, accepting,
    #: transitions)``, a transition being ``(source, guard owner, target)``
    #: where the guard owner is the state whose guard it carries — once
    #: some automaton of this template was minimised.
    quotient: Optional[Tuple[tuple, FrozenSet[str], tuple]] = None


_TEMPLATE_CACHE: "OrderedDict[Tuple[LTLFormula, Tuple[bool, ...]], _Template]" = OrderedDict()
_TEMPLATE_CACHE_MAX = 64


def clear_template_cache() -> None:
    """Empty the template LRU (templates and their quotients)."""
    _TEMPLATE_CACHE.clear()


def _build_template(formula: LTLFormula, masked: Tuple[bool, ...]) -> _Template:
    """The tableau construction of the module docstring, in index terms."""
    position = {f"q{index}": index for index in range(len(masked))}
    tableau = _Tableau(formula, letters=None)
    tableau_states = list(tableau.states())
    names = [f"s{index}" for index in range(len(tableau_states))]
    letters: Dict[str, Letter] = {}
    for name, (_, letter) in zip(names, tableau_states):
        letters[name] = (
            tuple(position[p] for p in sorted(letter) if p in position),
            tuple(
                position[p.name]
                for p in tableau.props
                if p.name in position
                and p.name not in letter
                # Definition 4.3 forbids sentences mentioning an n-ary
                # binding in ψ⁻, and binding-positivity makes dropping them
                # sound (the formula is monotone in those atoms).  Negated
                # 0-ary IsBind propositions are kept (see the Guard
                # docstring).
                and not masked[position[p.name]]
            ),
        )
    named = list(zip(names, (state for state, _ in tableau_states)))
    edges = [(INITIAL, name) for name, state in named if tableau.is_initial(state)]
    accepting = [name for name, state in named if tableau.is_final(state)]
    successors = tableau.successor_lists([state for _, state in named])
    edges.extend(
        (source, names[target])
        for source, targets in zip(names, successors)
        for target in targets
    )
    useful = useful_states(INITIAL, accepting, edges)
    if INITIAL not in useful:
        # The language is empty (what ``AAutomaton.trim`` returns then).
        return _Template(states=(INITIAL,), accepting=frozenset(), letters={}, edges=())
    kept = tuple((s, t) for s, t in edges if s in useful and t in useful)
    return _Template(
        states=tuple(sorted(useful)),
        # Built as ``AAutomaton.trim`` builds it, so that even its
        # iteration order (and so its pickle) is what a cold compile gives.
        accepting=frozenset([s for s in frozenset(accepting) if s in useful]),
        letters={target: letters[target] for _, target in kept},
        edges=kept,
    )


def _template(formula: LTLFormula, masked: Tuple[bool, ...]) -> _Template:
    key = (formula, masked)
    template = _TEMPLATE_CACHE.get(key)
    if template is not None:
        _metrics.counter("automata.template_hits")
        _TEMPLATE_CACHE.move_to_end(key)
        return template
    _metrics.counter("automata.template_misses")
    template = _TEMPLATE_CACHE[key] = _build_template(formula, masked)
    if len(_TEMPLATE_CACHE) > _TEMPLATE_CACHE_MAX:
        _TEMPLATE_CACHE.popitem(last=False)
    return template


class _TemplateQuotient:
    """The private ``minimise()`` shortcut of one compiled automaton."""

    def __init__(self, template: _Template, guards: Dict[str, Guard], automaton: AAutomaton):
        self.template = template
        self.guards = guards
        self.fields = self._fields(automaton)

    @staticmethod
    def _fields(automaton: AAutomaton) -> tuple:
        return (
            automaton.initial,
            list(automaton.states),
            automaton.accepting,
            list(automaton.transitions),
        )

    def describes(self, automaton: AAutomaton) -> bool:
        """Whether *automaton* still has the fields it was compiled with."""
        return self._fields(automaton) == self.fields

    def build(self, automaton: AAutomaton) -> AAutomaton:
        template = self.template
        if template.quotient is None:
            quotient = automaton._minimise()
            owner = {id(guard): state for state, guard in self.guards.items()}
            template.quotient = (
                tuple(quotient.states),
                quotient.accepting,
                tuple((t.source, owner[id(t.guard)], t.target) for t in quotient.transitions),
            )
            return quotient
        states, accepting, transitions = template.quotient
        guards = self.guards
        return AAutomaton(
            states=states,
            initial=INITIAL,
            accepting=accepting,
            transitions=[
                ATransition(source, guards[owner], target)
                for source, owner, target in transitions
            ],
            name=automaton.name,
        )


def _guards(template: _Template, sentences: Sequence[EmbeddedSentence]) -> Dict[str, Guard]:
    """One guard per target state, shared by every transition into it."""
    return {
        state: Guard(
            positives=tuple(sentences[i] for i in true),
            negated=tuple(sentences[i] for i in false),
        )
        for state, (true, false) in template.letters.items()
    }


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
    naming = {sentence: f"q{index}" for index, sentence in enumerate(sentences)}
    template = _template(
        desugar(translate_to_ltl(formula, naming)),
        tuple(sentence.mentions_nary_binding() for sentence in sentences),
    )
    guards = _guards(template, sentences)
    automaton = AAutomaton(
        states=template.states,
        initial=INITIAL,
        accepting=template.accepting,
        transitions=[ATransition(source, guards[target], target) for source, target in template.edges],
        name=name or f"A[{formula}]",
    )
    automaton._quotient = _TemplateQuotient(template, guards, automaton)
    return automaton
