"""A-automata (Definition 4.3).

An A-automaton over ``(Sch, C)`` is ``(S, s0, F, δ)`` where each transition
``(s, ψ⁻ ∧ ψ⁺, s')`` carries a guard consisting of

* ``ψ⁻`` — a positive boolean combination of *negated* ``FO∃+_Acc``
  sentences that must not mention ``IsBind`` predicates, and
* ``ψ⁺`` — an ``FO∃+_Acc`` sentence (which may mention ``IsBind``).

We represent ``ψ⁻`` as a conjunction of negated sentences; a disjunction of
negations ``¬a ∨ ¬b`` can always be written as the single negated sentence
``¬(a ∧ b)`` because positive queries are closed under conjunction, so this
loses no expressiveness.  Guards may use constants (the set ``C``), which
simply appear as constants inside the embedded queries.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.formulas import EmbeddedSentence
from repro.core.transition import TransitionStructure
from repro.immutable import cached_hash
from repro.queries.evaluation import holds


class AutomatonError(ValueError):
    """Raised for malformed A-automata."""


def closure(roots: Iterable[str], adjacency: Dict[str, List[str]]) -> Set[str]:
    """The states reachable from *roots* along *adjacency* (roots included)."""
    seen = set(roots)
    stack = list(seen)
    while stack:
        for state in adjacency.get(stack.pop(), ()):
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return seen


def useful_states(
    initial: str, accepting: Iterable[str], edges: Iterable[Tuple[str, str]]
) -> Set[str]:
    """States on some ``(source, target)`` path from *initial* to acceptance.

    One adjacency pass builds both directions; one closure from *initial*
    forward and one from the accepting states backward intersect.
    """
    forward: Dict[str, List[str]] = defaultdict(list)
    backward: Dict[str, List[str]] = defaultdict(list)
    for source, target in edges:
        forward[source].append(target)
        backward[target].append(source)
    return closure((initial,), forward) & closure(accepting, backward)


@cached_hash
@dataclass(frozen=True)
class Guard:
    """A transition guard ``ψ⁻ ∧ ψ⁺``.

    Attributes
    ----------
    positives:
        Sentences whose conjunction is ``ψ⁺``.  Positive queries are closed
        under conjunction, so storing the conjuncts separately (instead of
        distributing them into one normalised UCQ) loses no generality while
        avoiding an exponential blow-up of the guard representation.
    negated:
        Sentences whose *negations* are conjoined into ``ψ⁻``.  None of
        them may mention an n-ary binding predicate (checked at
        construction, Definition 4.3).  The 0-ary ``IsBind0`` propositions
        are permitted: the paper handles their negations by rewriting into
        a positive disjunction over the other methods (Section 6); keeping
        them directly in ``ψ⁻`` is an equivalent engineering shortcut since
        exactly one of them holds on every transition.
    """

    positives: Tuple[EmbeddedSentence, ...] = ()
    negated: Tuple[EmbeddedSentence, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "positives", tuple(self.positives))
        object.__setattr__(self, "negated", tuple(self.negated))
        for sentence in self.negated:
            if sentence.mentions_nary_binding():
                raise AutomatonError(
                    "negated guard components must not mention IsBind predicates "
                    f"(Definition 4.3); offending sentence: {sentence}"
                )

    def satisfied_by(self, structure: TransitionStructure) -> bool:
        """Whether the guard holds on a transition structure."""
        for sentence in self.positives:
            if not holds(sentence.query, structure.structure):
                return False
        for sentence in self.negated:
            if holds(sentence.query, structure.structure):
                return False
        return True

    def sentences(self) -> Tuple[EmbeddedSentence, ...]:
        """All embedded sentences of the guard (positive conjuncts first)."""
        return self.positives + self.negated

    def mentions_binding(self) -> bool:
        """Whether the positive part mentions a binding predicate."""
        return any(sentence.mentions_binding() for sentence in self.positives)

    def is_trivially_true(self) -> bool:
        """Whether the guard imposes no condition."""
        return not self.positives and not self.negated

    def __str__(self) -> str:
        parts = [str(sentence) for sentence in self.positives]
        parts.extend(f"¬{sentence}" for sentence in self.negated)
        return " ∧ ".join(parts) if parts else "true"


@cached_hash
@dataclass(frozen=True)
class ATransition:
    """A transition ``(source, guard, target)`` of an A-automaton."""

    source: str
    guard: Guard
    target: str

    def __str__(self) -> str:
        return f"{self.source} --[{self.guard}]--> {self.target}"


@dataclass
class AAutomaton:
    """An Access-automaton."""

    states: List[str]
    initial: str
    accepting: FrozenSet[str]
    transitions: List[ATransition]
    name: Optional[str] = None

    def __init__(
        self,
        states: Iterable[str],
        initial: str,
        accepting: Iterable[str],
        transitions: Iterable[ATransition],
        name: Optional[str] = None,
    ) -> None:
        self.states = list(states)
        self.initial = initial
        self.accepting = frozenset(accepting)
        self.transitions = list(transitions)
        self.name = name
        self._validate()

    #: The template quotient of a compiled automaton, set only by
    #: ``compile_accltl_plus`` (see :meth:`minimise`).  Not a field:
    #: equality, ``repr``, pickles and every automaton built from this one
    #: leave it out.
    _quotient = None

    def __getstate__(self) -> Dict[str, object]:
        return {key: value for key, value in self.__dict__.items() if key != "_quotient"}

    def _validate(self) -> None:
        state_set = set(self.states)
        if self.initial not in state_set:
            raise AutomatonError(f"initial state {self.initial!r} not in state set")
        if not self.accepting <= state_set:
            raise AutomatonError("accepting states must be a subset of the state set")
        for transition in self.transitions:
            if transition.source not in state_set or transition.target not in state_set:
                raise AutomatonError(f"transition {transition} uses unknown states")

    # ------------------------------------------------------------------
    def transitions_from(self, state: str) -> List[ATransition]:
        """Transitions leaving *state*."""
        return [t for t in self.transitions if t.source == state]

    def transitions_into(self, state: str) -> List[ATransition]:
        """Transitions entering *state*."""
        return [t for t in self.transitions if t.target == state]

    def successors(self, state: str) -> FrozenSet[str]:
        """States reachable in one step from *state*."""
        return frozenset(t.target for t in self.transitions_from(state))

    def size(self) -> Tuple[int, int]:
        """``(number of states, number of transitions)``."""
        return (len(self.states), len(self.transitions))

    def guard_sentences(self) -> List[EmbeddedSentence]:
        """All distinct embedded sentences used by any guard."""
        seen: List[EmbeddedSentence] = []
        for transition in self.transitions:
            for sentence in transition.guard.sentences():
                if sentence not in seen:
                    seen.append(sentence)
        return seen

    def reachable_states(self) -> FrozenSet[str]:
        """States reachable from the initial state in the transition graph."""
        forward: Dict[str, List[str]] = defaultdict(list)
        for transition in self.transitions:
            forward[transition.source].append(transition.target)
        return frozenset(closure((self.initial,), forward))

    def trim(self) -> "AAutomaton":
        """Remove states that are unreachable or cannot reach acceptance."""
        useful = useful_states(
            self.initial, self.accepting, ((t.source, t.target) for t in self.transitions)
        )
        if self.initial not in useful:
            # The language is empty: keep a minimal automaton with no
            # accepting states so downstream code still has a valid object.
            return AAutomaton(
                states=[self.initial],
                initial=self.initial,
                accepting=(),
                transitions=[],
                name=self.name,
            )
        transitions = [
            t
            for t in self.transitions
            if t.source in useful and t.target in useful
        ]
        return AAutomaton(
            states=sorted(useful),
            initial=self.initial,
            accepting=[s for s in self.accepting if s in useful],
            transitions=transitions,
            name=self.name,
        )

    def minimise(self) -> "AAutomaton":
        """The emptiness quotient: trim, accepting sinks, then bisimulation.

        The result preserves *emptiness*, not the language: some non-empty
        prefix of a path is accepted by the quotient iff one is accepted by
        this automaton, and ``L(quotient) ⊆ L(self)``.  Three steps:

        * **Accepting states become sinks.**  A run must read at least one
          transition, and the shortest accepted prefix of a path visits no
          accepting state between its first and its last step, so the
          out-edges of every accepting state other than the initial one
          can go; trimming then removes what only they reached.
        * **Forward bisimulation** over the non-accepting states, by
          partition refinement.  Labels are canonical guards (the sets of
          positive and of negated sentences), states are merged when they
          reach the same blocks under the same labels, and duplicate
          edges collapse.  One ``Guard`` object is kept per ``(source
          block, label, target block)`` — the first in transition order —
          so caches keyed by guard identity stay valid.
        * **Accepting sinks stay distinct.**  Each accepting state is its
          own block and is never merged.  Merging them into one sink
          would couple the branches of a union automaton: their exits
          would meet in one Lemma 4.9 chain, whose candidate pool is the
          union of all branches' pools, and a capped search over that
          pool loses witnesses each branch finds on its own.

        The initial state keeps its name; every other block is named by
        its first member in state order.  Applying ``minimise`` twice
        yields an automaton of the same size.

        **Compiled automata.**  The quotient of an automaton that
        ``compile_accltl_plus`` built depends only on its formula's
        template (see :mod:`repro.automata.compile`).  Such an automaton
        privately carries its template's quotient: the first call computes
        it here and records it in template terms, later calls instantiate
        it with the automaton's own ``Guard`` objects.  The result is the
        one computed here, field for field and guard object for guard
        object.  The shortcut applies only while the public fields are
        those the compiler set; every other automaton, including those
        built from a compiled one (``trim``, ``relabel``,
        ``union_automaton``, products), is minimised here.
        """
        quotient = self._quotient
        if quotient is not None and quotient.describes(self):
            return quotient.build(self)
        return self._minimise()

    def _minimise(self) -> "AAutomaton":
        """The general :meth:`minimise` construction."""
        trimmed = self.trim()
        if not trimmed.accepting:
            return trimmed
        sinks = AAutomaton(
            states=trimmed.states,
            initial=trimmed.initial,
            accepting=trimmed.accepting,
            transitions=[
                t
                for t in trimmed.transitions
                if t.source == trimmed.initial or t.source not in trimmed.accepting
            ],
            name=trimmed.name,
        ).trim()
        states = sinks.states
        labels: Dict[int, Tuple[FrozenSet[EmbeddedSentence], ...]] = {}
        edges: Dict[str, List[Tuple[Tuple, str]]] = {state: [] for state in states}
        for transition in sinks.transitions:
            guard = transition.guard
            label = labels.get(id(guard))
            if label is None:
                label = labels[id(guard)] = (
                    frozenset(guard.positives),
                    frozenset(guard.negated),
                )
            edges[transition.source].append((label, transition.target))
        # Partition refinement: a state's signature is its block and the
        # set of (label, target block) pairs it can move along.
        block = {
            state: (index if state in sinks.accepting else -1)
            for index, state in enumerate(states)
        }
        count = len(set(block.values()))
        while True:
            numbering: Dict[Tuple, int] = {}
            refined = {}
            for state in states:
                signature = (
                    block[state],
                    frozenset((label, block[target]) for label, target in edges[state]),
                )
                refined[state] = numbering.setdefault(signature, len(numbering))
            block = refined
            if len(numbering) == count:
                break
            count = len(numbering)
        representative: Dict[int, str] = {block[sinks.initial]: sinks.initial}
        for state in states:
            representative.setdefault(block[state], state)
        name_of = {state: representative[block[state]] for state in states}
        seen: Set[Tuple] = set()
        transitions: List[ATransition] = []
        for transition in sinks.transitions:
            source, target = name_of[transition.source], name_of[transition.target]
            key = (source, labels[id(transition.guard)], target)
            if key not in seen:
                seen.add(key)
                transitions.append(ATransition(source, transition.guard, target))
        return AAutomaton(
            states=[state for state in states if name_of[state] == state],
            initial=sinks.initial,
            accepting=sinks.accepting,
            transitions=transitions,
            name=sinks.name,
        )

    def __str__(self) -> str:
        lines = [
            f"AAutomaton({self.name or 'A'}): {len(self.states)} states, "
            f"{len(self.transitions)} transitions"
        ]
        lines.append(f"  initial: {self.initial}; accepting: {sorted(self.accepting)}")
        for transition in self.transitions:
            lines.append(f"  {transition}")
        return "\n".join(lines)
