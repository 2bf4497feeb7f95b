"""Satisfiability of propositional LTL over finite words.

We use the classical tableau (Fischer–Ladner / Hintikka-set) construction,
adapted to finite words:

* the formula is desugared so that the only temporal operators are ``X``
  and ``U``;
* a *state* is a truth assignment to the elementary subformulas
  (propositions, ``X``-subformulas, ``U``-subformulas) that is locally
  consistent with the ``U`` fixpoint expansion;
* transitions propagate ``X`` obligations and unfulfilled ``U``
  obligations;
* a state may end the word iff it has no pending ``X`` obligation and every
  ``U`` formula it asserts is already fulfilled.

The formula is satisfiable over finite words iff the state graph has a path
from an initial state (one satisfying the formula locally) to a final
state.  The witness word is recovered from the propositional part of the
states along the path.

The search is exponential in the number of elementary subformulas, which is
the expected PSPACE-style behaviour the paper's Theorem 4.12 relies on; the
caller can restrict the allowed alphabet (the set of admissible letters),
which both matches the structure of the reduction from
``AccLTL(FO∃+_0-Acc)`` (exactly one "transition proposition" per position)
and keeps the search small.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

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

Letter = FrozenSet[str]


def desugar(formula: LTLFormula) -> LTLFormula:
    """Rewrite ``F`` and ``G`` in terms of ``U`` and ``¬``."""
    if isinstance(formula, (TrueFormula, FalseFormula, Prop)):
        return formula
    if isinstance(formula, Not):
        return Not(desugar(formula.operand))
    if isinstance(formula, And):
        return And(desugar(formula.left), desugar(formula.right))
    if isinstance(formula, Or):
        return Or(desugar(formula.left), desugar(formula.right))
    if isinstance(formula, Next):
        return Next(desugar(formula.operand))
    if isinstance(formula, Until):
        return Until(desugar(formula.left), desugar(formula.right))
    if isinstance(formula, Eventually):
        return Until(TrueFormula(), desugar(formula.operand))
    if isinstance(formula, Globally):
        return Not(Until(TrueFormula(), Not(desugar(formula.operand))))
    raise TypeError(f"unknown LTL node {formula!r}")


def _subformulas(formula: LTLFormula) -> List[LTLFormula]:
    seen: List[LTLFormula] = []
    for node in formula.walk():
        if node not in seen:
            seen.append(node)
    return seen


def _elementary(subformulas: Iterable[LTLFormula]) -> List[LTLFormula]:
    """Propositions, X-formulas and U-formulas: the state-defining subformulas."""
    elementary = []
    for node in subformulas:
        if isinstance(node, (Prop, Next, Until)) and node not in elementary:
            elementary.append(node)
    return elementary


def _local_eval(formula: LTLFormula, assignment: Dict[LTLFormula, bool]) -> bool:
    """Evaluate a subformula under a truth assignment to elementary formulas."""
    if isinstance(formula, TrueFormula):
        return True
    if isinstance(formula, FalseFormula):
        return False
    if isinstance(formula, (Prop, Next, Until)):
        return assignment[formula]
    if isinstance(formula, Not):
        return not _local_eval(formula.operand, assignment)
    if isinstance(formula, And):
        return _local_eval(formula.left, assignment) and _local_eval(
            formula.right, assignment
        )
    if isinstance(formula, Or):
        return _local_eval(formula.left, assignment) or _local_eval(
            formula.right, assignment
        )
    raise TypeError(f"unexpected node in desugared formula: {formula!r}")


class _Tableau:
    """The finite-word tableau of a desugared formula."""

    def __init__(self, formula: LTLFormula, letters: Optional[Sequence[Letter]]):
        self.formula = formula
        self.subformulas = _subformulas(formula)
        self.elementary = _elementary(self.subformulas)
        self.untils = [f for f in self.elementary if isinstance(f, Until)]
        self.nexts = [f for f in self.elementary if isinstance(f, Next)]
        self.props = [f for f in self.elementary if isinstance(f, Prop)]
        self.prop_names = frozenset(p.name for p in self.props)
        if letters is None:
            self.letters: Optional[List[Letter]] = None
        else:
            self.letters = [frozenset(letter) for letter in letters]
        self._profiles: Dict[FrozenSet[LTLFormula], Tuple[Tuple[bool, ...], ...]] = {}

    # ------------------------------------------------------------------
    def states(self) -> Iterable[Tuple[FrozenSet[LTLFormula], Letter]]:
        """Enumerate locally-consistent states together with their letters.

        A state is the set of elementary formulas assigned true.  When an
        allowed alphabet was supplied, the propositional part of a state
        must match (the restriction of) one of the allowed letters; the
        matching full letter is returned alongside.
        """
        if self.letters is not None:
            prop_choices: List[Tuple[Dict[LTLFormula, bool], Letter]] = []
            seen_restrictions: Set[FrozenSet[str]] = set()
            for letter in self.letters:
                restriction = frozenset(letter & self.prop_names)
                if restriction in seen_restrictions:
                    continue
                seen_restrictions.add(restriction)
                assignment = {p: (p.name in restriction) for p in self.props}
                prop_choices.append((assignment, letter))
        else:
            prop_choices = []
            for subset in itertools.product([False, True], repeat=len(self.props)):
                assignment = dict(zip(self.props, subset))
                letter = frozenset(
                    p.name for p, value in assignment.items() if value
                )
                prop_choices.append((assignment, letter))

        temporal = self.nexts + self.untils
        for prop_assignment, letter in prop_choices:
            for values in itertools.product([False, True], repeat=len(temporal)):
                assignment = dict(prop_assignment)
                assignment.update(dict(zip(temporal, values)))
                if self._locally_consistent(assignment):
                    state = frozenset(f for f, v in assignment.items() if v)
                    yield state, letter

    def _locally_consistent(self, assignment: Dict[LTLFormula, bool]) -> bool:
        for until in self.untils:
            right = _local_eval(until.right, assignment)
            left = _local_eval(until.left, assignment)
            if assignment[until]:
                if not (right or left):
                    return False
            else:
                if right:
                    return False
        return True

    # ------------------------------------------------------------------
    def _assignment_of(self, state: FrozenSet[LTLFormula]) -> Dict[LTLFormula, bool]:
        return {f: (f in state) for f in self.elementary}

    def is_initial(self, state: FrozenSet[LTLFormula]) -> bool:
        """Whether the state satisfies the top-level formula locally."""
        return _local_eval(self.formula, self._assignment_of(state))

    def is_final(self, state: FrozenSet[LTLFormula]) -> bool:
        """Whether the word may end at this state."""
        assignment = self._assignment_of(state)
        for next_formula in self.nexts:
            if assignment[next_formula]:
                return False
        for until in self.untils:
            if assignment[until] and not _local_eval(until.right, assignment):
                return False
        return True

    def _profile(self, state: FrozenSet[LTLFormula]) -> Tuple[Tuple[bool, ...], ...]:
        """What :meth:`transition_allowed` reads of *state*, computed once.

        ``(X values, X operand values, U values, U pending, U blocked)``:
        per ``X``-subformula whether the state asserts it and whether its
        operand holds locally; per ``U``-subformula whether the state
        asserts it, whether it is asserted but not yet fulfilled (the
        successor must carry it) and whether it is denied while its left
        side holds (the successor must not assert it).
        """
        profile = self._profiles.get(state)
        if profile is None:
            assignment = self._assignment_of(state)
            untils = self.untils
            profile = self._profiles[state] = (
                tuple(assignment[f] for f in self.nexts),
                tuple(_local_eval(f.operand, assignment) for f in self.nexts),
                tuple(assignment[u] for u in untils),
                tuple(
                    assignment[u] and not _local_eval(u.right, assignment)
                    for u in untils
                ),
                tuple(
                    not assignment[u] and _local_eval(u.left, assignment)
                    for u in untils
                ),
            )
        return profile

    def transition_allowed(
        self, source: FrozenSet[LTLFormula], target: FrozenSet[LTLFormula]
    ) -> bool:
        """Whether the tableau allows a step from *source* to *target*."""
        return self._step_allowed(self._profile(source), self._profile(target))

    @staticmethod
    def _step_allowed(
        source_profile: Tuple[Tuple[bool, ...], ...],
        target_profile: Tuple[Tuple[bool, ...], ...],
    ) -> bool:
        if source_profile[0] != target_profile[1]:
            return False
        for pending, blocked, value in zip(
            source_profile[3], source_profile[4], target_profile[2]
        ):
            if value:
                if blocked:
                    return False
            elif pending:
                return False
        return True

    def successor_lists(
        self, states: Sequence[FrozenSet[LTLFormula]]
    ) -> List[List[int]]:
        """Per state, the positions of the *states* it may step to, ascending.

        The same relation as :meth:`transition_allowed` over every pair,
        without visiting every pair: a step reads of its target only the
        ``X``-operand and ``U`` values, and of its source only the ``X``,
        ``U``-pending and ``U``-blocked values, so targets are grouped by
        the former and each distinct source profile is checked against one
        member of each group.
        """
        profiles = [self._profile(state) for state in states]
        groups: Dict[Tuple, List[int]] = {}
        for position, profile in enumerate(profiles):
            groups.setdefault((profile[1], profile[2]), []).append(position)
        by_source: Dict[Tuple, List[int]] = {}
        lists: List[List[int]] = []
        for profile in profiles:
            key = (profile[0], profile[3], profile[4])
            successors = by_source.get(key)
            if successors is None:
                successors = by_source[key] = sorted(
                    position
                    for members in groups.values()
                    if self._step_allowed(profile, profiles[members[0]])
                    for position in members
                )
            lists.append(successors)
        return lists


def find_satisfying_word(
    formula: LTLFormula,
    letters: Optional[Sequence[Iterable[str]]] = None,
    max_length: Optional[int] = None,
) -> Optional[List[Letter]]:
    """A finite word satisfying *formula*, or ``None`` if unsatisfiable.

    Parameters
    ----------
    letters:
        Optional allowed alphabet: each produced letter of the witness word
        is one of these (useful when letters encode structured objects, as
        in the reductions of Theorems 4.12/4.14).
    max_length:
        Optional cap on the length of the witness searched for.  When
        omitted, the search covers the whole (finite) tableau graph, so the
        answer is exact.
    """
    desugared = desugar(formula)
    normalized_letters = (
        [frozenset(letter) for letter in letters] if letters is not None else None
    )
    tableau = _Tableau(desugared, normalized_letters)
    states = list(tableau.states())
    if not states:
        return None

    # BFS from initial states to a final state over the tableau graph.
    from collections import deque

    queue = deque()
    visited: Set[FrozenSet[LTLFormula]] = set()
    parent: Dict[FrozenSet[LTLFormula], Tuple[Optional[FrozenSet[LTLFormula]], Letter]] = {}

    for state, letter in states:
        if tableau.is_initial(state) and state not in visited:
            visited.add(state)
            parent[state] = (None, letter)
            queue.append((state, 1))

    goal: Optional[FrozenSet[LTLFormula]] = None
    for state in list(visited):
        if tableau.is_final(state):
            goal = state
            break

    while queue and goal is None:
        current, depth = queue.popleft()
        if max_length is not None and depth >= max_length:
            continue
        for state, letter in states:
            if state in visited:
                continue
            if tableau.transition_allowed(current, state):
                visited.add(state)
                parent[state] = (current, letter)
                if tableau.is_final(state):
                    goal = state
                    break
                queue.append((state, depth + 1))
        if goal is not None:
            break

    if goal is None:
        return None
    word: List[Letter] = []
    node: Optional[FrozenSet[LTLFormula]] = goal
    while node is not None:
        previous, letter = parent[node]
        word.append(letter)
        node = previous
    word.reverse()
    return word


def is_satisfiable(
    formula: LTLFormula,
    letters: Optional[Sequence[Iterable[str]]] = None,
    max_length: Optional[int] = None,
) -> bool:
    """Whether *formula* is satisfiable over (non-empty) finite words."""
    return find_satisfying_word(formula, letters=letters, max_length=max_length) is not None
