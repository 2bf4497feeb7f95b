"""Semantics of AccLTL formulas over access paths.

Implements Definition 2.1: ``(p, i) ⊨ φ`` for an access path ``p`` (a
sequence of transitions) and a position ``1 ≤ i ≤ n`` (we use 0-based
positions internally).  Atomic formulas are evaluated on the transition
structure ``M(t_i)`` using ordinary first-order (here: UCQ) evaluation;
temporal operators follow the usual finite-path LTL rules.

Two evaluators implement it:

* :func:`satisfies_at` evaluates a formula at a position of a whole,
  materialised path.  It is the reference semantics behind
  :func:`path_satisfies` and the oracle the second evaluator is tested
  against.
* :class:`Progression` evaluates a formula *along* a path that grows one
  transition at a time, as the bounded checker builds its candidates.
  The formula is compiled once into hash-consed integer nodes;
  :meth:`Progression.last` gives its truth when the current transition is
  the path's last, and :meth:`Progression.progress` the obligation the
  rest of the path must meet (``Xφ → φ``, ``φUψ → ψ' ∨ (φ' ∧ φUψ)``,
  ``Fφ → φ' ∨ Fφ``, ``Gφ → φ' ∧ Gφ``, where ``'`` marks a progressed
  subformula).  Both read atoms of the current transition only, so an
  extension of a path is checked without re-walking its prefix.
  :meth:`Progression.fold` is :meth:`~Progression.last` with only some
  atoms known: it returns the residual the unknown atoms must satisfy,
  so a checker can rule out a whole group of candidates at once.

  Given a refuter (:data:`Refutes`), the compilation folds to ``false``
  each conjunction whose literals no transition can satisfy together
  (see :class:`Progression`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.access.path import AccessPath
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
from repro.core.transition import TransitionStructure, path_structures
from repro.core.vocabulary import AccessVocabulary
from repro.queries.evaluation import holds
from repro.relational.instance import Instance


def satisfies_at(
    structures: Sequence[TransitionStructure],
    position: int,
    formula: AccFormula,
) -> bool:
    """Whether ``(p, position) ⊨ formula`` given the path's transition structures."""
    if position < 0 or position >= len(structures):
        return False
    if isinstance(formula, AccTrue):
        return True
    if isinstance(formula, AccAtom):
        return holds(formula.sentence.query, structures[position].structure)
    if isinstance(formula, AccNot):
        return not satisfies_at(structures, position, formula.operand)
    if isinstance(formula, AccAnd):
        return satisfies_at(structures, position, formula.left) and satisfies_at(
            structures, position, formula.right
        )
    if isinstance(formula, AccOr):
        return satisfies_at(structures, position, formula.left) or satisfies_at(
            structures, position, formula.right
        )
    if isinstance(formula, AccNext):
        return position + 1 < len(structures) and satisfies_at(
            structures, position + 1, formula.operand
        )
    if isinstance(formula, AccUntil):
        for j in range(position, len(structures)):
            if satisfies_at(structures, j, formula.right):
                if all(
                    satisfies_at(structures, k, formula.left)
                    for k in range(position, j)
                ):
                    return True
        return False
    if isinstance(formula, AccEventually):
        return any(
            satisfies_at(structures, j, formula.operand)
            for j in range(position, len(structures))
        )
    if isinstance(formula, AccGlobally):
        return all(
            satisfies_at(structures, j, formula.operand)
            for j in range(position, len(structures))
        )
    raise TypeError(f"unknown AccLTL node {formula!r}")


def path_satisfies(
    vocabulary: AccessVocabulary,
    path: AccessPath,
    formula: AccFormula,
    initial: Optional[Instance] = None,
) -> bool:
    """Whether ``(p, 1) ⊨ formula`` for the given access path.

    The empty path satisfies no formula (there is no first position), which
    matches the convention used for satisfiability: witnesses are non-empty
    paths.
    """
    if len(path) == 0:
        return False
    structures = path_structures(vocabulary, path, initial)
    return satisfies_at(structures, 0, formula)


# Node operators of a compiled formula.  Node 0 is false, node 1 true.
_CONST, _ATOM, _NOT, _AND, _OR, _NEXT, _UNTIL, _EVENTUALLY, _GLOBALLY = range(9)

#: The constant nodes of every :class:`Progression`.
FALSE, TRUE = 0, 1

#: Atom verdicts of the current transition: atom index -> truth.
AtomHolds = Callable[[int], bool]

#: ``(positives, negated) -> True`` when no transition satisfies every
#: *positives* sentence and no *negated* one; ``False`` or ``None`` when
#: the conjunction may hold (see :class:`repro.core.refuter.TransitionRefuter`).
Refutes = Callable[
    [Tuple[EmbeddedSentence, ...], Tuple[EmbeddedSentence, ...]], Optional[bool]
]


class Progression:
    """An AccLTL formula compiled for evaluation along a growing path.

    Nodes are integers into a hash-consed table, so equal obligations are
    equal integers and a progressed formula shares its subformulas with
    its parent.  The constructors fold constants (``φ ∧ false = false``,
    ``X false = false``, ``false U ψ = ψ`` …), which keeps progressed
    obligations about the size of the formula.  Atoms are the formula's
    distinct embedded sentences, numbered in :attr:`atoms` order; the
    evaluators ask the caller for their verdicts on the current
    transition through an :data:`AtomHolds` callback, only for atoms an
    evaluation actually reaches.

    Every table belongs to the instance: one compilation per checker call,
    nothing kept at module level.

    With *refutes*, each maximal conjunction (a tree of ``∧`` whose parent
    is not ``∧``, a lone literal included) is compiled to :data:`FALSE`
    when *refutes* refutes its literal conjuncts — atoms and negated
    atoms — together; ``refuted`` counts those conjunctions.  An atom is
    evaluated on one transition, so a conjunction no transition
    satisfies is false at every position of every path, and the folded
    formula holds on exactly the paths the formula holds on.  Dropping
    the conjuncts that are not literals only weakens the conjunction, so
    the fold stays sound.  The atoms of a folded conjunction are not
    numbered unless they occur elsewhere.
    """

    def __init__(self, formula: AccFormula, refutes: Optional[Refutes] = None) -> None:
        self.atoms: List[EmbeddedSentence] = []
        self._atom_numbers: Dict[EmbeddedSentence, int] = {}
        self._nodes: List[Tuple[int, int, int]] = [(_CONST, 0, 0), (_CONST, 1, 0)]
        self._table: Dict[Tuple[int, int, int], int] = {}
        self._refutes = refutes
        self.refuted = 0
        self.root = self._compile(formula)

    # ------------------------------------------------------------------
    # Hash-consed constructors with constant folding
    # ------------------------------------------------------------------
    def _node(self, op: int, a: int, b: int = 0) -> int:
        key = (op, a, b)
        node = self._table.get(key)
        if node is None:
            node = self._table[key] = len(self._nodes)
            self._nodes.append(key)
        return node

    def _not(self, a: int) -> int:
        if a <= TRUE:
            return TRUE - a
        op, operand, _ = self._nodes[a]
        if op == _NOT:
            return operand
        return self._node(_NOT, a)

    def _and(self, a: int, b: int) -> int:
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE or a == b:
            return b
        if b == TRUE:
            return a
        return self._node(_AND, a, b)

    def _or(self, a: int, b: int) -> int:
        if a == TRUE or b == TRUE:
            return TRUE
        if a == FALSE or a == b:
            return b
        if b == FALSE:
            return a
        return self._node(_OR, a, b)

    def _next(self, a: int) -> int:
        # ``X true`` is not constant: it fails at the last position.
        return FALSE if a == FALSE else self._node(_NEXT, a)

    def _until(self, a: int, b: int) -> int:
        if b <= TRUE:
            return b
        if a == FALSE:
            return b
        if a == TRUE:
            return self._eventually(b)
        return self._node(_UNTIL, a, b)

    def _eventually(self, a: int) -> int:
        return a if a <= TRUE else self._node(_EVENTUALLY, a)

    def _globally(self, a: int) -> int:
        return a if a <= TRUE else self._node(_GLOBALLY, a)

    def _refuted(self, formula: AccFormula) -> bool:
        """Whether *refutes* refutes the literal conjuncts of *formula*."""
        positives: List[EmbeddedSentence] = []
        negated: List[EmbeddedSentence] = []
        stack = [formula]
        while stack:
            node = stack.pop()
            if isinstance(node, AccAnd):
                stack += (node.right, node.left)
            elif isinstance(node, AccAtom):
                positives.append(node.sentence)
            elif isinstance(node, AccNot) and isinstance(node.operand, AccAtom):
                negated.append(node.operand.sentence)
        if not (positives or negated):
            return False
        return self._refutes(tuple(positives), tuple(negated)) is True

    def _compile(self, formula: AccFormula, conjunct: bool = False) -> int:
        """*formula* as a node; *conjunct* marks an operand of ``∧`` or a
        negated atom, which the fold leaves to its enclosing conjunction."""
        if not conjunct and self._refutes is not None and self._refuted(formula):
            self.refuted += 1
            return FALSE
        if isinstance(formula, AccTrue):
            return TRUE
        if isinstance(formula, AccAtom):
            sentence = formula.sentence
            number = self._atom_numbers.get(sentence)
            if number is None:
                number = self._atom_numbers[sentence] = len(self.atoms)
                self.atoms.append(sentence)
            return self._node(_ATOM, number)
        if isinstance(formula, AccNot):
            # A negated atom is a literal: its atom is no conjunction.
            operand = formula.operand
            return self._not(self._compile(operand, isinstance(operand, AccAtom)))
        if isinstance(formula, AccAnd):
            return self._and(
                self._compile(formula.left, True), self._compile(formula.right, True)
            )
        if isinstance(formula, AccOr):
            return self._or(self._compile(formula.left), self._compile(formula.right))
        if isinstance(formula, AccNext):
            return self._next(self._compile(formula.operand))
        if isinstance(formula, AccUntil):
            return self._until(
                self._compile(formula.left), self._compile(formula.right)
            )
        if isinstance(formula, AccEventually):
            return self._eventually(self._compile(formula.operand))
        if isinstance(formula, AccGlobally):
            return self._globally(self._compile(formula.operand))
        raise TypeError(f"unknown AccLTL node {formula!r}")

    # ------------------------------------------------------------------
    # Evaluation at the current transition
    # ------------------------------------------------------------------
    def last(self, node: int, atom_holds: AtomHolds) -> bool:
        """Whether *node* holds when the current transition is the last one.

        ``X`` fails (there is no next position), ``U`` needs its right
        side now, ``F`` and ``G`` reduce to their operand: :meth:`fold`
        with every atom known.
        """
        return self.fold(node, atom_holds) == TRUE

    def fold(self, node: int, known: Callable[[int], Optional[bool]]) -> int:
        """*node* under :meth:`last`, with the verdicts *known* gives folded in.

        *known* returns an atom's verdict, or ``None`` to leave it open.
        The result is a boolean combination of the open atoms with the same
        :meth:`last` value as *node*: :data:`FALSE` means *node* fails
        whatever the open atoms turn out to be.  Atoms are asked left to
        right, and a conjunction or disjunction stops at an operand that
        decides it.
        """
        nodes = self._nodes

        def value(n: int) -> int:
            op, a, b = nodes[n]
            if op == _ATOM:
                verdict = known(a)
                return n if verdict is None else int(verdict)
            if op == _AND:
                left = value(a)
                return FALSE if left == FALSE else self._and(left, value(b))
            if op == _OR:
                left = value(a)
                return TRUE if left == TRUE else self._or(left, value(b))
            if op == _NOT:
                return self._not(value(a))
            if op == _CONST:
                return n
            if op == _NEXT:
                return FALSE
            if op == _UNTIL:
                return value(b)
            return value(a)  # F and G

        return value(node)

    def progress(self, node: int, atom_holds: AtomHolds) -> int:
        """The obligation *node* leaves for the path after the current transition.

        For every continuation of at least one more transition, *node*
        holds at the current position iff the returned node holds at the
        next one.
        """
        nodes = self._nodes
        done: Dict[int, int] = {}

        def step(n: int) -> int:
            result = done.get(n)
            if result is not None:
                return result
            op, a, b = nodes[n]
            if op == _CONST:
                result = n
            elif op == _ATOM:
                result = TRUE if atom_holds(a) else FALSE
            elif op == _AND:
                left = step(a)
                result = FALSE if left == FALSE else self._and(left, step(b))
            elif op == _OR:
                left = step(a)
                result = TRUE if left == TRUE else self._or(left, step(b))
            elif op == _NOT:
                result = self._not(step(a))
            elif op == _NEXT:
                result = a
            elif op == _UNTIL:
                right = step(b)
                result = (
                    TRUE if right == TRUE else self._or(right, self._and(step(a), n))
                )
            elif op == _EVENTUALLY:
                now = step(a)
                result = TRUE if now == TRUE else self._or(now, n)
            else:  # _GLOBALLY
                now = step(a)
                result = FALSE if now == FALSE else self._and(now, n)
            done[n] = result
            return result

        return step(node)
