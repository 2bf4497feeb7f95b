"""Atoms of conjunctive queries: relational atoms, equalities, inequalities."""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Mapping, Tuple

from repro.immutable import cached_hash
from repro.queries.terms import Constant, Term, Variable


@cached_hash
@dataclass(frozen=True)
class Atom:
    """A relational atom ``R(t1, ..., tn)``."""

    relation: str
    terms: Tuple[Term, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> FrozenSet[Variable]:
        """Variables occurring in the atom."""
        return frozenset(t for t in self.terms if isinstance(t, Variable))

    def constants(self) -> FrozenSet[Constant]:
        """Constants occurring in the atom."""
        return frozenset(t for t in self.terms if isinstance(t, Constant))

    def substitute(self, assignment: Mapping[Variable, object]) -> Tuple[object, ...]:
        """Apply a (total) variable assignment, returning a value tuple."""
        values = []
        for term in self.terms:
            if isinstance(term, Constant):
                values.append(term.value)
            else:
                values.append(assignment[term])
        return tuple(values)

    def rename(self, renaming: Mapping[Variable, Term]) -> "Atom":
        """Rename variables according to *renaming* (identity if missing)."""
        return Atom(
            self.relation,
            tuple(
                renaming.get(t, t) if isinstance(t, Variable) else t
                for t in self.terms
            ),
        )

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(str(t) for t in self.terms)})"


@cached_hash
@dataclass(frozen=True)
class Equality:
    """An equality atom ``t1 = t2``."""

    left: Term
    right: Term

    def variables(self) -> FrozenSet[Variable]:
        return frozenset(t for t in (self.left, self.right) if isinstance(t, Variable))

    def satisfied_by(self, assignment: Mapping[Variable, object]) -> bool:
        """Whether the equality holds under *assignment*."""
        return _value(self.left, assignment) == _value(self.right, assignment)

    def rename(self, renaming: Mapping[Variable, Term]) -> "Equality":
        return Equality(_rename_term(self.left, renaming), _rename_term(self.right, renaming))

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@cached_hash
@dataclass(frozen=True)
class Inequality:
    """An inequality atom ``t1 != t2``.

    Inequalities are the extension studied in Section 5.1 of the paper:
    harmless for the 0-ary binding languages (Theorem 5.1) but fatal for
    binding-positive AccLTL (Theorem 5.2).
    """

    left: Term
    right: Term

    def variables(self) -> FrozenSet[Variable]:
        return frozenset(t for t in (self.left, self.right) if isinstance(t, Variable))

    def satisfied_by(self, assignment: Mapping[Variable, object]) -> bool:
        """Whether the inequality holds under *assignment*."""
        return _value(self.left, assignment) != _value(self.right, assignment)

    def rename(self, renaming: Mapping[Variable, Term]) -> "Inequality":
        return Inequality(
            _rename_term(self.left, renaming), _rename_term(self.right, renaming)
        )

    def __str__(self) -> str:
        return f"{self.left} != {self.right}"


def _value(term: Term, assignment: Mapping[Variable, object]) -> object:
    if isinstance(term, Constant):
        return term.value
    return assignment[term]


def _rename_term(term: Term, renaming: Mapping[Variable, Term]) -> Term:
    if isinstance(term, Variable):
        return renaming.get(term, term)
    return term


def atom(relation: str, *terms: Term) -> Atom:
    """Convenience constructor for relational atoms."""
    return Atom(relation, tuple(terms))


def collect_variables(atoms: Iterable[object]) -> FrozenSet[Variable]:
    """Union of the variables of a mixed collection of atoms."""
    variables: set = set()
    for item in atoms:
        variables |= item.variables()
    return frozenset(variables)
