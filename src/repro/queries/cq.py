"""Conjunctive queries, optionally with equalities and inequalities.

A :class:`ConjunctiveQuery` is a set of relational atoms plus optional
equality/inequality atoms and a tuple of free (answer) variables.  Boolean
queries have no free variables.  The classes are frozen so queries can be
used as dictionary keys (e.g. when memoising containment checks).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

from repro.immutable import cached_hash
from repro.queries.atoms import Atom, Equality, Inequality
from repro.queries.terms import Constant, Term, Variable


class QueryError(ValueError):
    """Raised for malformed queries."""


@cached_hash
@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query ``ans(x̄) :- atoms, equalities, inequalities``.

    Parameters
    ----------
    atoms:
        The relational atoms of the body.
    head:
        Free variables (the answer tuple).  Empty for boolean queries.
    equalities / inequalities:
        Optional comparison atoms.
    name:
        Optional human-readable name (used in printed reports).
    """

    atoms: Tuple[Atom, ...]
    head: Tuple[Variable, ...] = ()
    equalities: Tuple[Equality, ...] = ()
    inequalities: Tuple[Inequality, ...] = ()
    name: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "head", tuple(self.head))
        object.__setattr__(self, "equalities", tuple(self.equalities))
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        body_vars = self.body_variables()
        for v in self.head:
            if v not in body_vars:
                raise QueryError(f"head variable {v} does not occur in the body")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def body_variables(self) -> FrozenSet[Variable]:
        """All variables occurring in the body."""
        variables: set = set()
        for atom in self.atoms:
            variables |= atom.variables()
        for comparison in itertools.chain(self.equalities, self.inequalities):
            variables |= comparison.variables()
        return frozenset(variables)

    def variables(self) -> FrozenSet[Variable]:
        """All variables of the query (body ∪ head)."""
        return self.body_variables() | frozenset(self.head)

    def existential_variables(self) -> FrozenSet[Variable]:
        """Body variables that are not answer variables."""
        return self.body_variables() - frozenset(self.head)

    def constants(self) -> FrozenSet[Constant]:
        """All constants of the query."""
        constants: set = set()
        for atom in self.atoms:
            constants |= atom.constants()
        for comparison in itertools.chain(self.equalities, self.inequalities):
            for term in (comparison.left, comparison.right):
                if isinstance(term, Constant):
                    constants.add(term)
        return frozenset(constants)

    def relations(self) -> FrozenSet[str]:
        """Names of relations mentioned in the body."""
        return frozenset(atom.relation for atom in self.atoms)

    @property
    def is_boolean(self) -> bool:
        """Whether the query has no answer variables."""
        return not self.head

    @property
    def has_inequalities(self) -> bool:
        """Whether the query contains inequality atoms."""
        return bool(self.inequalities)

    def size(self) -> int:
        """Number of atoms of every kind (a simple size measure)."""
        return len(self.atoms) + len(self.equalities) + len(self.inequalities)

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def rename_relations(self, mapping: Mapping[str, str]) -> "ConjunctiveQuery":
        """Replace relation names according to *mapping* (identity if absent).

        This implements the paper's ``Q^pre`` / ``Q^post`` constructions:
        replacing each schema predicate ``S`` by ``S_pre`` or ``S_post``.
        """
        return ConjunctiveQuery(
            atoms=tuple(
                Atom(mapping.get(atom.relation, atom.relation), atom.terms)
                for atom in self.atoms
            ),
            head=self.head,
            equalities=self.equalities,
            inequalities=self.inequalities,
            name=self.name,
        )

    def rename_variables(self, renaming: Mapping[Variable, Term]) -> "ConjunctiveQuery":
        """Apply a variable renaming throughout the query."""
        new_head = []
        for v in self.head:
            target = renaming.get(v, v)
            if not isinstance(target, Variable):
                raise QueryError("cannot rename a head variable to a constant")
            new_head.append(target)
        return ConjunctiveQuery(
            atoms=tuple(atom.rename(renaming) for atom in self.atoms),
            head=tuple(new_head),
            equalities=tuple(eq.rename(renaming) for eq in self.equalities),
            inequalities=tuple(ineq.rename(renaming) for ineq in self.inequalities),
            name=self.name,
        )

    def freshen(self, suffix: str) -> "ConjunctiveQuery":
        """Rename every variable by appending *suffix* (variable-disjointness)."""
        renaming = {v: Variable(v.name + suffix) for v in self.variables()}
        return self.rename_variables(renaming)

    def boolean_version(self) -> "ConjunctiveQuery":
        """The boolean query obtained by existentially closing the head."""
        return ConjunctiveQuery(
            atoms=self.atoms,
            head=(),
            equalities=self.equalities,
            inequalities=self.inequalities,
            name=self.name,
        )

    def conjoin(self, other: "ConjunctiveQuery") -> "ConjunctiveQuery":
        """Conjunction of two CQs (heads concatenated).

        The caller is responsible for variable hygiene; use :meth:`freshen`
        on one side if the variable sets must be disjoint.
        """
        return ConjunctiveQuery(
            atoms=self.atoms + other.atoms,
            head=self.head + tuple(v for v in other.head if v not in self.head),
            equalities=self.equalities + other.equalities,
            inequalities=self.inequalities + other.inequalities,
            name=None,
        )

    def without_inequalities(self) -> "ConjunctiveQuery":
        """The query with its inequality atoms dropped."""
        return ConjunctiveQuery(
            atoms=self.atoms,
            head=self.head,
            equalities=self.equalities,
            inequalities=(),
            name=self.name,
        )

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        head = ", ".join(str(v) for v in self.head)
        body_parts = [str(a) for a in self.atoms]
        body_parts += [str(e) for e in self.equalities]
        body_parts += [str(i) for i in self.inequalities]
        body = ", ".join(body_parts) if body_parts else "true"
        label = self.name or "Q"
        return f"{label}({head}) :- {body}"


def cq(
    atoms: Iterable[Atom],
    head: Sequence[Variable] = (),
    equalities: Iterable[Equality] = (),
    inequalities: Iterable[Inequality] = (),
    name: Optional[str] = None,
) -> ConjunctiveQuery:
    """Convenience constructor for :class:`ConjunctiveQuery`."""
    return ConjunctiveQuery(
        atoms=tuple(atoms),
        head=tuple(head),
        equalities=tuple(equalities),
        inequalities=tuple(inequalities),
        name=name,
    )
