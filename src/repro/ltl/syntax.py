"""Syntax of propositional LTL (finite-word interpretation).

Formulas are immutable trees built from propositions, boolean connectives
and the temporal operators ``X`` (next), ``U`` (until), ``F`` (eventually)
and ``G`` (globally).  ``F`` and ``G`` are kept as first-class nodes (rather
than being desugared immediately) so that fragment checks — in particular
the ``X``-only fragment ``LTL_X`` used by Theorem 4.14 — can be performed
syntactically; the semantics treats them as the usual abbreviations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, Tuple

from repro.immutable import cached_hash


class LTLFormula:
    """Base class of LTL formulas."""

    def propositions(self) -> FrozenSet[str]:
        """The set of proposition names occurring in the formula."""
        names = set()
        for node in self.walk():
            if isinstance(node, Prop):
                names.add(node.name)
        return frozenset(names)

    def walk(self) -> Iterator["LTLFormula"]:
        """Pre-order traversal of the formula tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def children(self) -> Tuple["LTLFormula", ...]:
        """Immediate subformulas."""
        return ()

    def size(self) -> int:
        """Number of nodes of the formula tree."""
        return sum(1 for _ in self.walk())

    def temporal_depth(self) -> int:
        """Maximal nesting depth of temporal operators."""
        child_depth = max((c.temporal_depth() for c in self.children()), default=0)
        if isinstance(self, (Next, Until, Eventually, Globally)):
            return child_depth + 1
        return child_depth

    def uses_only_next(self) -> bool:
        """Whether the only temporal operator used is ``X`` (the LTL_X fragment)."""
        for node in self.walk():
            if isinstance(node, (Until, Eventually, Globally)):
                return False
        return True

    # Convenience constructors -----------------------------------------
    def __and__(self, other: "LTLFormula") -> "LTLFormula":
        return And(self, other)

    def __or__(self, other: "LTLFormula") -> "LTLFormula":
        return Or(self, other)

    def __invert__(self) -> "LTLFormula":
        return Not(self)

    def implies(self, other: "LTLFormula") -> "LTLFormula":
        """Material implication ``¬self ∨ other``."""
        return Or(Not(self), other)


@cached_hash
@dataclass(frozen=True)
class TrueFormula(LTLFormula):
    """The constant true."""

    def __str__(self) -> str:
        return "true"


@cached_hash
@dataclass(frozen=True)
class FalseFormula(LTLFormula):
    """The constant false."""

    def __str__(self) -> str:
        return "false"


@cached_hash
@dataclass(frozen=True)
class Prop(LTLFormula):
    """An atomic proposition."""

    name: str

    def __str__(self) -> str:
        return self.name


@cached_hash
@dataclass(frozen=True)
class Not(LTLFormula):
    """Negation."""

    operand: LTLFormula

    def children(self) -> Tuple[LTLFormula, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"¬({self.operand})"


@cached_hash
@dataclass(frozen=True)
class And(LTLFormula):
    """Conjunction."""

    left: LTLFormula
    right: LTLFormula

    def children(self) -> Tuple[LTLFormula, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} ∧ {self.right})"


@cached_hash
@dataclass(frozen=True)
class Or(LTLFormula):
    """Disjunction."""

    left: LTLFormula
    right: LTLFormula

    def children(self) -> Tuple[LTLFormula, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} ∨ {self.right})"


@cached_hash
@dataclass(frozen=True)
class Next(LTLFormula):
    """``X φ`` — φ holds at the next position (strict: requires a next position)."""

    operand: LTLFormula

    def children(self) -> Tuple[LTLFormula, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"X({self.operand})"


@cached_hash
@dataclass(frozen=True)
class Until(LTLFormula):
    """``φ U ψ`` — ψ eventually holds and φ holds until then."""

    left: LTLFormula
    right: LTLFormula

    def children(self) -> Tuple[LTLFormula, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} U {self.right})"


@cached_hash
@dataclass(frozen=True)
class Eventually(LTLFormula):
    """``F φ`` ≡ ``true U φ``."""

    operand: LTLFormula

    def children(self) -> Tuple[LTLFormula, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"F({self.operand})"


@cached_hash
@dataclass(frozen=True)
class Globally(LTLFormula):
    """``G φ`` ≡ ``¬F¬φ``."""

    operand: LTLFormula

    def children(self) -> Tuple[LTLFormula, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"G({self.operand})"


def prop(name: str) -> Prop:
    """Shorthand constructor for a proposition."""
    return Prop(name)


def top() -> TrueFormula:
    """The constant true."""
    return TrueFormula()


def bottom() -> FalseFormula:
    """The constant false."""
    return FalseFormula()


def conjunction(formulas) -> LTLFormula:
    """Conjunction of an iterable of formulas (true if empty)."""
    result: LTLFormula = TrueFormula()
    first = True
    for formula in formulas:
        if first:
            result = formula
            first = False
        else:
            result = And(result, formula)
    return result


def disjunction(formulas) -> LTLFormula:
    """Disjunction of an iterable of formulas (false if empty)."""
    result: LTLFormula = FalseFormula()
    first = True
    for formula in formulas:
        if first:
            result = formula
            first = False
        else:
            result = Or(result, formula)
    return result
