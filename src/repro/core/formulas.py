"""The AccLTL formula AST.

An ``AccLTL(L)`` formula (Definition 2.1) is built from *atomic* formulas —
sentences of the embedded relational language ``L`` over the access
vocabulary — using negation, conjunction, disjunction, ``X`` and ``U``.
The derived operators ``F`` and ``G`` are kept as explicit nodes for
readability and for syntactic fragment checks, and are expanded during
evaluation.

The embedded language implemented here is ``FO∃+`` optionally with
inequalities: an :class:`EmbeddedSentence` wraps a boolean UCQ (possibly
with inequality atoms) over the combined access vocabulary of
:mod:`repro.core.vocabulary`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional, Tuple

from repro.core.vocabulary import (
    is_isbind,
    is_isbind0,
    is_post,
    is_pre,
)
from repro.immutable import cached_hash
from repro.queries.ucq import UnionOfConjunctiveQueries, as_ucq


@cached_hash
@dataclass(frozen=True)
class EmbeddedSentence:
    """A sentence of the embedded relational language.

    Wraps a boolean UCQ (with optional inequalities) over the access
    vocabulary.  The sentence records, for fragment classification, whether
    it mentions n-ary or 0-ary binding predicates and whether it uses
    inequalities.
    """

    query: UnionOfConjunctiveQueries
    label: Optional[str] = None

    #: :meth:`relations` and :meth:`mentions_nary_binding`, stored by
    #: :meth:`_memoise` (see :mod:`repro.immutable`).
    _cached_relations = None
    _cached_nary_binding = None

    def __post_init__(self) -> None:
        normalized = as_ucq(self.query).boolean_version()
        object.__setattr__(self, "query", normalized)
        self._memoise()

    def _memoise(self) -> None:
        """Store the relation set and the n-ary binding flag on the instance.

        Done at construction, in the same order for every sentence, so the
        values stay in the instance's shared-key layout instead of growing
        a dict of its own.  Pickles drop both; an unpickled sentence
        stores them on first use.
        """
        relations = self.query.relations()
        object.__setattr__(self, "_cached_relations", relations)
        object.__setattr__(
            self, "_cached_nary_binding", any(is_isbind(name) for name in relations)
        )

    @property
    def has_inequalities(self) -> bool:
        return self.query.has_inequalities

    def relations(self) -> FrozenSet[str]:
        """Vocabulary relation names used by the sentence."""
        if self._cached_relations is None:
            self._memoise()
        return self._cached_relations

    def mentions_nary_binding(self) -> bool:
        """Whether an n-ary ``IsBind`` predicate occurs."""
        if self._cached_nary_binding is None:
            self._memoise()
        return self._cached_nary_binding

    def mentions_zeroary_binding(self) -> bool:
        """Whether a 0-ary ``IsBind`` predicate occurs."""
        return any(is_isbind0(name) for name in self.relations())

    def mentions_binding(self) -> bool:
        """Whether any binding predicate occurs."""
        return self.mentions_nary_binding() or self.mentions_zeroary_binding()

    def is_pure_pre(self) -> bool:
        """Whether only ``R_pre`` relations occur (a "pure pre" formula)."""
        return all(is_pre(name) for name in self.relations())

    def is_pure_post(self) -> bool:
        """Whether only ``R_post`` relations occur (a "pure post" formula)."""
        return all(is_post(name) for name in self.relations())

    def size(self) -> int:
        return self.query.size()

    def __str__(self) -> str:
        return self.label or f"[{self.query}]"


class AccFormula:
    """Base class of AccLTL formulas."""

    def children(self) -> Tuple["AccFormula", ...]:
        """Immediate temporal subformulas."""
        return ()

    def walk(self) -> Iterator["AccFormula"]:
        """Pre-order traversal of the temporal formula tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def atoms(self) -> List[EmbeddedSentence]:
        """All embedded sentences, in syntactic order (with duplicates removed)."""
        seen: List[EmbeddedSentence] = []
        for node in self.walk():
            if isinstance(node, AccAtom) and node.sentence not in seen:
                seen.append(node.sentence)
        return seen

    def size(self) -> int:
        """Number of temporal nodes plus total size of the embedded sentences."""
        total = 0
        for node in self.walk():
            total += 1
            if isinstance(node, AccAtom):
                total += node.sentence.size()
        return total

    def temporal_operators(self) -> FrozenSet[str]:
        """The set of temporal operator names used."""
        names = set()
        for node in self.walk():
            if isinstance(node, AccNext):
                names.add("X")
            elif isinstance(node, AccUntil):
                names.add("U")
            elif isinstance(node, AccEventually):
                names.add("F")
            elif isinstance(node, AccGlobally):
                names.add("G")
        return frozenset(names)

    def next_depth(self) -> int:
        """Maximal nesting depth of ``X`` operators (path-length bound for LTL_X)."""
        child_depth = max((c.next_depth() for c in self.children()), default=0)
        if isinstance(self, AccNext):
            return child_depth + 1
        return child_depth

    # Convenience combinators ------------------------------------------
    def __and__(self, other: "AccFormula") -> "AccFormula":
        return AccAnd(self, other)

    def __or__(self, other: "AccFormula") -> "AccFormula":
        return AccOr(self, other)

    def __invert__(self) -> "AccFormula":
        return AccNot(self)

    def implies(self, other: "AccFormula") -> "AccFormula":
        """Material implication ``¬self ∨ other``."""
        return AccOr(AccNot(self), other)


@cached_hash
@dataclass(frozen=True)
class AccTrue(AccFormula):
    """The constant true."""

    def __str__(self) -> str:
        return "true"


@cached_hash
@dataclass(frozen=True)
class AccAtom(AccFormula):
    """An atomic formula: an embedded sentence of the relational language."""

    sentence: EmbeddedSentence

    def __str__(self) -> str:
        return str(self.sentence)


@cached_hash
@dataclass(frozen=True)
class AccNot(AccFormula):
    """Negation."""

    operand: AccFormula

    def children(self) -> Tuple[AccFormula, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"¬({self.operand})"


@cached_hash
@dataclass(frozen=True)
class AccAnd(AccFormula):
    """Conjunction."""

    left: AccFormula
    right: AccFormula

    def children(self) -> Tuple[AccFormula, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} ∧ {self.right})"


@cached_hash
@dataclass(frozen=True)
class AccOr(AccFormula):
    """Disjunction."""

    left: AccFormula
    right: AccFormula

    def children(self) -> Tuple[AccFormula, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} ∨ {self.right})"


@cached_hash
@dataclass(frozen=True)
class AccNext(AccFormula):
    """``X φ`` — φ holds at the next transition."""

    operand: AccFormula

    def children(self) -> Tuple[AccFormula, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"X({self.operand})"


@cached_hash
@dataclass(frozen=True)
class AccUntil(AccFormula):
    """``φ U ψ`` — ψ eventually holds and φ holds until then."""

    left: AccFormula
    right: AccFormula

    def children(self) -> Tuple[AccFormula, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} U {self.right})"


@cached_hash
@dataclass(frozen=True)
class AccEventually(AccFormula):
    """``F φ`` ≡ ``true U φ``."""

    operand: AccFormula

    def children(self) -> Tuple[AccFormula, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"F({self.operand})"


@cached_hash
@dataclass(frozen=True)
class AccGlobally(AccFormula):
    """``G φ`` ≡ ``¬F¬φ``."""

    operand: AccFormula

    def children(self) -> Tuple[AccFormula, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"G({self.operand})"


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------
def atom(query, label: Optional[str] = None) -> AccAtom:
    """Wrap a boolean (U)CQ over the access vocabulary as an atomic formula."""
    if isinstance(query, EmbeddedSentence):
        return AccAtom(query)
    return AccAtom(EmbeddedSentence(as_ucq(query), label=label))


def lnot(formula: AccFormula) -> AccFormula:
    """Negation (named ``lnot`` to avoid shadowing the builtin)."""
    return AccNot(formula)


def land(*formulas: AccFormula) -> AccFormula:
    """Conjunction of one or more formulas."""
    if not formulas:
        return AccTrue()
    result = formulas[0]
    for formula in formulas[1:]:
        result = AccAnd(result, formula)
    return result


def lor(*formulas: AccFormula) -> AccFormula:
    """Disjunction of one or more formulas."""
    if not formulas:
        return AccNot(AccTrue())
    result = formulas[0]
    for formula in formulas[1:]:
        result = AccOr(result, formula)
    return result


def lnext(formula: AccFormula) -> AccFormula:
    """``X φ``."""
    return AccNext(formula)


def until(left: AccFormula, right: AccFormula) -> AccFormula:
    """``φ U ψ``."""
    return AccUntil(left, right)


def eventually(formula: AccFormula) -> AccFormula:
    """``F φ``."""
    return AccEventually(formula)


def globally(formula: AccFormula) -> AccFormula:
    """``G φ``."""
    return AccGlobally(formula)
