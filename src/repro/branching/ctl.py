"""``CTL_EX(L)``: the minimal branching-time language of Section 5.2.

The language adds a single existential one-step modality ``EX`` (and its
dual ``AX``) on top of embedded relational sentences over the 0-ary access
vocabulary.  Theorem 5.3 shows that satisfiability is undecidable even for
``CTL_EX(FO∃+_0-Acc)``, again by reduction from FD+ID implication; the
formula ``ψ(Γ, σ)`` of that proof is built by :func:`theorem_5_3_gadget`.

Semantics is defined over a labelled transition system: ``(S, t) ⊨ φ``
where ``t`` is a transition of the (explored fragment of the) LTS.  ``EX φ``
holds at ``t`` when some transition leaving ``t``'s target satisfies ``φ``.
Model checking over the bounded LTS fragments produced by
:func:`repro.access.lts.explore` is exact for the explored fragment (and is
what the tests exercise); satisfiability over the full infinite LTS is the
undecidable problem and is deliberately not claimed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.access.lts import LabelledTransitionSystem, Transition
from repro.access.methods import AccessSchema
from repro.core.formulas import EmbeddedSentence
from repro.core.transition import TransitionStructure, transition_structure
from repro.core.vocabulary import AccessVocabulary, isbind0_name, post_name
from repro.core.properties import sentence_from_atoms
from repro.queries.atoms import Atom
from repro.queries.evaluation import holds
from repro.queries.terms import Variable
from repro.queries.ucq import as_ucq
from repro.relational.dependencies import FunctionalDependency, InclusionDependency
from repro.relational.instance import Instance
from repro.relational.schema import Relation, Schema


class CTLFormula:
    """Base class of ``CTL_EX(L)`` formulas."""

    def children(self) -> Tuple["CTLFormula", ...]:
        return ()

    def walk(self):
        yield self
        for child in self.children():
            yield from child.walk()

    def size(self) -> int:
        return sum(1 for _ in self.walk())

    def __and__(self, other: "CTLFormula") -> "CTLFormula":
        return CTLAnd(self, other)

    def __or__(self, other: "CTLFormula") -> "CTLFormula":
        return CTLOr(self, other)

    def __invert__(self) -> "CTLFormula":
        return CTLNot(self)

    def implies(self, other: "CTLFormula") -> "CTLFormula":
        return CTLOr(CTLNot(self), other)


@dataclass(frozen=True)
class CTLAtom(CTLFormula):
    """An embedded relational sentence evaluated on the current transition."""

    sentence: EmbeddedSentence

    def __str__(self) -> str:
        return str(self.sentence)


@dataclass(frozen=True)
class CTLNot(CTLFormula):
    operand: CTLFormula

    def children(self) -> Tuple[CTLFormula, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"¬({self.operand})"


@dataclass(frozen=True)
class CTLAnd(CTLFormula):
    left: CTLFormula
    right: CTLFormula

    def children(self) -> Tuple[CTLFormula, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} ∧ {self.right})"


@dataclass(frozen=True)
class CTLOr(CTLFormula):
    left: CTLFormula
    right: CTLFormula

    def children(self) -> Tuple[CTLFormula, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} ∨ {self.right})"


@dataclass(frozen=True)
class CTLEX(CTLFormula):
    """``EX φ`` — some successor transition satisfies φ."""

    operand: CTLFormula

    def children(self) -> Tuple[CTLFormula, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"EX({self.operand})"


def CTLAX(operand: CTLFormula) -> CTLFormula:
    """``AX φ = ¬EX¬φ`` — every successor transition satisfies φ."""
    return CTLNot(CTLEX(CTLNot(operand)))


def ctl_atom(query, label: Optional[str] = None) -> CTLAtom:
    """Wrap a boolean (U)CQ over the access vocabulary as a ``CTL_EX`` atom."""
    if isinstance(query, EmbeddedSentence):
        return CTLAtom(query)
    return CTLAtom(EmbeddedSentence(as_ucq(query), label=label))


# ----------------------------------------------------------------------
# Semantics over an explored LTS fragment
# ----------------------------------------------------------------------
def _structure_of(
    vocabulary: AccessVocabulary, lts: LabelledTransitionSystem, transition: Transition
) -> TransitionStructure:
    before = Instance.from_frozen(vocabulary.access_schema.schema, transition.source)
    after = Instance.from_frozen(vocabulary.access_schema.schema, transition.target)
    return transition_structure(vocabulary, before, transition.access, after)


def ctl_satisfies(
    vocabulary: AccessVocabulary,
    lts: LabelledTransitionSystem,
    transition: Transition,
    formula: CTLFormula,
    _cache: Optional[Dict] = None,
) -> bool:
    """Whether ``(S, t) ⊨ φ`` over the explored LTS fragment."""
    if _cache is None:
        _cache = {}
    key = (id(transition), formula)
    if key in _cache:
        return _cache[key]
    if isinstance(formula, CTLAtom):
        structure = _structure_of(vocabulary, lts, transition)
        value = holds(formula.sentence.query, structure.structure)
    elif isinstance(formula, CTLNot):
        value = not ctl_satisfies(vocabulary, lts, transition, formula.operand, _cache)
    elif isinstance(formula, CTLAnd):
        value = ctl_satisfies(
            vocabulary, lts, transition, formula.left, _cache
        ) and ctl_satisfies(vocabulary, lts, transition, formula.right, _cache)
    elif isinstance(formula, CTLOr):
        value = ctl_satisfies(
            vocabulary, lts, transition, formula.left, _cache
        ) or ctl_satisfies(vocabulary, lts, transition, formula.right, _cache)
    elif isinstance(formula, CTLEX):
        value = any(
            ctl_satisfies(vocabulary, lts, successor, formula.operand, _cache)
            for successor in lts.successors(transition.target)
        )
    else:
        raise TypeError(f"unknown CTL_EX node {formula!r}")
    _cache[key] = value
    return value


def ctl_satisfiable_in_lts(
    vocabulary: AccessVocabulary,
    lts: LabelledTransitionSystem,
    formula: CTLFormula,
) -> Optional[Transition]:
    """A transition of the explored fragment satisfying φ, or ``None``.

    This is model checking over the finite explored fragment, not a
    decision procedure for the (undecidable, Theorem 5.3) satisfiability
    problem over the full LTS.
    """
    cache: Dict = {}
    for transition in lts.transitions:
        if ctl_satisfies(vocabulary, lts, transition, formula, cache):
            return transition
    return None


# ----------------------------------------------------------------------
# The Theorem 5.3 gadget
# ----------------------------------------------------------------------
CHKFD_PREFIX = "ChkFD_"
CHKID_PREFIX = "CheckIncDep_"


def _gadget_schema(base_schema: Schema, ids: Sequence[InclusionDependency]) -> AccessSchema:
    relations: List[Relation] = list(base_schema)
    for relation in base_schema:
        relations.append(Relation(CHKFD_PREFIX + relation.name, 2 * relation.arity))
        relations.append(Relation(CHKID_PREFIX + relation.name, relation.arity))
    extended = Schema(relations)
    access_schema = AccessSchema(extended)
    for relation in base_schema:
        access_schema.add(f"Fill_{relation.name}", relation.name, ())
        access_schema.add(
            f"ChkFD_{relation.name}_acc",
            CHKFD_PREFIX + relation.name,
            tuple(range(2 * relation.arity)),
        )
        access_schema.add(
            f"ChkID_{relation.name}_acc",
            CHKID_PREFIX + relation.name,
            tuple(range(relation.arity)),
        )
    return access_schema


def _fd_ctl_formula(
    vocabulary: AccessVocabulary, fd: FunctionalDependency, negate: bool
) -> CTLFormula:
    """``ϕ_fd`` (or ``ϕ_¬σ`` when *negate*): the AX/EX ChkFD test of the proof."""
    schema = vocabulary.access_schema.schema
    relation = schema.relation(fd.relation)
    check = CHKFD_PREFIX + fd.relation
    ys = tuple(Variable(f"y{i}") for i in range(relation.arity))
    zs = tuple(
        ys[i] if i in fd.lhs else Variable(f"z{i}") for i in range(relation.arity)
    )
    zs_equal = tuple(
        ys[i] if (i in fd.lhs or i == fd.rhs) else zs[i]
        for i in range(relation.arity)
    )
    exposed = ctl_atom(
        sentence_from_atoms(
            (
                Atom(post_name(check), ys + zs),
                Atom(post_name(fd.relation), ys),
                Atom(post_name(fd.relation), zs),
            ),
            label=f"pair[{fd}]",
        ).query
    )
    agreeing = ctl_atom(
        sentence_from_atoms(
            (
                Atom(post_name(check), ys + zs_equal),
                Atom(post_name(fd.relation), ys),
                Atom(post_name(fd.relation), zs_equal),
            ),
            label=f"pair-agree[{fd}]",
        ).query
    )
    if negate:
        return CTLEX(exposed & CTLNot(agreeing))
    return CTLAX(exposed.implies(agreeing))


def _id_ctl_formula(
    vocabulary: AccessVocabulary, id_dep: InclusionDependency
) -> CTLFormula:
    """``ϕ_id``: every test access revealing a source tuple can be followed by
    an access revealing a matching target tuple (the proof's AX/EX nesting)."""
    schema = vocabulary.access_schema.schema
    source = schema.relation(id_dep.source)
    target = schema.relation(id_dep.target)
    xs = tuple(Variable(f"x{i}") for i in range(source.arity))
    ts = [Variable(f"t{i}") for i in range(target.arity)]
    for src_pos, tgt_pos in zip(id_dep.source_positions, id_dep.target_positions):
        ts[tgt_pos] = xs[src_pos]
    source_checked = ctl_atom(
        sentence_from_atoms(
            (
                Atom(isbind0_name(f"ChkID_{id_dep.source}_acc"), ()),
                Atom(post_name(CHKID_PREFIX + id_dep.source), xs),
                Atom(post_name(id_dep.source), xs),
            ),
            label=f"src-checked[{id_dep}]",
        ).query
    )
    target_matched = ctl_atom(
        sentence_from_atoms(
            (
                Atom(isbind0_name(f"ChkID_{id_dep.target}_acc"), ()),
                Atom(post_name(CHKID_PREFIX + id_dep.source), xs),
                Atom(post_name(CHKID_PREFIX + id_dep.target), tuple(ts)),
            ),
            label=f"tgt-matched[{id_dep}]",
        ).query
    )
    return CTLAX(source_checked.implies(CTLEX(target_matched)))


def theorem_5_3_gadget(
    base_schema: Schema,
    constraints: Sequence[object],
    sigma: FunctionalDependency,
) -> Tuple[AccessSchema, CTLFormula]:
    """The formula ``ψ(Γ, σ)`` of Theorem 5.3 and its extended access schema.

    ``ψ(Γ, σ) = EX(Fill_R1 ∧ EX(... ∧ EX(Fill_Rn ∧ ⋀ϕ_fd ∧ ⋀ϕ_id ∧ ϕ_¬σ)))``:
    fill every base relation with an arbitrary configuration, then check all
    dependencies of Γ and the failure of σ through the boolean check
    relations.  Satisfiable over the full LTS iff Γ does not imply σ
    (Theorem 5.3); the tests exercise it as a model-checking property over
    bounded LTS fragments.
    """
    fds = [c for c in constraints if isinstance(c, FunctionalDependency)]
    ids = [c for c in constraints if isinstance(c, InclusionDependency)]
    access_schema = _gadget_schema(base_schema, ids)
    vocabulary = AccessVocabulary.of(access_schema)

    inner: CTLFormula = _fd_ctl_formula(vocabulary, sigma, negate=True)
    for fd in fds:
        inner = _fd_ctl_formula(vocabulary, fd, negate=False) & inner
    for id_dep in ids:
        inner = _id_ctl_formula(vocabulary, id_dep) & inner

    formula = inner
    for relation in reversed(list(base_schema)):
        fill_used = ctl_atom(
            sentence_from_atoms(
                (Atom(isbind0_name(f"Fill_{relation.name}"), ()),),
                label=f"fill[{relation.name}]",
            ).query
        )
        formula = CTLEX(fill_used & formula)
    return access_schema, formula
