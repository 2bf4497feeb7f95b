"""Transition structures ``M(t)`` and ``M'(t)``.

Each position of an access path corresponds to a transition
``t = (I, (AcM, b̄), I')`` of the LTS.  The paper associates with ``t`` a
relational structure over the access vocabulary:

* ``M(t)`` (Section 2) interprets each ``R_pre`` as ``I(R)``, each
  ``R_post`` as ``I'(R)``, the predicate ``IsBind_AcM`` as the singleton
  ``{b̄}``, and every other binding predicate as empty;
* ``M'(t)`` (Section 4.2) additionally interprets the 0-ary predicate
  ``IsBind0_AcM`` as true exactly when ``AcM`` was the method used.

We build one combined structure that interprets both the n-ary and the
0-ary binding predicates, so the same structure can be queried by formulas
of either vocabulary.

Both witness searches (the emptiness search and the bounded checker)
evaluate embedded sentences on such structures through one binder,
:func:`bind_sentence`: it compiles a sentence once into the boolean plans
of its disjuncts and records what part of a transition the sentence can
read, and — because only the used method's binding predicates are
non-empty in ``M(t)`` — for which access methods it can hold at all.
:func:`binding_refutes` carries that test down to one access's binding,
and :func:`binding_refuter` applies both to every sentence of a search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.access.methods import Access
from repro.access.path import AccessPath, configurations
from repro.core.vocabulary import (
    AccessVocabulary,
    is_isbind,
    is_isbind0,
    is_post,
    isbind0_name,
    isbind_name,
    method_of_isbind,
    post_name,
    pre_name,
)
from repro.queries.evaluation import naive_satisfying_assignments
from repro.queries.plan_cache import execute_plan, get_plan
from repro.queries.terms import Constant
from repro.queries.ucq import as_ucq
from repro.relational.instance import Instance

#: A sentence bound by :func:`bind_sentence`: ``(number, kind, plans,
#: methods)``.
SentenceRecord = Tuple[int, int, Tuple, Optional[FrozenSet[str]]]


@dataclass(frozen=True)
class TransitionStructure:
    """The relational structure associated with one access-path transition."""

    vocabulary: AccessVocabulary
    access: Access
    structure: Instance

    @property
    def method_name(self) -> str:
        """Name of the access method used in this transition."""
        return self.access.method.name


def transition_structure(
    vocabulary: AccessVocabulary,
    before: Instance,
    access: Access,
    after: Optional[Instance] = None,
    response: Optional[Iterable[Tuple[object, ...]]] = None,
) -> TransitionStructure:
    """Build the combined structure ``M(t)`` / ``M'(t)`` of a transition.

    The successor configuration can be given either materialised
    (*after*) or as the *response* delta of the access, in which case the
    post interpretation is ``before`` plus the response tuples — the
    no-copy fast path used by the emptiness search, which evaluates many
    candidate steps against one configuration without ever materialising
    the successors.

    The pre/post tuples are copied with the unchecked bulk path: they were
    validated when they entered *before*/*after*, and the ``R_pre`` /
    ``R_post`` relations mirror the base relations' signatures, so
    re-validating every tuple here (this function runs once per candidate
    step of every witness search) would only re-prove what is known.
    """
    if (after is None) == (response is None):
        raise ValueError("pass exactly one of `after` or `response`")
    structure = Instance(vocabulary.schema)
    for relation in vocabulary.access_schema.schema:
        name = relation.name
        pre = pre_name(name)
        post = post_name(name)
        if after is not None:
            for tup in before.tuples_view(name):
                structure.add_unchecked(pre, tup)
            for tup in after.tuples_view(name):
                structure.add_unchecked(post, tup)
        else:
            for tup in before.tuples_view(name):
                structure.add_unchecked(pre, tup)
                structure.add_unchecked(post, tup)
            if access.relation == name:
                for tup in response:
                    structure.add_unchecked(post, tup)
    structure.add(isbind_name(access.method.name), access.binding)
    structure.add(isbind0_name(access.method.name), ())
    return TransitionStructure(vocabulary=vocabulary, access=access, structure=structure)


def prepost_names(schema) -> dict:
    """Per base relation, its ``(R_pre, R_post)`` vocabulary names."""
    return {
        relation.name: (pre_name(relation.name), post_name(relation.name))
        for relation in schema
    }


def seed_structure_mirror(structure, names: dict, initial: Instance) -> None:
    """Mirror *initial* into the ``R_pre``/``R_post`` relations of *structure*.

    This is the shared seeding step of the search procedures that
    maintain one combined transition structure incrementally (the
    emptiness DFS and the bounded checker): the mirror starts as
    ``pre = post = initial`` and candidate deltas are layered on top.
    Works on any instance backend exposing ``add_unchecked``.
    """
    for name, (pre, post) in names.items():
        for tup in initial.tuples_view(name):
            structure.add_unchecked(pre, tup)
            structure.add_unchecked(post, tup)


def validated_candidate_facts(vocabulary, names: dict, candidates):
    """Pre-validated structure facts, one entry per ``(access, response)``.

    Each entry is ``(pre, post, isbind, validated_binding, isbind0)`` for
    the candidate's access: the relation names its delta touches and the
    binding tuple validated once against the vocabulary (the searches
    then use the unchecked bulk path per node instead of re-validating
    per expansion).  An access with several responses is validated once
    and its candidates share one entry.
    """
    entries = []
    # ``id(access) -> entry``; *candidates* keeps every access alive.
    by_access: Dict[int, Tuple] = {}
    for access, _response in candidates:
        entry = by_access.get(id(access))
        if entry is None:
            pre, post = names[access.relation]
            isbind = isbind_name(access.method.name)
            binding = vocabulary.schema.relation(isbind).validate_tuple(access.binding)
            entry = by_access[id(access)] = (
                pre, post, isbind, binding, isbind0_name(access.method.name)
            )
        entries.append(entry)
    return entries


def bind_sentence(sentence, number: int) -> SentenceRecord:
    """A sentence as the record ``(number, kind, plans, methods)`` of a search.

    *number* identifies the sentence in its search's verdict caches;
    *plans* pairs the compiled plan of each disjunct's boolean version
    with that query; *kind* is 0 when the sentence reads only ``R_pre``
    relations, 1 when it also reads ``R_post``, 2 when it mentions a
    binding predicate — what part of a transition its verdict can depend
    on.

    *methods* lists the access methods for which some disjunct can hold.
    In ``M(t)`` only the used method's ``IsBind``/``IsBind0`` predicates
    are non-empty, so a disjunct naming one method's binding predicates
    can only hold on that method's transitions, and a disjunct naming two
    methods never holds.  *methods* is ``None`` when some disjunct names
    no binding predicate (the sentence can hold for any method).
    """
    mentions_bind = False
    mentions_post = False
    methods: Optional[Set[str]] = set()
    plans = []
    for disjunct in as_ucq(sentence.query).disjuncts:
        named: Set[str] = set()
        for atom in disjunct.atoms:
            if is_isbind(atom.relation) or is_isbind0(atom.relation):
                named.add(method_of_isbind(atom.relation))
            elif is_post(atom.relation):
                mentions_post = True
        if not named:
            methods = None
        else:
            mentions_bind = True
            if methods is not None and len(named) == 1:
                methods |= named
        boolean = disjunct if disjunct.is_boolean else disjunct.boolean_version()
        plans.append((get_plan(boolean), boolean))
    kind = 2 if mentions_bind else (1 if mentions_post else 0)
    return (
        number,
        kind,
        tuple(plans),
        frozenset(methods) if methods is not None else None,
    )


def binding_refutes(sentence, method_name: str, binding: Tuple) -> bool:
    """Whether *sentence* is false on every transition of one access.

    This refines the ``methods`` of :func:`bind_sentence` to bindings: in
    ``M(t)`` only ``IsBind_AcM(b̄)`` and ``IsBind0_AcM`` hold, so a
    disjunct can hold only if all its binding atoms name *method_name*
    and their constants equal *binding* position by position.  A constant
    differs only when ``!=`` says so in both operand orders (the plan
    executor and the naive oracle use one each); anything else leaves the
    disjunct open, so ``True`` is sound and ``False`` merely undecided.
    """
    for disjunct in as_ucq(sentence.query).disjuncts:
        for atom in disjunct.atoms:
            if not (is_isbind(atom.relation) or is_isbind0(atom.relation)):
                continue
            if method_of_isbind(atom.relation) != method_name or any(
                isinstance(term, Constant) and term.value != value and value != term.value
                for term, value in zip(atom.terms, binding)
            ):
                break
        else:
            return False
    return True


def binding_refuter(
    sentences: Sequence, records: Sequence[SentenceRecord]
) -> Callable[[str, Tuple], FrozenSet[int]]:
    """:func:`binding_refutes` for all *sentences*, bound pairwise by *records*.

    The returned function maps an access's method name and binding to the
    numbers of the kind-2 sentences :func:`binding_refutes` refutes for
    it.  A sentence whose ``methods`` exclude the method is refuted at
    once, one whose ``methods`` are ``None`` never is (a disjunct without
    binding atoms stays open), and :func:`binding_refutes` runs only for
    the rest whose binding atoms carry a constant.
    """
    tests = []  # (number, methods, the sentence if a binding atom has a constant)
    for sentence, (number, kind, _plans, methods) in zip(sentences, records):
        if kind == 2 and methods is not None:
            atoms = [a for d in as_ucq(sentence.query).disjuncts for a in d.atoms]
            constant = any(
                isinstance(t, Constant) for a in atoms if is_isbind(a.relation) for t in a.terms
            )
            tests.append((number, methods, sentence if constant else None))
    return lambda method_name, binding: frozenset(
        number
        for number, methods, sentence in tests
        if method_name not in methods
        or (sentence is not None and binding_refutes(sentence, method_name, binding))
    )


def plans_hold(plans: Tuple, instance: Instance) -> bool:
    """Whether a sentence bound by :func:`bind_sentence` holds in *instance*.

    The same verdict as :func:`repro.queries.evaluation.holds`: the first
    match of any disjunct decides, and plans the slot compiler cannot
    cover run on the naive oracle.
    """
    for plan, query in plans:
        matches = (
            naive_satisfying_assignments(query, instance)
            if plan.fallback
            else execute_plan(plan, query, instance)
        )
        if next(matches, None) is not None:
            return True
    return False


def path_structures(
    vocabulary: AccessVocabulary,
    path: AccessPath,
    initial: Optional[Instance] = None,
) -> List[TransitionStructure]:
    """The sequence of transition structures of an access path.

    The configurations ``I0 ⊆ I1 ⊆ ... ⊆ In`` along the path are computed
    from the initial instance, and the i-th structure pairs ``I_{i-1}``
    (pre) with ``I_i`` (post).
    """
    if initial is None:
        initial = vocabulary.access_schema.empty_instance()
    configs = configurations(path, initial)
    structures: List[TransitionStructure] = []
    for index, step in enumerate(path):
        structures.append(
            transition_structure(
                vocabulary, configs[index], step.access, configs[index + 1]
            )
        )
    return structures
