"""Refuting conjunctions of sentences over canonical transition structures.

A conjunction ``P₁ ∧ … ∧ Pₘ ∧ ¬N₁ ∧ … ∧ ¬Nₖ`` of embedded sentences is
*refuted* when no transition of any run from a configuration containing
the initial instance satisfies it.  :class:`TransitionRefuter` decides
that over the canonical transition structures of Lemma 4.10 —
``R_post = R_pre ∪ response``, the response agrees with the ``IsBind``
binding, each step uses one method, the initial facts are in ``pre`` —
and both witness searches consult it before they search:

* the emptiness precheck (:mod:`repro.automata.emptiness`) prunes the
  transitions whose guard ``ψ⁺ ∧ ψ⁻`` it refutes, and
* the bounded checker (:mod:`repro.core.bounded_check`) folds to
  ``false`` each conjunction of literals it refutes when it compiles the
  formula.

The refuter reads sentences only, so neither caller hands it anything of
its own: the precheck passes a guard's ``positives`` and ``negated``, the
checker the atoms of a conjunction.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.transition import (
    bind_sentence,
    plans_hold,
    prepost_names,
    seed_structure_mirror,
)
from repro.core.vocabulary import (
    AccessVocabulary,
    is_isbind,
    is_isbind0,
    is_pre,
    isbind0_name,
    isbind_name,
    method_of_isbind,
)
from repro.queries.homomorphism import FreshValue
from repro.queries.terms import Constant
from repro.relational.instance import Instance

Fact = Tuple[str, Tuple[object, ...]]


def transitions_refute_guard(
    guard, vocabulary: AccessVocabulary, initial: Optional[Instance] = None
) -> Optional[bool]:
    """Whether no transition from a configuration ⊇ *initial* satisfies *guard*.

    *guard* is anything with ``positives`` and ``negated`` sentence
    tuples (an A-automaton guard ``ψ⁺ ∧ ψ⁻``).  ``True`` proves the guard
    unsatisfiable, ``False`` means some canonical transition structure
    survives (the guard may hold), and ``None`` means the check declines
    the guard (a negated sentence with inequalities, or a relation
    outside the vocabulary).  *initial* ``None`` means the empty
    instance.  See :class:`TransitionRefuter` for the structures and why
    the answer is sound.
    """
    if initial is None:
        initial = vocabulary.access_schema.empty_instance()
    return TransitionRefuter(vocabulary, initial).refutes(guard.positives, guard.negated)


class TransitionRefuter:
    """Refutes conjunctions over the canonical structures of one transition.

    A transition ``t = (I, (AcM, b̄), I ∪ resp)`` of any run from *initial*
    has ``I ⊇ initial``, ``R_post = R_pre ∪ resp`` for the accessed
    relation ``R`` (every other ``post`` copy equals its ``pre`` copy),
    every response tuple agrees with ``b̄`` on the method's input
    positions, and only ``AcM``'s binding predicates are non-empty.  So if
    ``t`` satisfies the positive sentences, the homomorphisms of the
    chosen disjuncts factor through one *canonical structure*:

    * pick a disjunct of each positive sentence (renamed apart) and a
      method — the one a binding atom names, else each method;
    * send each ``post`` atom over the method's relation either to
      ``pre`` or to the response, and every other ``post`` atom to
      ``pre``;
    * unify the binding atoms' terms and the response atoms' input
      positions with one binding, and the disjuncts' equalities;
    * freeze each class to its constant or to a fresh value, and add the
      initial facts.

    The structure is *impossible* when unification equates two distinct
    constants, a positive inequality relates a class to itself, a binding
    atom names another method, or a ``pre`` atom lies over a relation
    that has no access method and no initial fact (such a relation never
    grows).  Each possible structure maps homomorphically into ``M(t)``;
    negated sentences without inequalities are UCQs and so are preserved
    under that map.  The conjunction is refuted when every structure is
    impossible or satisfies a negated sentence.  Grounded runs, exact
    methods and access orders only remove transitions, so the answer is
    sound for them too; it is never used to claim a witness.
    """

    def __init__(self, vocabulary: AccessVocabulary, initial: Instance) -> None:
        access_schema = vocabulary.access_schema
        self.methods = list(access_schema)
        self.names = prepost_names(access_schema.schema)
        accessible = {method.relation for method in self.methods}
        # Pre or post copy -> base relation, and whether the base relation
        # can hold a fact at all.
        self.base: Dict[str, str] = {}
        self.populated: Dict[str, bool] = {}
        for name, (pre, post) in self.names.items():
            self.base[pre] = self.base[post] = name
            self.populated[name] = name in accessible or bool(initial.tuples_view(name))
        self.structure = Instance(vocabulary.schema)
        seed_structure_mirror(self.structure, self.names, initial)

    def refutes(self, positives: Sequence, negated: Sequence) -> Optional[bool]:
        """Whether no transition satisfies every *positives* sentence and
        no *negated* one.

        ``True`` refutes the conjunction, ``False`` leaves it open, and
        ``None`` declines it (a *negated* sentence with inequalities, or a
        relation outside the vocabulary).
        """
        if any(sentence.has_inequalities for sentence in negated) or any(
            not (name in self.base or is_isbind(name) or is_isbind0(name))
            for sentence in positives
            for name in sentence.relations()
        ):
            return None
        bound = [bind_sentence(sentence, 0)[2] for sentence in negated]
        choices = [sentence.query.disjuncts for sentence in positives]
        for disjuncts in itertools.product(*choices):
            for facts in self._structures(disjuncts):
                if not self._refuted(bound, facts):
                    return False
        return True

    def _structures(self, disjuncts) -> Iterable[List[Fact]]:
        """The possible canonical structures of one disjunct choice.

        Each is the list of facts it adds to the initial mirror.
        """
        named: Set[str] = set()
        for disjunct in disjuncts:
            for atom in disjunct.atoms:
                if is_isbind(atom.relation) or is_isbind0(atom.relation):
                    named.add(method_of_isbind(atom.relation))
        if len(named) > 1:
            return
        methods = (
            [m for m in self.methods if m.name in named] if named else self.methods
        )
        for method in methods:
            yield from self._method_structures(disjuncts, method)

    def _method_structures(self, disjuncts, method) -> Iterable[List[Fact]]:
        binding = [("bind", position) for position in method.input_positions]
        equal: List[Tuple[object, object]] = []
        distinct: List[Tuple[object, object]] = []
        pre_atoms: List[Tuple[str, Tuple]] = []
        routable: List[Tuple] = []
        isbind = isbind_name(method.name)

        def node(index, term):
            return term if isinstance(term, Constant) else (index, term)

        for index, disjunct in enumerate(disjuncts):
            for comparison, pairs in (
                (disjunct.equalities, equal),
                (disjunct.inequalities, distinct),
            ):
                for item in comparison:
                    pairs.append((node(index, item.left), node(index, item.right)))
            for atom in disjunct.atoms:
                terms = tuple(node(index, term) for term in atom.terms)
                if atom.relation == isbind:
                    if len(terms) != len(binding):
                        return
                    equal.extend(zip(terms, binding))
                elif is_isbind0(atom.relation) or is_isbind(atom.relation):
                    continue  # names *method* (checked by the caller)
                else:
                    relation = self.base[atom.relation]
                    if is_pre(atom.relation) or relation != method.relation:
                        if not self.populated[relation]:
                            return
                        pre_atoms.append((relation, terms))
                    else:
                        routable.append(terms)
        for routes in itertools.product((False, True), repeat=len(routable)):
            pairs = list(equal)
            pre = list(pre_atoms)
            response = []
            for to_response, terms in zip(routes, routable):
                if to_response:
                    response.append(terms)
                    pairs.extend(
                        (terms[position], slot)
                        for position, slot in zip(method.input_positions, binding)
                    )
                else:
                    pre.append((method.relation, terms))
            value = _unify(pairs, distinct)
            if value is None:
                continue
            facts: List[Fact] = []
            for relation, terms in pre:
                tup = tuple(value(term) for term in terms)
                pre_copy, post_copy = self.names[relation]
                facts.append((pre_copy, tup))
                facts.append((post_copy, tup))
            post_copy = self.names[method.relation][1]
            facts.extend(
                (post_copy, tuple(value(term) for term in terms)) for terms in response
            )
            facts.append((isbind, tuple(value(slot) for slot in binding)))
            facts.append((isbind0_name(method.name), ()))
            yield facts

    def _refuted(self, negated: List[Tuple], facts: List[Fact]) -> bool:
        """Whether a *negated* sentence (bound plans) holds on the initial
        mirror plus *facts*."""
        structure = self.structure
        added = [fact for fact in facts if structure.add_unchecked(*fact)]
        try:
            return any(plans_hold(plans, structure) for plans in negated)
        finally:
            for relation, tup in added:
                structure.discard(relation, tup)


def _unify(pairs, distinct) -> Optional[Callable[[object], object]]:
    """The freezing map of the most general unifier of *pairs*.

    Nodes are :class:`~repro.queries.terms.Constant` objects or opaque
    keys.  ``None`` when two distinct constants meet or a *distinct* pair
    ends up in one class.
    """
    parent: Dict[object, object] = {}

    def find(node):
        root = node
        while root in parent:
            root = parent[root]
        while node in parent and parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    for left, right in pairs:
        left, right = find(left), find(right)
        if left == right:
            continue
        if isinstance(left, Constant):
            if isinstance(right, Constant):
                return None
            left, right = right, left
        parent[left] = right
    for left, right in distinct:
        if find(left) == find(right):
            return None
    fresh: Dict[object, object] = {}

    def value(node):
        root = find(node)
        if isinstance(root, Constant):
            return root.value
        frozen = fresh.get(root)
        if frozen is None:
            frozen = fresh[root] = FreshValue(len(fresh))
        return frozen

    return value
