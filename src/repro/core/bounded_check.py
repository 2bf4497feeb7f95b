"""Reference bounded-path satisfiability for AccLTL formulas.

This is the workhorse model checker the paper's decision procedures are
cross-validated against.  It searches explicitly for a witness access path
within user-supplied (or formula-derived) bounds:

* a maximal path length,
* a pool of candidate facts that responses may reveal (by default, the
  canonical databases of the formula's embedded sentences, mapped back to
  the base schema — exactly the facts the Boundedness Lemma 4.13 shows are
  sufficient for the 0-ary languages, and the homomorphic images used by
  the small-witness arguments elsewhere),
* a pool of candidate binding values (the formula's constants, the values
  of the fact pool and the initial instance, plus a few fresh values),
* a maximal response size, and
* optional sanity restrictions (groundedness, exactness, idempotence).

A positive verdict comes with a concrete witness path and is always sound.
A negative verdict means "no witness within the bounds"; whether that is a
proof of unsatisfiability depends on the fragment (for the 0-ary and X-only
languages the Lemma 4.13 bounds make it one — see
:mod:`repro.core.sat_zeroary` and :mod:`repro.core.sat_xonly`).

Before it searches, the checker compiles the formula into its
:class:`~repro.core.semantics.Progression` and folds to ``false`` each
maximal conjunction whose literals the transition refuter
(:class:`repro.core.refuter.TransitionRefuter`, run on the checker's
initial instance) refutes; negated literals that mention an n-ary
binding or have inequalities are dropped first, which only weakens the
conjunction.  A formula that folds to ``false`` is reported
``exhausted=True`` at 0 paths before any candidate is built.  That holds
independent of the bounds: the refuter over-approximates every
transition of every run from the initial instance, so no path of any
length satisfies the formula.

The search checks each candidate extension of a path by formula
progression (:class:`repro.core.semantics.Progression`): a path carries
the obligation its continuations must meet, so a candidate is checked
against its own transition only, never by re-walking the path.  Most
candidates are settled without a structure of their own.  At setup,
:func:`repro.core.transition.binding_refuter` marks the binding sentences
that no disjunct lets hold for a candidate's method and binding.  Once
per search node and group of candidates with the same refuted sentences,
:meth:`~repro.core.semantics.Progression.fold` folds those refutations
and the node's pre-only verdicts into the obligation; a group left with
``false`` holds no witness there, and at the depth limit its candidates
are counted in one step.  The other candidates are evaluated, with atom
verdicts kept per configuration across nodes and deepening rounds.

The work follows the nodes the search pops, not the children it could
build.  A path is a tuple of indices into the candidate table
(:func:`candidate_table`, shared with the emptiness search); path steps
are built only for a witness and the sanity-condition replay.  A stack
entry names a parent node and a candidate, and the child's obligation
and snapshots are built when the entry is popped and passes the budget
and path-cap checks.  None of this changes a result field:
``tests/test_bounded_oracle.py`` checks every field of the search against
one that evaluates each candidate path whole, and that the latter finds
no witness wherever the fold claims exhaustion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.access.methods import Access, AccessSchema
from repro.access.path import AccessPath, PathStep, satisfies_sanity_conditions
from repro.core.budget import Budget
from repro.core.formulas import AccFormula
from repro.core.refuter import TransitionRefuter
from repro.core.semantics import FALSE, Progression, Refutes
from repro.core.transition import (
    bind_sentence,
    binding_refuter,
    plans_hold,
    prepost_names,
    seed_structure_mirror,
    validated_candidate_facts,
)
from repro.core.vocabulary import (
    AccessVocabulary,
    base_relation_of,
    is_isbind,
    is_isbind0,
    method_of_isbind,
)
from repro.queries.terms import Variable
from repro.relational.instance import Instance
from repro.relational.schema import SchemaError
from repro.store.snapshot import Snapshot, SnapshotInstance

Fact = Tuple[str, Tuple[object, ...]]

#: A node of the checker's search: ``(configuration, known values (grounded
#: searches only), formula obligation, structure mirror, atom verdicts)``.
_Node = Tuple[Snapshot, Optional[FrozenSet[object]], int, Snapshot, Dict[object, bool]]
#: A stack entry ``(parent node, candidate index, index path)``; the root
#: is ``(None, -1, ())``.  Its node is built when it is popped.
_StackEntry = Tuple[Optional[_Node], int, Tuple[int, ...]]


@dataclass(frozen=True)
class Bounds:
    """Search bounds for the reference model checker."""

    max_path_length: int
    max_response_size: int = 1
    max_paths: int = 20000
    fresh_values: int = 1


@dataclass(frozen=True)
class BoundedCheckResult:
    """Result of a bounded satisfiability search.

    ``interrupted`` marks a search cut short by an expired
    :class:`~repro.core.budget.Budget` — sound in both directions: an
    interrupted result never carries a wrong witness and never claims
    exhaustion (``exhausted`` is ``False``).
    """

    satisfiable: bool
    witness: Optional[AccessPath]
    paths_explored: int
    exhausted: bool
    interrupted: bool = False

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.satisfiable


def formula_constants(formula: AccFormula) -> FrozenSet[object]:
    """All constant values mentioned in the formula's embedded sentences."""
    values: Set[object] = set()
    for sentence in formula.atoms():
        for constant in sentence.query.constants():
            values.add(constant.value)
    return frozenset(values)


def fact_pool_from_sentences(
    vocabulary: AccessVocabulary, sentences: Iterable
) -> List[Fact]:
    """Candidate facts derived from a collection of embedded sentences.

    Every disjunct of every sentence is frozen (variables become fresh
    values, distinct per disjunct) and its pre/post atoms are mapped back to
    base-schema facts.  Binding predicates contribute their constant values
    to the value pool but no facts.

    The pool is then *binding-enriched*: for every fact and every access
    method on its relation, variants are added in which the method's input
    positions take constants mentioned by the sentences.  This accounts for
    witnesses in which the revealed tuple must agree with a concrete
    binding (e.g. the long-term-relevance formula of Example 2.3, whose
    revealing access carries constant binding values).
    """
    sentence_list = list(sentences)
    facts: List[Fact] = []
    seen: Set[Fact] = set()
    base_schema = vocabulary.access_schema.schema
    constants: Set[object] = set()
    for sentence in sentence_list:
        for constant in sentence.query.constants():
            constants.add(constant.value)
    for sentence_index, sentence in enumerate(sentence_list):
        for disjunct_index, disjunct in enumerate(sentence.query.disjuncts):
            assignment: Dict[Variable, object] = {
                v: f"~s{sentence_index}d{disjunct_index}_{v.name}"
                for v in disjunct.variables()
            }
            for atom in disjunct.atoms:
                name = atom.relation
                if is_isbind(name) or is_isbind0(name):
                    continue
                base = base_relation_of(name)
                if base not in base_schema:
                    continue
                fact = (base, atom.substitute(assignment))
                if fact not in seen:
                    seen.add(fact)
                    facts.append(fact)

    if constants:
        sorted_constants = sorted(constants, key=repr)
        base_facts = list(facts)

        def add_variant(relation_name: str, values: List[object]) -> None:
            # ``validate_tuple`` returns ``tuple(values)`` unchanged, so a
            # variant equal to a pooled fact needs no validation.  Only
            # pooled variants enter ``seen``: a rejected ``1`` must not
            # hide an equal but well-typed ``True`` on a bool column.
            variant = (relation_name, tuple(values))
            if variant in seen:
                return
            try:
                base_schema.relation(relation_name).validate_tuple(variant[1])
            except SchemaError:
                return  # ill-typed for the relation: not a possible fact
            seen.add(variant)
            facts.append(variant)

        # Variants matching a concrete binding mentioned by the formula: for
        # every all-constant IsBind atom, substitute its binding values at
        # the method's input positions of every pool fact of that relation.
        # This covers witnesses whose revealing access carries the formula's
        # constants (e.g. the boolean probe access of an LTR check).
        for sentence in sentence_list:
            for disjunct in sentence.query.disjuncts:
                for atom in disjunct.atoms:
                    if not is_isbind(atom.relation):
                        continue
                    if any(isinstance(term, Variable) for term in atom.terms):
                        continue
                    method_name = method_of_isbind(atom.relation)
                    if method_name not in vocabulary.access_schema:
                        continue
                    method = vocabulary.access_schema.method(method_name)
                    binding = tuple(term.value for term in atom.terms)
                    for relation_name, tup in base_facts:
                        if relation_name != method.relation:
                            continue
                        values = list(tup)
                        for position, value in zip(method.input_positions, binding):
                            values[position] = value
                        add_variant(relation_name, values)
        # Variants with constants at the input positions of some method on
        # the fact's relation (the accesses that could return the fact).
        for relation_name, tup in base_facts:
            for method in vocabulary.access_schema.methods_for(relation_name):
                if not method.input_positions or method.num_inputs > 3:
                    continue
                for combo in itertools.product(
                    sorted_constants, repeat=method.num_inputs
                ):
                    values = list(tup)
                    for position, value in zip(method.input_positions, combo):
                        values[position] = value
                    add_variant(relation_name, values)
        # Variants with a constant at a single arbitrary position, covering
        # witnesses where a join variable of one sentence must take the value
        # of a constant appearing in another sentence (e.g. the binding
        # constant of an LTR formula flowing into a non-input position).
        for relation_name, tup in base_facts:
            for position in range(len(tup)):
                for constant in sorted_constants:
                    values = list(tup)
                    values[position] = constant
                    add_variant(relation_name, values)
    return facts


def formula_fact_pool(
    vocabulary: AccessVocabulary, formula: AccFormula
) -> List[Fact]:
    """Candidate facts derived from the formula (Lemma 4.13 style)."""
    return fact_pool_from_sentences(vocabulary, formula.atoms())


def default_value_pool(
    vocabulary: AccessVocabulary,
    formula: AccFormula,
    fact_pool: Sequence[Fact],
    initial: Instance,
    fresh_values: int,
) -> List[object]:
    """Binding/value candidates: constants, fact-pool values, initial values, fresh."""
    values: Set[object] = set(formula_constants(formula))
    for _, tup in fact_pool:
        values.update(tup)
    values |= set(initial.active_domain())
    pool = sorted(values, key=repr)
    pool.extend(f"~fresh{i}" for i in range(fresh_values))
    return pool


def _facts_by_relation(fact_pool: Sequence[Fact]) -> Dict[str, List[Tuple[object, ...]]]:
    grouped: Dict[str, List[Tuple[object, ...]]] = {}
    for relation, tup in fact_pool:
        grouped.setdefault(relation, []).append(tup)
    return grouped


def candidate_accesses_for_search(
    schema: AccessSchema,
    fact_pool: Sequence[Fact],
    value_pool: Sequence[object],
    nary_bindings: bool,
    max_product_inputs: int = 1,
) -> List[Access]:
    """Candidate accesses for the witness searches.

    For every method the candidate bindings are:

    * the projections of the pool facts of the method's relation onto the
      method's input positions (the accesses that can actually return a
      pool fact);
    * when the formula/automaton refers to binding *values* (n-ary
      ``IsBind`` predicates) and the method has at most *max_product_inputs*
      inputs, every combination of pool values (so dataflow-style joins
      between bindings and instance values are covered);
    * for n-ary references with wider methods, every combination of the
      non-placeholder (constant) values;
    * one binding made of fresh values, standing for "an access whose
      binding is irrelevant" (e.g. a pure access-order step).

    For formulas that only use the 0-ary binding predicates the binding
    values cannot influence satisfaction, so the first and last family
    alone preserve completeness of the search.
    """
    from repro.relational.types import is_placeholder

    facts_by_relation = _facts_by_relation(fact_pool)
    constants = [v for v in value_pool if not is_placeholder(v)]
    accesses: List[Access] = []
    seen: Set[Tuple[str, Tuple[object, ...]]] = set()

    def add(method, binding: Tuple[object, ...]) -> None:
        key = (method.name, binding)
        if key not in seen:
            seen.add(key)
            accesses.append(Access(method, binding))

    for method in schema:
        if method.num_inputs == 0:
            add(method, ())
            continue
        for tup in facts_by_relation.get(method.relation, []):
            add(method, tuple(tup[i] for i in method.input_positions))
        if nary_bindings:
            if method.num_inputs <= max_product_inputs:
                for combo in itertools.product(value_pool, repeat=method.num_inputs):
                    add(method, combo)
            elif constants and method.num_inputs <= 3:
                for combo in itertools.product(constants, repeat=method.num_inputs):
                    add(method, combo)
        add(
            method,
            tuple(f"~unbound{i}_{method.name}" for i in range(method.num_inputs)),
        )
    return accesses


class ResponseIndex:
    """The pool facts each candidate access can return, found by binding.

    For each method shape ``(relation, input positions)`` it keeps a table
    from binding to the facts whose projection onto those positions is
    that binding, in pool order.  A table is built on the first access of
    its shape, so one index per candidate table (:func:`candidate_table`,
    which both witness searches use) replaces a scan of the relation's
    facts per access by one pass over the pool per shape.
    :meth:`matching` still confirms every fact the table returns with
    :meth:`Access.matches`, so it returns exactly what that scan did,
    order included (the table merges bindings that compare equal, such
    as ``1``, ``1.0`` and ``True``, as the scan does).
    """

    __slots__ = ("_pool", "_tables")

    def __init__(self, fact_pool: Sequence[Fact]) -> None:
        self._pool = fact_pool
        self._tables: Dict[Tuple[str, Tuple[int, ...]], Dict[Tuple, List]] = {}

    def matching(self, access: Access) -> List[Tuple[object, ...]]:
        """The pool facts of the access's relation that it matches."""
        method = access.method
        shape = (method.relation, method.input_positions)
        table = self._tables.get(shape)
        if table is None:
            table = self._tables[shape] = {}
            relation, positions = shape
            for fact_relation, tup in self._pool:
                if fact_relation == relation:
                    table.setdefault(
                        tuple(tup[i] for i in positions), []
                    ).append(tup)
        return [tup for tup in table.get(access.binding, ()) if access.matches(tup)]


def _candidate_responses(
    access: Access,
    index: ResponseIndex,
    max_response_size: int,
) -> Iterator[FrozenSet[Tuple[object, ...]]]:
    matching = index.matching(access)
    yield frozenset()
    for size in range(1, min(len(matching), max_response_size) + 1):
        for subset in itertools.combinations(matching, size):
            yield frozenset(subset)


def candidate_table(
    vocabulary: AccessVocabulary,
    fact_pool: Sequence[Fact],
    value_pool: Sequence[object],
    max_response_size: int,
    nary: bool,
    one_empty_per_method: bool = False,
) -> Tuple[List[Tuple[Access, FrozenSet[Tuple[object, ...]]]], List[Tuple]]:
    """The candidate ``(access, response)`` steps of both witness searches.

    Returns the candidates, revealing responses first, and their
    structure facts (:func:`validated_candidate_facts`); the responses
    come from one :class:`ResponseIndex`.  *one_empty_per_method* keeps
    only the first empty response of each method.  Accesses are distinct
    by ``(method, binding)``, so different indices are never equal steps.
    """
    index = ResponseIndex(fact_pool)
    candidates: List[Tuple[Access, FrozenSet[Tuple[object, ...]]]] = []
    empty_response_methods: Set[str] = set()
    for access in candidate_accesses_for_search(
        vocabulary.access_schema, fact_pool, value_pool, nary_bindings=nary
    ):
        for response in _candidate_responses(access, index, max_response_size):
            if not response and one_empty_per_method:
                if access.method.name in empty_response_methods:
                    continue
                empty_response_methods.add(access.method.name)
            candidates.append((access, response))
    candidates.sort(key=lambda pair: len(pair[1]), reverse=True)
    names = prepost_names(vocabulary.access_schema.schema)
    return candidates, validated_candidate_facts(vocabulary, names, candidates)


def bounded_satisfiability(
    vocabulary: AccessVocabulary,
    formula: AccFormula,
    bounds: Bounds,
    initial: Optional[Instance] = None,
    fact_pool: Optional[Sequence[Fact]] = None,
    value_pool: Optional[Sequence[object]] = None,
    grounded_only: bool = False,
    enforce_schema_sanity: bool = True,
    budget: Optional[Budget] = None,
) -> BoundedCheckResult:
    """Search for a witness access path of the formula within *bounds*.

    See the module docstring for the meaning of the pools and the soundness
    guarantees of each verdict.  A *budget* caps the search in wall-clock
    time and/or explored nodes; on expiry the result is tagged
    ``interrupted=True`` (never a wrong witness, never a claimed
    exhaustion) and is not memoised by the engine.

    This public signature runs :func:`bounded_satisfiability_legacy`, the
    direct search (looked up at call time, so instrumentation that
    patches the module attribute sees every call).  Batch workloads that
    interleave bounded checks with access-layer decisions behind one memo
    submit :func:`repro.engine.bounded_check_task` to a
    :class:`~repro.engine.DecisionEngine`.
    """
    return bounded_satisfiability_legacy(
        vocabulary,
        formula,
        bounds,
        initial=initial,
        fact_pool=fact_pool,
        value_pool=value_pool,
        grounded_only=grounded_only,
        enforce_schema_sanity=enforce_schema_sanity,
        budget=budget,
    )


def bounded_satisfiability_legacy(
    vocabulary: AccessVocabulary,
    formula: AccFormula,
    bounds: Bounds,
    initial: Optional[Instance] = None,
    fact_pool: Optional[Sequence[Fact]] = None,
    value_pool: Optional[Sequence[object]] = None,
    grounded_only: bool = False,
    enforce_schema_sanity: bool = True,
    budget: Optional[Budget] = None,
) -> BoundedCheckResult:
    """The direct bounded search behind :func:`bounded_satisfiability`."""
    from repro.obs import metrics as _metrics
    from repro.obs import trace as _trace

    _metrics.counter("bounded_check.runs")
    tally = [0, 0, 0, 0]
    with _trace.trace_span(
        "bounded_check.run", max_paths=bounds.max_paths, budgeted=budget is not None
    ):
        result = _bounded_satisfiability_impl(
            tally,
            vocabulary,
            formula,
            bounds,
            initial=initial,
            fact_pool=fact_pool,
            value_pool=value_pool,
            grounded_only=grounded_only,
            enforce_schema_sanity=enforce_schema_sanity,
            budget=budget,
        )
        _trace.annotate(
            satisfiable=result.satisfiable,
            explored=result.paths_explored,
            interrupted=result.interrupted,
            folded=tally[0],
            evaluated=tally[1],
            nodes=tally[2],
            refuted=tally[3],
        )
    if result.interrupted:
        _metrics.counter("budget.bounded_check_interrupted")
    return result


def _bounded_satisfiability_impl(
    tally: List[int],
    vocabulary: AccessVocabulary,
    formula: AccFormula,
    bounds: Bounds,
    initial: Optional[Instance] = None,
    fact_pool: Optional[Sequence[Fact]] = None,
    value_pool: Optional[Sequence[object]] = None,
    grounded_only: bool = False,
    enforce_schema_sanity: bool = True,
    budget: Optional[Budget] = None,
) -> BoundedCheckResult:
    """The fold, then the search; *tally* receives its folded and
    evaluated checks, nodes and refuted conjunctions."""
    if initial is None:
        initial = vocabulary.access_schema.empty_instance()
    progression = Progression(formula, _literal_refuter(vocabulary, initial))
    tally[3] = progression.refuted
    if progression.root == FALSE:
        return BoundedCheckResult(
            satisfiable=False, witness=None, paths_explored=0, exhausted=True
        )
    return _search(
        tally,
        progression,
        vocabulary,
        formula,
        bounds,
        initial,
        fact_pool=fact_pool,
        value_pool=value_pool,
        grounded_only=grounded_only,
        enforce_schema_sanity=enforce_schema_sanity,
        budget=budget,
    )


def _literal_refuter(vocabulary: AccessVocabulary, initial: Instance) -> Refutes:
    """The checker's conjunction refuter over transitions from *initial*.

    It drops the negated literals that mention an n-ary binding or have
    inequalities (the transition refuter declines the latter): dropping
    a conjunct only weakens the conjunction, so a refutation of the rest
    stays sound.  The refuter is built on its first question.
    """
    refuter: Optional[TransitionRefuter] = None

    def refutes(positives, negated) -> Optional[bool]:
        nonlocal refuter
        if refuter is None:
            refuter = TransitionRefuter(vocabulary, initial)
        kept = tuple(
            sentence
            for sentence in negated
            if not (sentence.has_inequalities or sentence.mentions_nary_binding())
        )
        return refuter.refutes(positives, kept)

    return refutes


def _search(
    tally: List[int],
    progression: Progression,
    vocabulary: AccessVocabulary,
    formula: AccFormula,
    bounds: Bounds,
    initial: Instance,
    fact_pool: Optional[Sequence[Fact]] = None,
    value_pool: Optional[Sequence[object]] = None,
    grounded_only: bool = False,
    enforce_schema_sanity: bool = True,
    budget: Optional[Budget] = None,
) -> BoundedCheckResult:
    """The search for a witness of *progression*, compiled from *formula*."""
    from repro.core.budget import INTERRUPT_STRIDE

    clock = (budget if budget is not None else Budget()).start()
    check_budget = budget is not None and not budget.unbounded
    schema = vocabulary.access_schema
    if fact_pool is None:
        fact_pool = formula_fact_pool(vocabulary, formula)
    if value_pool is None:
        value_pool = default_value_pool(
            vocabulary, formula, fact_pool, initial, bounds.fresh_values
        )
    # Candidate (access, response) steps, computed once; revealing steps are
    # explored before empty-response steps.  For 0-ary formulas the binding
    # values of an information-free access are irrelevant (and groundedness
    # is not being tracked): one empty-response candidate per method is kept.
    from repro.core.fragments import uses_nary_binding

    nary = uses_nary_binding(formula)
    candidates, candidate_meta = candidate_table(
        vocabulary,
        fact_pool,
        value_pool,
        bounds.max_response_size,
        nary,
        one_empty_per_method=not nary and not grounded_only,
    )

    explored = 0
    initial_known = frozenset(initial.active_domain()) if grounded_only else None

    def _interrupted() -> BoundedCheckResult:
        # Budget expiry: sound partial verdict — no witness, no claimed
        # exhaustion, tagged so callers (and the engine memo) can tell it
        # apart from a genuine bounds-exhausting negative.
        return BoundedCheckResult(
            satisfiable=False,
            witness=None,
            paths_explored=explored,
            exhausted=False,
            interrupted=True,
        )

    # The schema-prescribed sanity conditions are vacuous unless some method
    # is declared exact/idempotent or groundedness is being enforced; in the
    # common case skip the per-candidate path replay entirely.
    need_sanity = enforce_schema_sanity and bool(
        schema.exact_methods() or schema.idempotent_methods() or grounded_only
    )

    # The formula is evaluated by progression (:class:`Progression`):
    # every node carries the obligation its continuations must meet, a
    # candidate is a witness iff the obligation holds with the candidate
    # as the last transition, and a child's obligation is the progressed
    # one.  Each candidate thus reads atoms of its own transition only,
    # never the path prefix.  Atoms are bound once to the compiled plans
    # of their disjuncts (:func:`bind_sentence`).  Their verdicts are kept
    # per configuration snapshot, across nodes and iterative-deepening
    # rounds, under a key naming what they read:
    #
    # * kind 0 (``R_pre`` only) — the atom alone, decided on the node's
    #   structure mirror;
    # * kind 1 (``R_post`` too) — the accessed relation and the response
    #   (an empty response reads the mirror too);
    # * kind 2 (binding predicates) — the candidate, unless the sentence
    #   is *refuted* for it: :func:`binding_refuter` found at setup that
    #   no disjunct fits the candidate's method and binding.
    #
    # Candidates with equal refuted sets form a group.  Once per node and
    # group, :meth:`Progression.fold` folds the kind-0 verdicts and the
    # refuted sentences into the obligation.  A group whose residual is
    # false holds no witness at the node and skips ``last``; at the depth
    # limit a run of its candidates is counted in one step.
    last, progress, fold = progression.last, progression.progress, progression.fold
    records = [
        bind_sentence(sentence, number)
        for number, sentence in enumerate(progression.atoms)
    ]
    refuted_for = binding_refuter(progression.atoms, records)
    # ``(start, stop, refuted)`` per maximal run of candidates in one
    # group, and each candidate's refuted set.
    runs: List[Tuple[int, int, FrozenSet[int]]] = []
    refuted_at: List[FrozenSet[int]] = []
    refuted_of: Dict[int, FrozenSet[int]] = {}  # id(access) -> refuted set
    for index, (access, _response) in enumerate(candidates):
        refuted = refuted_of.get(id(access))
        if refuted is None:
            refuted = refuted_of[id(access)] = refuted_for(
                access.method.name, access.binding
            )
        refuted_at.append(refuted)
        if runs and runs[-1][2] == refuted:
            runs[-1] = (runs[-1][0], index + 1, refuted)
        else:
            runs.append((index, index + 1, refuted))
    # Atom verdicts per configuration snapshot, keyed as described above.
    verdicts_of: Dict[Snapshot, Dict[object, bool]] = {}
    # ``atom_holds`` reads the node being expanded (``base_snap``, its
    # verdicts and lazily built structure) and the candidate being checked
    # (``index``, ``access``, ``response``, ``refuted`` and its lazily
    # built structure) from the search loop below.
    verdicts: Dict[object, bool] = {}
    node_structure: Optional[SnapshotInstance] = None
    struct_store: Optional[SnapshotInstance] = None

    def atom_holds(number: int) -> bool:
        nonlocal node_structure, struct_store
        _, kind, plans, _ = records[number]
        if kind == 0:
            key: object = number
        elif kind == 1:
            key = (number, access.relation, response) if response else (number,)
        elif number in refuted:
            return False
        else:
            key = (number, index)
        verdict = verdicts.get(key)
        if verdict is None:
            if kind == 2 or (kind == 1 and response):
                if struct_store is None:
                    # Branch the candidate's structure off the node's base
                    # snapshot and lay the delta on top.
                    _pre, post_rel, isbind_rel, binding_tup, isbind0_rel = (
                        candidate_meta[index]
                    )
                    struct_store = SnapshotInstance.from_snapshot(base_snap)
                    for tup in response:
                        struct_store.add_unchecked(post_rel, tup)
                    struct_store.add_unchecked(isbind_rel, binding_tup)
                    struct_store.add_unchecked(isbind0_rel, ())
                structure = struct_store
            else:
                if node_structure is None:
                    node_structure = SnapshotInstance.from_snapshot(base_snap)
                structure = node_structure
            verdict = verdicts[key] = plans_hold(plans, structure)
        return verdict

    def folded_verdict(number: int) -> Optional[bool]:
        # The verdicts ``fold`` may use: kind 0 and the refuted sentences.
        if records[number][1] == 0:
            return atom_holds(number)
        return False if number in refuted else None

    # Search state lives in the persistent fact store: nodes hold O(1)
    # snapshots of the configuration and of its ``R_pre``/``R_post``
    # mirror (``base``) instead of O(n) ``Instance.copy()`` clones.  A
    # candidate's transition structure is branched off the node's base
    # snapshot only when an atom reads its delta and has no stored verdict.
    base_schema = schema.schema
    # Every expansion draws from the fixed candidate table, so each pooled
    # response fact is validated once, by identity (the pool's ``1`` and
    # ``True`` are checked separately).
    pooled = {
        (access.relation, id(tup)): tup for access, response in candidates for tup in response
    }
    for (relation, _), tup in pooled.items():
        base_schema.relation(relation).validate_tuple(tup)

    def access_path(path: Tuple[int, ...]) -> AccessPath:
        return AccessPath(tuple(PathStep(*candidates[i]) for i in path))

    def extended(path: Tuple[int, ...], index: int) -> Optional[Tuple[int, ...]]:
        # The path extended by a candidate, or ``None`` when it is skipped.
        # Equal indices are equal steps and different ones never are.
        if path and not candidates[index][1] and path[-1] == index:
            return None  # Repeating an identical information-free step cannot help.
        new_path = path + (index,)
        if need_sanity and not satisfies_sanity_conditions(
            access_path(new_path), schema, initial=initial, require_grounded=grounded_only
        ):
            return None
        return new_path

    def _capped() -> BoundedCheckResult:
        return BoundedCheckResult(
            satisfiable=False, witness=None, paths_explored=explored, exhausted=False
        )

    def count(checks: int) -> Optional[BoundedCheckResult]:
        # Count *checks* candidate checks, returning the result the search
        # returns where counting them one at a time would: a budget expiry
        # right after the charge that reaches the node cap (or, on the
        # stride, the deadline), else the path cap one check past
        # ``max_paths``.  Node accounting is per candidate check, so the
        # cap expires at an exact, scheduling-independent point.
        nonlocal explored
        stop = min(checks, bounds.max_paths + 1 - explored)
        if check_budget:
            cap = budget.node_cap
            expiry = stop + 1 if cap is None else cap - clock.charged
            stride = INTERRUPT_STRIDE - explored % INTERRUPT_STRIDE
            if stride < expiry and stride <= stop and clock.deadline_hit():
                expiry = stride
            if expiry <= stop:
                clock.charge(expiry)
                explored += expiry
                return _interrupted()
            clock.charge(stop)
        explored += stop
        return _capped() if explored > bounds.max_paths else None

    config = SnapshotInstance.from_instance(initial)
    base = SnapshotInstance(vocabulary.schema)
    seed_structure_mirror(base, prepost_names(base_schema), initial)
    root_snap = config.snapshot()
    root: _Node = (
        root_snap, initial_known, progression.root, base.snapshot(),
        verdicts_of.setdefault(root_snap, {}),
    )

    # Iterative-deepening depth-first search over paths: short witnesses are
    # found before the search commits to deep branches, and the final round
    # (depth = max_path_length) determines exhaustiveness.  Candidates at
    # the depth limit only end their path: they get no stack entry, and
    # their node makes once the checks that popping them would make.
    for depth_limit in range(1, bounds.max_path_length + 1):
        stack: List[_StackEntry] = [(None, -1, ())]
        while stack:
            parent, index, path = stack.pop()
            if check_budget and clock.expired():
                return _interrupted()
            if explored >= bounds.max_paths:
                return _capped()
            if parent is None:
                node = root
            else:
                # The child: the parent's obligation progressed on the
                # parent's verdicts, and its configuration and mirror
                # with the new response tuples, snapshotted in O(#relations).
                config_snap, known, obligation, base_snap, verdicts = parent
                access, response = candidates[index]
                refuted = refuted_at[index]
                node_structure = struct_store = None
                obligation = progress(obligation, atom_holds)
                config.restore(config_snap)
                new_tuples = [
                    tup for tup in response if config.add_unchecked(access.relation, tup)
                ]
                config_snap = config.snapshot()
                if new_tuples:
                    pre_rel, post_rel = candidate_meta[index][:2]
                    base.restore(base_snap)
                    for tup in new_tuples:
                        base.add_unchecked(pre_rel, tup)
                        base.add_unchecked(post_rel, tup)
                    base_snap = base.snapshot()
                if grounded_only:
                    known = known | set(access.binding) | {v for tup in response for v in tup}
                node = (
                    config_snap, known, obligation, base_snap,
                    verdicts_of.setdefault(config_snap, {}),
                )
            tally[2] += 1
            _, known, obligation, base_snap, verdicts = node
            at_limit = len(path) + 1 == depth_limit
            node_structure = None
            residuals: Dict[FrozenSet[int], int] = {}
            ended = False  # whether some candidate ended a path here
            children: List[_StackEntry] = []
            for start, stop, refuted in runs:
                indices = range(start, stop)
                if grounded_only:
                    indices = [
                        i for i in indices
                        if all(value in known for value in candidates[i][0].binding)
                    ]
                residual = residuals.get(refuted)
                if residual is None:
                    residual = residuals[refuted] = fold(obligation, folded_verdict)
                if at_limit and residual == FALSE:
                    stopped = count(len(indices))
                    if stopped is not None:
                        return stopped
                    tally[0] += len(indices)
                    ended = ended or any(extended(path, i) is not None for i in indices)
                    continue
                for index in indices:
                    stopped = count(1)
                    if stopped is not None:
                        return stopped
                    new_path = extended(path, index)
                    if new_path is None:
                        continue
                    if residual == FALSE:
                        tally[0] += 1
                    else:
                        tally[1] += 1
                        access, response = candidates[index]
                        struct_store = None
                        if last(residual, atom_holds):
                            return BoundedCheckResult(
                                satisfiable=True,
                                witness=access_path(new_path),
                                paths_explored=explored,
                                exhausted=False,
                            )
                    if at_limit:
                        ended = True
                        continue
                    children.append((node, index, new_path))
            if ended:
                if check_budget and clock.expired():
                    return _interrupted()
                if explored >= bounds.max_paths:
                    return _capped()
            stack.extend(reversed(children))
    return BoundedCheckResult(
        satisfiable=False, witness=None, paths_explored=explored, exhausted=True
    )


def validity_counterexample(
    vocabulary: AccessVocabulary,
    formula: AccFormula,
    bounds: Bounds,
    initial: Optional[Instance] = None,
    grounded_only: bool = False,
) -> BoundedCheckResult:
    """Search for a path violating *formula* (a counterexample to validity).

    Validity over (grounded) paths is the dual of satisfiability: the
    formula is valid iff its negation is unsatisfiable.  The fact and value
    pools are derived from the *negated* formula (same embedded sentences),
    so the same bounds apply.
    """
    from repro.core.formulas import AccNot

    return bounded_satisfiability(
        vocabulary,
        AccNot(formula),
        bounds,
        initial=initial,
        grounded_only=grounded_only,
    )
