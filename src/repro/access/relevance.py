"""Long-term relevance (LTR) of an access to a query.

Example 2.3 of the paper (following Benedikt–Gottlob–Senellart [3]): a
boolean access ``AC1`` is *long-term relevant* for a query ``Q`` on an
initial instance ``I0`` if there is an access path ``p = AC1, r1, AC2, r2,
...`` such that the configuration resulting from ``p`` satisfies ``Q``,
while the configuration resulting from ``p`` with ``AC1`` dropped does not.
Under *grounded* accesses ("dependent accesses" in [3]) the witnessing path
must additionally be grounded.

The paper observes (Section 4.2) that over general ("independent")
accesses, ``Q`` is LTR iff it is LTR over paths of length ``|Q|`` — a
counterexample has only polynomial length.  Our procedure exploits the same
small-witness structure:

1. For each disjunct ``D`` of ``Q`` and each body atom of ``D`` over the
   accessed relation, try to unify the atom with the accessed tuple.  The
   homomorphic image of ``D`` under that unification (plus the initial
   instance) is a candidate witness configuration.
2. Check that ``Q`` fails on the witness with the accessed tuple removed
   (so the first access is genuinely needed).
3. Check that the remaining facts of the witness outside ``I0`` are
   *revealable* (:func:`~repro.access.path.revealing_steps`): over general
   accesses it suffices that each relation has some access method; over
   grounded accesses they are revealed greedily, starting from the values
   of ``I0`` plus the accessed tuple.

The procedure is sound (a reported witness really is one — this is checked
by construction and revalidated with the AccLTL semantics in the tests) and
complete for the independent-access case; for grounded accesses a
candidate whose facts cannot be revealed makes the result report
``complete=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.access.methods import Access, AccessSchema
from repro.access.path import (
    AccessPath,
    PathStep,
    conf,
    grounded_prefix_length,
    revealing_steps,
)
from repro.queries.cq import ConjunctiveQuery
from repro.queries.evaluation import evaluate_ucq
from repro.queries.homomorphism import frozen_branch
from repro.queries.terms import Constant, Variable
from repro.queries.ucq import as_ucq
from repro.relational.instance import Instance
from repro.store.snapshot import SnapshotInstance


@dataclass(frozen=True)
class RelevanceResult:
    """Outcome of a long-term-relevance check.

    Attributes
    ----------
    relevant:
        The verdict.
    witness_path:
        For positive verdicts, an access path witnessing relevance (it
        starts with the checked access, its configuration satisfies the
        query, and dropping the first access loses the query).
    grounded:
        Whether the witness path is grounded in the initial instance.
    complete:
        Whether the search was exhaustive for the requested mode (always
        true for independent accesses; for grounded accesses it is false
        when some candidate witness had facts no grounded path reveals).
    """

    relevant: bool
    witness_path: Optional[AccessPath] = None
    #: Whether the witness path is grounded *given* the checked access: the
    #: probed access is supplied by the caller (its binding values count as
    #: known, as in [3] where the candidate access is part of the problem
    #: instance), and every later binding value must occur in the initial
    #: instance or in an earlier response.
    grounded: bool = False
    complete: bool = True

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.relevant


def _unifications(
    disjunct: ConjunctiveQuery,
    relation: str,
    accessed_tuple: Tuple[object, ...],
) -> Iterable[Dict[Variable, object]]:
    """Partial assignments unifying some body atom with the accessed tuple."""
    for atom in disjunct.atoms:
        if atom.relation != relation or len(atom.terms) != len(accessed_tuple):
            continue
        assignment: Dict[Variable, object] = {}
        ok = True
        for term, value in zip(atom.terms, accessed_tuple):
            if isinstance(term, Constant):
                if term.value != value:
                    ok = False
                    break
            else:
                if term in assignment and assignment[term] != value:
                    ok = False
                    break
                assignment[term] = value
        if ok:
            yield dict(assignment)


def long_term_relevant(
    schema: AccessSchema,
    access: Access,
    query,
    initial: Optional[Instance] = None,
    grounded: bool = False,
    require_boolean_access: bool = True,
) -> RelevanceResult:
    """Is *access* long-term relevant for *query*?

    The access is expected to be boolean (every position bound), matching
    the definition in Example 2.3; set ``require_boolean_access=False`` to
    check a non-boolean access by treating its single returned tuple as the
    full binding extension (the witness search then fixes the free
    positions with fresh values).

    This public signature runs :func:`long_term_relevant_legacy`, the
    direct procedure (looked up at call time, so instrumentation that
    patches the module attribute sees every call).  Batch callers should
    prefer :meth:`repro.engine.DecisionEngine.relevance_matrix`, which
    shares the memo and snapshot store across every access of a workload.
    """
    return long_term_relevant_legacy(
        schema,
        access,
        query,
        initial=initial,
        grounded=grounded,
        require_boolean_access=require_boolean_access,
    )


def long_term_relevant_legacy(
    schema: AccessSchema,
    access: Access,
    query,
    initial: Optional[Instance] = None,
    grounded: bool = False,
    require_boolean_access: bool = True,
) -> RelevanceResult:
    """The direct per-call procedure behind :func:`long_term_relevant`.

    This is the reduction the engine executes for ``relevance`` tasks and
    the oracle the randomized equivalence suite checks the batched engine
    against; its verdicts are a pure function of its arguments.
    """
    if initial is None:
        initial = schema.empty_instance()
    target = as_ucq(query)
    relation = access.relation
    arity = schema.schema.arity(relation)

    if require_boolean_access and access.method.num_inputs != arity:
        raise ValueError(
            "long_term_relevant expects a boolean access; pass "
            "require_boolean_access=False to allow partial bindings"
        )

    binding_map = access.binding_map()
    free_positions = [i for i in range(arity) if i not in binding_map]

    # Candidate witnesses below branch off this snapshot in O(#relations)
    # per candidate instead of deep-copying the initial instance.
    initial_snap = SnapshotInstance.from_instance(initial).snapshot()
    initial_values = initial.active_domain()

    complete = True
    for disjunct in target.disjuncts:
        candidate_tuples: List[Tuple[object, ...]] = []
        if not free_positions:
            candidate_tuples.append(
                tuple(binding_map[i] for i in range(arity))
            )
        else:
            values: List[object] = [None] * arity
            for position, value in binding_map.items():
                values[position] = value
            for index, position in enumerate(free_positions):
                values[position] = f"~fresh_{index}"
            candidate_tuples.append(tuple(values))
        for accessed_tuple in candidate_tuples:
            for assignment in _unifications(disjunct, relation, accessed_tuple):
                witness, facts, frozen_assignment = frozen_branch(
                    disjunct, initial_snap, assignment
                )
                witness_with_access = witness.copy()  # O(#relations) branch
                if (relation, accessed_tuple) not in witness_with_access:
                    witness_with_access.add(relation, accessed_tuple)
                # The answer tuple this witness uncovers (the empty tuple for
                # boolean queries).  The access is relevant if this answer is
                # produced with the access and lost without it.
                answer = tuple(frozen_assignment[v] for v in disjunct.head)
                if answer not in evaluate_ucq(target, witness_with_access):
                    continue
                # Without the accessed tuple the new answer must be lost.
                dropped = SnapshotInstance.from_snapshot(initial_snap)
                for fact in facts:
                    if fact != (relation, accessed_tuple) and fact not in dropped:
                        dropped.add_fact(fact)
                if answer in evaluate_ucq(target, dropped):
                    continue
                # The first access reveals the accessed tuple; every other
                # frozen fact outside the initial instance needs an access
                # of its own, grounded in the values known after the first.
                steps = revealing_steps(
                    schema,
                    [fact for fact in facts if fact != (relation, accessed_tuple)],
                    initial_values | set(accessed_tuple),
                    grounded,
                    configuration=initial,
                )
                if steps is None:
                    if grounded:
                        complete = False
                    continue
                path = AccessPath(
                    (PathStep(access, frozenset({accessed_tuple})), *steps)
                )
                final = conf(path, initial)
                if answer not in evaluate_ucq(target, final):
                    continue
                without_first = conf(path.drop_first(), initial)
                if answer in evaluate_ucq(target, without_first):
                    continue
                return RelevanceResult(
                    relevant=True,
                    witness_path=path,
                    grounded=grounded_prefix_length(
                        path, initial, access.binding
                    ) == len(path),
                    complete=True,
                )
    return RelevanceResult(relevant=False, complete=complete)


def relevant_accesses(
    schema: AccessSchema,
    query,
    candidate_accesses: Sequence[Access],
    initial: Optional[Instance] = None,
    grounded: bool = False,
) -> List[Access]:
    """Filter *candidate_accesses* down to the long-term relevant ones.

    This is the optimisation loop sketched in the paper's introduction:
    a query processor inspects candidate accesses and skips those that
    cannot contribute to a new query answer.  It now runs as one batched
    :meth:`~repro.engine.DecisionEngine.relevance_matrix` call, so the
    initial-instance snapshot is taken once and duplicate candidates
    (common when accesses are projected from observed tuples) are solved
    once instead of per occurrence.
    """
    from repro.engine import DecisionEngine

    accesses = list(candidate_accesses)  # bind once: the input may be an iterator
    results = DecisionEngine().relevance_matrix(
        schema, accesses, query, initial=initial, grounded=grounded
    )
    return [
        access for access, result in zip(accesses, results) if result.relevant
    ]
