"""Query containment under (grounded) access patterns.

Example 2.2 of the paper: ``Q1`` is contained in ``Q2`` relative to a schema
with access patterns when for every grounded access path ``p``, if the
configuration resulting from ``p`` satisfies ``Q1`` then it also satisfies
``Q2``.  Equivalently (as the paper notes), the AccLTL formula
``G ¬(Q1^pre ∧ ¬Q2^pre)`` is valid over grounded paths.

Because responses of non-exact sources may contain *any* tuples compatible
with the binding, the configurations reachable by grounded paths from an
initial instance ``I0`` are exactly the instances ``I ⊇ I0`` whose facts
outside ``I0`` can be ordered so that each is revealed through some access
method all of whose input-position values occur in ``I0`` or in earlier
facts (we call such instances *grounded-reachable*; the facts of ``I0``
need no access).  Containment under access patterns is
therefore: every grounded-reachable instance satisfying ``Q1`` satisfies
``Q2``.

The procedure implemented here:

1. Plain containment ``Q1 ⊆ Q2`` is checked first — it implies containment
   under access patterns (sound fast path).
2. Counterexample search: for every disjunct of ``Q1`` and every
   identification of its variables, freeze the disjunct on top of ``I0``;
   if the result satisfies ``Q1``, fails ``Q2`` and is grounded-reachable
   (:func:`~repro.access.path.revealing_steps`), report non-containment
   with the certificate.
3. If no counterexample is found the queries are reported contained; the
   result records whether the search was exhaustive for the configured
   bounds (it is, for the query/schema sizes exercised in this repository —
   the benchmarks additionally cross-validate against the bounded AccLTL
   validity check of the same property).

The paper improves the complexity bounds for this problem (2EXPTIME via
A-automata, Section 4); benchmark ``benchmarks/bench_containment.py``
compares this direct procedure against the automata pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.access.methods import AccessSchema
from repro.access.path import revealing_steps
from repro.engine.reduction import Deduper
from repro.queries.containment import ucq_contained_in
from repro.queries.cq import QueryError
from repro.queries.evaluation import holds
from repro.queries.homomorphism import frozen_branch
from repro.queries.terms import Variable
from repro.queries.ucq import as_ucq
from repro.relational.instance import Instance
from repro.store.snapshot import SnapshotInstance


@dataclass(frozen=True)
class APContainmentResult:
    """Outcome of a containment-under-access-patterns check.

    ``stats`` carries informational counters from the counterexample
    enumeration (``identification_candidates``,
    ``identification_dedup_hits``); it is excluded from equality, like
    :class:`~repro.automata.emptiness.EmptinessResult.stats`, so verdict
    comparisons between execution paths ignore instrumentation.
    """

    contained: bool
    counterexample: Optional[Instance] = None
    complete: bool = True
    stats: Optional[Dict[str, int]] = field(default=None, compare=False)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.contained


def _identifications(variables: List[Variable]) -> Iterable[Dict[Variable, Variable]]:
    """All identifications (set partitions) of the given variables."""
    if not variables:
        yield {}
        return

    def partitions(items: List[Variable]):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for partition in partitions(rest):
            for index, block in enumerate(partition):
                yield partition[:index] + [[first] + block] + partition[index + 1 :]
            yield [[first]] + partition

    for partition in partitions(variables):
        mapping: Dict[Variable, Variable] = {}
        for block in partition:
            representative = block[0]
            for variable in block:
                mapping[variable] = representative
        yield mapping


def contained_under_access_patterns(
    schema: AccessSchema,
    query_one,
    query_two,
    initial: Optional[Instance] = None,
    max_identified_variables: int = 8,
) -> APContainmentResult:
    """Is ``Q1`` contained in ``Q2`` under grounded access patterns?

    See the module docstring for the procedure and its guarantees.  The
    check is on Boolean queries: a non-Boolean query is replaced by its
    Boolean closure (``boolean_version()``, the head variables
    existentially quantified), so two non-Boolean queries are compared by
    whether they have *some* answer, not by their answer tuples.

    This public signature runs
    :func:`contained_under_access_patterns_legacy`, the direct procedure
    (looked up at call time, so instrumentation that patches the module
    attribute sees every call).  Batch callers should prefer
    :meth:`repro.engine.DecisionEngine.containment_matrix`, which
    deduplicates structurally equal query pairs across a workload.
    """
    return contained_under_access_patterns_legacy(
        schema,
        query_one,
        query_two,
        initial=initial,
        max_identified_variables=max_identified_variables,
    )


def contained_under_access_patterns_legacy(
    schema: AccessSchema,
    query_one,
    query_two,
    initial: Optional[Instance] = None,
    max_identified_variables: int = 8,
) -> APContainmentResult:
    """The direct per-call procedure behind
    :func:`contained_under_access_patterns`.

    This is the reduction the engine executes for ``containment_ap``
    tasks and the oracle the randomized equivalence suite checks the
    batched engine against.  The candidate enumeration short-circuits
    identical frozen candidates through the engine's
    :class:`~repro.engine.reduction.Deduper`: :func:`_identifications`
    enumerates *set partitions* of the disjunct's variables (a Bell
    number of them), and distinct partitions frequently freeze to the
    same candidate instance — e.g. whenever they differ only on
    variables occurring in comparison atoms — which previously re-solved
    the identical ``holds``/reachability checks once per partition.  The
    dedup counters are reported in the result's ``stats``.
    """
    if initial is None:
        initial = schema.empty_instance()
    q1 = as_ucq(query_one).boolean_version()
    q2 = as_ucq(query_two).boolean_version()

    if ucq_contained_in(q1, q2):
        return APContainmentResult(contained=True, complete=True)

    # The initial instance itself is the configuration of the empty path; if
    # it already separates the queries, containment fails immediately.
    # (``initial.copy()`` here is a justified one-off deep copy: the
    # counterexample is handed to the caller, who owns and may mutate it.)
    if holds(q1, initial) and not holds(q2, initial):
        return APContainmentResult(
            contained=False, counterexample=initial.copy(), complete=True
        )

    initial_snap = SnapshotInstance.from_instance(initial).snapshot()
    initial_values = set(initial.active_domain())
    complete = True
    # Distinct identifications that freeze to the same fact set yield the
    # same candidate instance, and every check below (Q1/Q2 satisfaction,
    # grounded reachability) is a function of that fact set alone — so
    # the first occurrence decides for all of them.
    candidate_dedup = Deduper()
    candidates_seen = 0
    for disjunct in q1.disjuncts:
        variables = sorted(disjunct.variables(), key=lambda v: v.name)
        if len(variables) > max_identified_variables:
            # Only the identity identification is tried for very large
            # disjuncts; the result records the loss of exhaustiveness.
            identifications: Iterable[Dict[Variable, Variable]] = [
                {v: v for v in variables}
            ]
            complete = False
        else:
            identifications = _identifications(variables)
        for identification in identifications:
            try:
                identified = disjunct.rename_variables(identification)
            except QueryError:
                continue  # identification forces a head variable onto a constant
            candidate, facts, _ = frozen_branch(identified, initial_snap)
            candidates_seen += 1
            if candidate_dedup.register(frozenset(facts), True) is not None:
                continue
            if not holds(q1, candidate):
                continue
            if holds(q2, candidate):
                continue
            if revealing_steps(
                schema, facts, initial_values, grounded=True, configuration=initial
            ) is not None:
                # Materialise the reported counterexample as a dict-backed
                # Instance (O(n), once per report) so the result type
                # matches the dataclass contract on every return path.
                return APContainmentResult(
                    contained=False,
                    counterexample=candidate.to_instance(),
                    complete=True,
                    stats=_identification_stats(candidates_seen, candidate_dedup),
                )
    return APContainmentResult(
        contained=True,
        complete=complete,
        stats=_identification_stats(candidates_seen, candidate_dedup),
    )


def _identification_stats(
    candidates_seen: int, dedup: Deduper
) -> Dict[str, int]:
    return {
        "identification_candidates": candidates_seen,
        "identification_dedup_hits": dedup.hits,
    }


def equivalent_under_access_patterns(
    schema: AccessSchema,
    query_one,
    query_two,
    initial: Optional[Instance] = None,
) -> bool:
    """Mutual containment under grounded access patterns.

    The paper's introduction motivates this as the basis of query
    minimisation in the presence of access restrictions.
    """
    forward = contained_under_access_patterns(schema, query_one, query_two, initial)
    backward = contained_under_access_patterns(schema, query_two, query_one, initial)
    return forward.contained and backward.contained
