"""Matrix-style decision workloads for the batched reduction engine.

The batch entry points of :class:`repro.engine.DecisionEngine`
(``relevance_matrix`` / ``containment_matrix`` / ``answerability_sweep``)
amortise the plan cache and the cross-request memo across a
whole workload of decisions.  This module builds the workloads themselves:

* :func:`probe_accesses` — the relevance matrix's candidate list: every
  access method applied to the projection of every observed tuple.  This
  is the query-processor loop from the paper's introduction (inspect each
  candidate access, skip the irrelevant ones), and it is naturally
  duplicate-heavy — distinct tuples frequently project to the same
  binding — which is exactly what the engine's fingerprint dedup exploits;
* :func:`query_workload` — a containment matrix's query set, optionally
  with re-submitted (structurally equal, differently named) duplicates,
  modelling the same query arriving from many clients;
* :func:`instance_prefixes` — an answerability sweep's growing hidden
  instances (how much of the database must be revealed before a query
  becomes exactly answerable);
* :func:`stream_relevance_matrix` — the relevance matrix consumed through
  the engine's streaming interface, measuring first-verdict latency
  alongside total batch time (the anytime serving shape: cached verdicts
  arrive before any solver runs, and a batch
  :class:`~repro.core.budget.Budget` bounds the whole sweep).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.access.methods import Access, AccessSchema
from repro.queries.cq import ConjunctiveQuery
from repro.relational.instance import Instance


def probe_accesses(
    access_schema: AccessSchema,
    observed: Instance,
    limit: Optional[int] = None,
) -> List[Access]:
    """Candidate accesses projected from observed tuples, in canonical order.

    For every access method (schema registration order) and every tuple of
    its relation in *observed* (repr-sorted), the access binding the
    method's input positions to the tuple's values.  Duplicates are kept
    deliberately: they model repeated probe requests, and deduplicating
    them is the engine's job (the seq-vs-batched benchmark measures
    exactly that).
    """
    accesses: List[Access] = []
    for method in access_schema:
        for tup in sorted(observed.tuples_view(method.relation), key=repr):
            if limit is not None and len(accesses) >= limit:
                return accesses
            accesses.append(
                Access(method, tuple(tup[i] for i in method.input_positions))
            )
    return accesses


def query_workload(
    queries: Sequence[ConjunctiveQuery],
    resubmissions: int = 1,
) -> List[ConjunctiveQuery]:
    """A query set with *resubmissions* structurally-equal copies of each.

    The copies carry distinct cosmetic names, so only a canonical
    (name-insensitive) fingerprint — not object identity — deduplicates
    them, which is what the engine's ``query_key`` provides.
    """
    workload: List[ConjunctiveQuery] = []
    for round_index in range(resubmissions):
        for index, query in enumerate(queries):
            if round_index == 0:
                workload.append(query)
            else:
                workload.append(
                    ConjunctiveQuery(
                        atoms=query.atoms,
                        head=query.head,
                        equalities=query.equalities,
                        inequalities=query.inequalities,
                        name=f"resubmit{round_index}_{index}",
                    )
                )
    return workload


@dataclass(frozen=True)
class StreamedMatrix:
    """A streamed batch's values plus its latency profile.

    ``values`` is input-ordered (``None`` for tasks the batch budget
    expired before — provenance ``"deadline"``); ``first_verdict_s`` is
    the wall-clock delay until the *first* result was yielded (memo hits
    make this near-zero on warm engines) and ``total_s`` the full batch
    time.  ``by_provenance`` counts the consumed results per provenance
    tag (``memo``/``dedup``/``computed``/...), the per-request
    summary the engine records for every batch.
    """

    values: List[object]
    first_verdict_s: float
    total_s: float
    by_provenance: Optional[Dict[str, int]] = None


def stream_relevance_matrix(
    engine,
    access_schema: AccessSchema,
    accesses: Sequence[Access],
    query: ConjunctiveQuery,
    initial: Optional[Instance] = None,
    grounded: bool = False,
    require_boolean_access: bool = True,
    budget=None,
    clock=time.perf_counter,  # repro: noqa[TIME001] latency reporting only; injectable for tests
) -> StreamedMatrix:
    """Run a relevance matrix through ``engine.iter_results``.

    Task construction mirrors :meth:`DecisionEngine.relevance_matrix`
    (one shared schema/query fingerprint, per-access key concatenation),
    but results are consumed as they land: the first-verdict latency is
    the serving metric the anytime layer optimises, and *budget* bounds
    the whole sweep (budget-aware back-ends receive the unspent portion,
    everything after expiry comes back ``None``).
    """
    from repro.engine.engine import relevance_shared_key, relevance_task
    from repro.engine.reduction import instance_key

    snap = instance_key(initial)
    shared = relevance_shared_key(
        access_schema, query, snap, grounded, require_boolean_access
    )
    tasks = [
        relevance_task(
            access_schema,
            access,
            query,
            initial=snap,
            grounded=grounded,
            require_boolean_access=require_boolean_access,
            shared_key=shared,
        )
        for access in accesses
    ]
    values: List[object] = [None] * len(tasks)
    start = clock()
    first_verdict_s: Optional[float] = None
    by_provenance: Dict[str, int] = {}
    for index, result in engine.iter_results(tasks, budget=budget):
        if first_verdict_s is None:
            first_verdict_s = clock() - start
        values[index] = result.value
        by_provenance[result.provenance] = by_provenance.get(result.provenance, 0) + 1
    total_s = clock() - start
    return StreamedMatrix(
        values=values,
        first_verdict_s=first_verdict_s if first_verdict_s is not None else 0.0,
        total_s=total_s,
        by_provenance=by_provenance,
    )


def instance_prefixes(hidden: Instance, steps: int = 4) -> List[Instance]:
    """Growing prefixes of *hidden* (canonical fact order), ending at full size.

    The sweep shape of an answerability analysis: how much of the hidden
    database must exist before the maximal answers coincide with the true
    answers.  Always includes the full instance as the last element.
    """
    facts = list(hidden.facts())
    if steps < 1:
        raise ValueError("instance_prefixes needs at least one step")
    prefixes: List[Instance] = []
    for step in range(1, steps + 1):
        cutoff = (len(facts) * step) // steps
        prefix = Instance(hidden.schema)
        for name, tup in facts[:cutoff]:
            prefix.add_unchecked(name, tup)
        prefixes.append(prefix)
    return prefixes
