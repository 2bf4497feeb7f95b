"""Parallel checking of the Lemma 4.9 chain restrictions.

The emptiness procedure of Theorem 4.6 decomposes an A-automaton into
SCC-chain restrictions whose emptiness checks are *independent*: the
guard/sentence caches of the witness search are per-search already, and
the initial configuration ships as a store snapshot, which is picklable
by construction (:mod:`repro.store.snapshot`).  This module fans those
checks out across the shared persistent process pool
(:mod:`repro.store.workqueue`), and — when subtree mode is on — fans the
*dominant* chain's own DFS subtrees out alongside them, so the pool does
not drain to one busy worker while a hard chain finishes alone.

Guarantees:

* **Identical verdicts.**  Workers run exactly
  :func:`repro.automata.emptiness.check_restriction` — the same unit of
  work as the sequential loop — and the caller folds the ordered outcome
  list with the same fold as the sequential path, so the resulting
  :class:`~repro.automata.emptiness.EmptinessResult` is bit-identical
  (verdict, witness, ``paths_explored``, ``exhausted``) whether or not a
  pool was used.  The determinism tests in
  ``tests/test_parallel_chains.py`` assert this field by field.

* **Cost-gated dispatch.**  Pool dispatch pays startup and pickling
  latency, so it engages only when it can win: there must be usable
  extra CPUs (measured by *scheduling affinity*, not raw core count — a
  container pinned to one CPU can fork a pool but never gains from it)
  and the estimated work must clear ``REPRO_PARALLEL_MIN_COST``.  Below
  either bar, ``parallel=True`` degrades to the in-process loop — the
  gate makes parallel a strict non-loss, which is exactly what the
  ``parallel_chains_par`` benchmark row asserts.  An explicit
  ``max_workers`` overrides the gate (tests use it to exercise the real
  pool on single-core machines; operators to force dispatch).

* **Per-chain recovery.**  Chains, the dominant chain's subtree items
  and engine tasks all go through the one scheduler of
  :mod:`repro.store.workqueue`; a failed chain item retries on a
  rebuilt pool or falls back in process on its own, without disturbing
  the other chains.  One restriction, one worker or a closed cost gate
  keep every chain on ``automaton_emptiness``'s own in-process loop.

The pool prefers the ``fork`` start method (cheap on Linux, inherits the
parent's hash seed); under ``spawn`` correctness is preserved because
snapshots and the persistent maps inside them rebuild themselves from
their fact lists on unpickling instead of shipping hash-seed-dependent
trie layouts.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional, Sequence

from repro.obs import env as envknobs
from repro.store import workqueue
from repro.store.snapshot import Snapshot, SnapshotInstance

#: Environment toggle consulted when ``automaton_emptiness(parallel=None)``.
PARALLEL_CHAINS_ENV = envknobs.PARALLEL_CHAINS_ENV

#: Environment toggle consulted when
#: ``automaton_emptiness(subtree_parallel=None)``: decompose each chain's
#: witness search into subtree work items (deterministic semantics; pool
#: dispatch still requires ``parallel`` and the cost gate).
PARALLEL_SUBTREES_ENV = envknobs.PARALLEL_SUBTREES_ENV

#: Environment override for the dispatch cost gate (see
#: :func:`min_dispatch_cost`).
PARALLEL_MIN_COST_ENV = envknobs.PARALLEL_MIN_COST_ENV

#: Default for :func:`min_dispatch_cost`: estimated-work floor below
#: which ``parallel=True`` stays in process.  The unit is the
#: :func:`estimate_chain_cost` proxy — roughly ``automaton size ×
#: exploration budget``; the default clears comfortably for the
#: multi-second workloads parallelism targets and blocks the
#: millisecond-scale calls where pool latency dominates.
DEFAULT_MIN_DISPATCH_COST = envknobs.DEFAULT_MIN_DISPATCH_COST

#: Upper bound on workers regardless of core count, for every pooled
#: caller: chain counts and batches are small and each worker pays a full
#: search setup, so very wide pools only add startup latency.
_MAX_WORKERS_CAP = 8

#: How many parallel units to assume when sizing a pool for subtree mode:
#: a single chain still yields many subtree items, so the pool is sized
#: by CPUs/cap rather than by the chain count.
_SUBTREE_POOL_UNITS = 8


#: Back-compat alias; the lenient-flag semantics live in the knob
#: registry (:func:`repro.obs.env.flag_lenient`).
_env_flag = envknobs.flag_lenient


def parallel_chains_enabled() -> bool:
    """Whether the environment opts in to parallel chain checking."""
    return _env_flag(PARALLEL_CHAINS_ENV)


def subtree_parallel_enabled() -> bool:
    """Whether the environment opts in to subtree-decomposed searches."""
    return _env_flag(PARALLEL_SUBTREES_ENV)


def min_dispatch_cost() -> int:
    """Estimated-work floor for pool dispatch (env override or default)."""
    return envknobs.non_negative_int(PARALLEL_MIN_COST_ENV, DEFAULT_MIN_DISPATCH_COST)


def available_cpus() -> int:
    """CPUs this process may actually run on (scheduling affinity).

    ``os.cpu_count()`` reports the machine; a containerised or
    CPU-pinned process can see many cores it will never be scheduled
    onto, in which case a worker pool only adds dispatch overhead — the
    exact failure mode the cost gate exists to prevent.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def estimate_chain_cost(
    restriction,
    search_kwargs: Dict[str, object],
    pool_size: Optional[int] = None,
) -> int:
    """Deterministic proxy for one chain's witness-search work.

    ``automaton size × exploration budget``: the candidate loop is
    per-transition guard work and the budget caps the explored nodes.
    ``max_paths`` alone overestimates small searches badly (the default
    cap is 40 000 but a three-fact pool exhausts after a few hundred
    nodes), so the budget is additionally bounded by a branching proxy
    of the search space, ``(pool + 2) ^ min(max_length, 8)``.  All
    inputs are known before any search setup and the estimate is a pure
    function of them — gate decisions never depend on machine state and
    cannot perturb results (gating only chooses *where* identical work
    runs).
    """
    budget = int(search_kwargs.get("max_paths") or 0)
    if pool_size is None:
        fact_pool = search_kwargs.get("fact_pool")
        pool_size = len(fact_pool) if fact_pool is not None else None
    max_length = search_kwargs.get("max_length")
    if pool_size is not None and max_length:
        space = (pool_size + 2) ** min(int(max_length), 8)
        budget = min(budget, space)
    states, transitions = restriction.size()
    return (states + transitions) * budget


def worker_count(
    num_units: int, max_workers: Optional[int], subtree: bool = False
) -> int:
    """Pool size for *num_units* independent units of work.

    The one sizing rule of every pooled caller — chain fan-out, subtree
    and anytime searches, engine batches — so they agree on the size and
    the shared pool is not rebuilt between them.  In subtree mode a
    single chain still yields many items, so the pool is sized by CPUs
    and the cap rather than by the chain count.
    """
    if subtree:
        num_units = max(num_units, _SUBTREE_POOL_UNITS)
    if max_workers is not None:
        # An explicit worker count is honoured as given (minus idle
        # workers): tests use it to exercise the real pool on single-core
        # machines, operators to oversubscribe or restrict deliberately.
        return max(1, min(num_units, max_workers))
    return max(1, min(num_units, available_cpus(), _MAX_WORKERS_CAP))


def _should_dispatch(total_cost: int, max_workers: Optional[int]) -> bool:
    if max_workers is not None:
        return True
    return total_cost >= min_dispatch_cost()


def _check_chain(restriction, vocabulary, initial_snapshot, search_kwargs, use_precheck):
    """Worker side of a chain item (picklable by name)."""
    from repro.automata.emptiness import check_restriction

    initial = SnapshotInstance.from_snapshot(initial_snapshot)
    return check_restriction(
        restriction, vocabulary, initial, search_kwargs, use_precheck
    )


def _initial_snapshot(initial) -> Snapshot:
    if isinstance(initial, Snapshot):
        return initial
    return SnapshotInstance.from_instance(initial).snapshot()


def _earlier_witness_finished(futures: Dict[int, object], dominant: int) -> bool:
    """Whether a chain before *dominant* already finished with a witness.

    A non-blocking scan: such a witness makes the dominant chain dead
    work (the fold stops before it).  A chain that finishes *while* the
    dominant search runs is not seen — that race is inherent to running
    them concurrently — but the cheap chains often beat the coordinator
    to this point, and skipping a multi-second dominant search is worth
    the O(#chains) check.
    """
    for index in range(dominant):
        outcome = workqueue.finished_value(futures.get(index))
        if outcome is not None and outcome.witness is not None:
            return True
    return False


def map_chain_outcomes(
    restrictions: Sequence,
    vocabulary,
    initial,
    search_kwargs: Dict[str, object],
    use_datalog_precheck: bool,
    max_workers: Optional[int] = None,
    pool_size: Optional[int] = None,
) -> Optional[List]:
    """Chain outcomes in restriction order, up to the first witness.

    Returns ``None`` when parallelism cannot help — no usable extra CPUs,
    estimated work below :func:`min_dispatch_cost`, a single chain
    outside subtree mode — and the caller checks the chains in process.
    *pool_size* is the caller's fact-pool cardinality hint for
    :func:`estimate_chain_cost` (``automaton_emptiness`` derives the
    pool anyway and passes its size along so the gate can bound the
    exploration budget by the actual search space).

    Otherwise every chain ships as a pool item of the shared scheduler
    (:mod:`repro.store.workqueue`) — except, in subtree mode, the chain
    with the largest cost estimate: that straggler is what makes
    whole-chain granularity lose, so its witness search runs in the
    coordinator with its DFS subtrees dispatched to the same queue, and
    workers pick them up as the small chains drain.  Once an outcome
    carries a witness the remaining chains are dead work (the caller's
    fold stops there, mirroring the sequential early exit), so
    not-yet-started items are cancelled and the list is truncated at
    that point.  A chain whose item fails retries or falls back in
    process on its own; the failures are counted (``pool_*``) in the
    first outcome's stats.  Placement depends on runtime estimates, but
    the folded result never does.
    """
    from repro.automata.emptiness import check_restriction

    num_chains = len(restrictions)
    subtree = bool(search_kwargs.get("subtree_mode"))
    workers = worker_count(num_chains, max_workers, subtree)
    costs = [
        estimate_chain_cost(restriction, search_kwargs, pool_size)
        for restriction in restrictions
    ]
    if (
        workers <= 1
        or not _should_dispatch(sum(costs), max_workers)
        or (num_chains <= 1 and not subtree)
    ):
        return None
    dominant = (
        max(range(num_chains), key=lambda i: (costs[i], -i)) if subtree else None
    )
    scheduler = workqueue.PoolScheduler(workers)
    initial_snapshot = _initial_snapshot(initial)

    def submit(index: int):
        return scheduler.dispatch(
            "chain",
            _check_chain,
            restrictions[index],
            vocabulary,
            initial_snapshot,
            search_kwargs,
            use_datalog_precheck,
        )

    def check(index: int, executor=None):
        return check_restriction(
            restrictions[index],
            vocabulary,
            initial,
            search_kwargs,
            use_datalog_precheck,
            executor=executor,
        )

    futures = {index: submit(index) for index in range(num_chains) if index != dominant}
    outcomes = []
    try:
        dominant_outcome = None
        if dominant is not None and not _earlier_witness_finished(futures, dominant):
            dominant_outcome = check(dominant, workqueue.SubtreeExecutor(workers))
        for index in range(num_chains):
            if index == dominant:
                if dominant_outcome is None:
                    # Unreachable by the fold: an earlier chain's witness
                    # truncates the walk before this entry.
                    raise AssertionError(
                        "dominant chain skipped without an earlier witness"
                    )  # pragma: no cover - guarded by _earlier_witness_finished
                outcome = dominant_outcome
            else:
                future = futures.pop(index)
                if future is None:
                    outcome = check(index)
                else:
                    outcome, _ = scheduler.resolve(
                        future,
                        "chain",
                        lambda: submit(index),
                        lambda: check(index),
                    )
            outcomes.append(outcome)
            if outcome.witness is not None:
                break
    finally:
        for future in futures.values():
            if future is not None:
                future.cancel()
    if scheduler.counters:
        stats = dict(outcomes[0].stats or {})
        for key, value in scheduler.counters.items():
            stats[key] = stats.get(key, 0) + value
        outcomes[0] = dataclasses.replace(outcomes[0], stats=stats)
    return outcomes
