"""The one pool scheduler: every pooled item is submitted and resolved here.

Three kinds of work share one persistent process pool:

* **chains** — a whole Lemma 4.9 chain restriction check
  (:mod:`repro.store.parallel` decides which chains go to the pool);
* **subtree items** — DFS frontier nodes of one chain's witness search.
  Snapshots are picklable by construction, so a node ships as a
  self-contained :class:`~repro.automata.emptiness.SubtreeItem`
  ``(states, snapshot, known, budget)``; workers run each to completion
  — or hand it back for **re-splitting** when it exceeds the per-item
  work budget — and the coordinator folds the outcomes deterministically
  (:func:`run_decomposed_search`);
* **engine tasks** — independent reduction tasks of a
  :class:`~repro.engine.DecisionEngine` batch.

Every kind goes through the same three pieces: one worker entry
(:func:`_run_item`: configure tracing, fire the scripted fault, run,
capture spans and the metrics-registry counter delta), one result
envelope (:class:`Shipped`) and one resolver (:meth:`PoolScheduler.resolve`: wait,
classify the failure, retry on a rebuilt pool, fall back in-process).
A caller only chooses *what* to run and *what* the in-process
equivalent is; results never depend on where an item ran.

Guarantees of the decomposed search:

* **Deterministic results.**  :func:`run_decomposed_search` returns the
  same ``(witness, explored, exhausted)`` whether items run in worker
  processes, in-process (no pool), or any mix (individual worker
  failures fall back to in-process resolution).  The fold consumes
  outcomes in canonical DFS order — the first witness in that order
  wins — and reconstructs the sequential interleaving of exploration
  counts exactly, including the ``max_paths`` abort point: a witness a
  worker found beyond the budget horizon the sequential search would
  have aborted at is discarded, not reported.
* **Re-splitting is deterministic too.**  A worker abandons an item once
  its local explored-node count exceeds the *split budget*; whether that
  happens is a pure function of ``(item, budget)``, never of
  scheduling.  The coordinator then expands the overflowed node one
  level (counting that node's own candidates itself) and enqueues the
  children — adaptive granularity without nondeterminism, at the cost of
  discarding the overflowed attempt (at most one budget's worth of
  work).
* **Warm shared pool.**  The pool is reused across calls; each worker
  caches the unpickled search context per coordinator token, so after
  the first item of a context only the item itself is rebuilt per task.
* **Anytime.**  Given a started budget clock the same fold stops at a
  work-item boundary and returns a resumable checkpoint.

Early cancellation: once the fold settles on a witness, not-yet-started
items are cancelled (running ones finish in the background and are
discarded), mirroring the chain-level early exit.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from typing import Callable, Dict, List, Optional, Tuple

# NOTE: repro.store is initialised very early (the query plan cache pulls
# in the snapshot store), so this module must not import the repro.core
# package at module level — the budget types are imported lazily inside
# the budgeted entry points instead.  :mod:`repro.obs` is safe: it is
# dependency-free within the library.
from repro.obs import env as envknobs
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.store import faults

#: Default explored-nodes budget a worker spends on one subtree item
#: before handing it back for re-splitting.  Override per call via
#: ``automaton_emptiness(split_budget=...)`` or globally via the
#: ``REPRO_SUBTREE_SPLIT_BUDGET`` environment variable.
DEFAULT_SPLIT_BUDGET = envknobs.DEFAULT_SPLIT_BUDGET

#: Environment override for :data:`DEFAULT_SPLIT_BUDGET`.
SPLIT_BUDGET_ENV = envknobs.SPLIT_BUDGET_ENV

#: Environment override for the transient-failure retry count of the
#: pool path (:func:`pool_retry_limit`).
POOL_RETRIES_ENV = envknobs.POOL_RETRIES_ENV

#: Default bounded retries for a transient worker failure before the
#: in-process fallback.  Two retries with exponential backoff cover the
#: common one-off worker death without stalling a genuinely broken pool.
DEFAULT_POOL_RETRIES = envknobs.DEFAULT_POOL_RETRIES

#: Environment override for the per-item pooled result timeout in
#: seconds (:func:`pool_item_timeout`).  Unset/empty means no timeout —
#: the default, because a healthy pool's items always terminate (the DFS
#: is budget-bounded) and a spurious timeout costs a full in-process
#: recomputation.
POOL_ITEM_TIMEOUT_ENV = envknobs.POOL_ITEM_TIMEOUT_ENV

#: Base of the exponential retry backoff (seconds): 0.05, 0.1, 0.2, ...
_RETRY_BACKOFF_S = 0.05


# ----------------------------------------------------------------------
# Environment parsing — the declarations and parsers live in the central
# knob registry (:mod:`repro.obs.env`); these wrappers keep the
# historical call sites and import paths working.
# ----------------------------------------------------------------------
warn_invalid_env = envknobs.warn_invalid_env
#: Back-compat alias; the live warned-once set is ``repro.obs.env._ENV_WARNED``.
_ENV_WARNED = envknobs._ENV_WARNED


def subtree_split_budget() -> int:
    """The configured per-item work budget (env override or default)."""
    return envknobs.positive_int(SPLIT_BUDGET_ENV, DEFAULT_SPLIT_BUDGET)


def pool_retry_limit() -> int:
    """Bounded retries for transient worker failures (env override or default)."""
    return envknobs.non_negative_int(POOL_RETRIES_ENV, DEFAULT_POOL_RETRIES)


def pool_item_timeout() -> Optional[float]:
    """Per-item pooled result timeout in seconds (``None`` = no timeout)."""
    return envknobs.positive_float(POOL_ITEM_TIMEOUT_ENV, None)


# ----------------------------------------------------------------------
# Worker-failure taxonomy
# ----------------------------------------------------------------------
def _is_payload_error(error: BaseException) -> bool:
    """Whether *error* means the payload itself cannot cross the pipe.

    Pickling/unpickling failures are deterministic properties of the
    payload: retrying the exact same bytes reproduces them, so the right
    response is to fail the pool path fast and resolve in-process.
    Everything else (a dead worker breaking the pool, an OS-level pipe
    error) is treated as transient and eligible for bounded retry.
    """
    return isinstance(error, (pickle.PicklingError, pickle.UnpicklingError, TypeError, AttributeError))


def _bump(stats: Dict[str, int], key: str, amount: int = 1) -> None:
    stats[key] = stats.get(key, 0) + amount


# ----------------------------------------------------------------------
# The shared persistent pool
# ----------------------------------------------------------------------
# A lazily created, reused pool: spawning workers costs hundreds of
# milliseconds (fork of a large parent, interpreter warm-up), which would
# otherwise be paid by every emptiness call.  The pool is replaced when a
# caller needs more workers than it has, and discarded on any failure
# (the next call recreates it).  Chains, subtree items and engine tasks
# all draw from it, so they interleave in one queue — which is exactly
# how a dominant chain's subtrees fill workers that drained their own
# chains.
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def shared_pool(workers: int) -> ProcessPoolExecutor:
    """The shared pool, grown to at least *workers* workers."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS >= workers:
        return _POOL
    if _POOL is not None:
        _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = None
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context()
    _POOL = ProcessPoolExecutor(max_workers=workers, mp_context=context)
    _POOL_WORKERS = workers
    return _POOL


def discard_shared_pool() -> None:
    """Tear the shared pool down (the next call recreates it)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        try:
            _POOL.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - best-effort cleanup
            _metrics.counter("pool.shutdown_errors")
    _POOL = None
    _POOL_WORKERS = 0


# ----------------------------------------------------------------------
# Worker side: the one entry point and the result envelope
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Shipped:
    """What a pool worker returns for one item.

    ``value`` is the item's result, ``spans`` the trace spans the worker
    recorded for it (folded under the coordinator's live span on
    collection) and ``counters`` the worker metrics-registry delta
    (merged into the coordinator registry via ``merge_counters``).
    """

    value: object
    spans: Optional[Tuple] = None
    counters: Optional[Dict[str, float]] = None


def _run_item(point: str, fn: Callable, args: Tuple, trace_on: bool) -> Shipped:
    """The worker entry point of every pooled item (picklable by name).

    *point* names the fault-injection point (``chain``, ``subtree`` or
    ``task``).  *trace_on* travels with every submission: persistent
    workers inherit whatever tracing flag the coordinator had at fork
    time, so the entry reconfigures :mod:`repro.obs.trace` per item.
    """
    _trace.configure_worker(trace_on)
    base = _metrics.REGISTRY.counters_snapshot()
    faults.fire(point)
    value = fn(*args)
    spans = tuple(_trace.take_spans()) if trace_on else None
    counters = _metrics.REGISTRY.counters_delta(base)
    return Shipped(value, spans or None, counters or None)


#: Worker-process cache of unpickled search contexts, keyed by the
#: coordinator's context token.  Bounded: coordinators churn through
#: contexts (one per chain restriction), workers must not accumulate
#: them forever.
_CONTEXT_CACHE: Dict[Tuple[int, int], object] = {}
_CONTEXT_ORDER: List[Tuple[int, int]] = []
_CONTEXT_CACHE_LIMIT = 4

_TOKEN_COUNTER = 0


def _next_context_token() -> Tuple[int, int]:
    """A token unique per (coordinator process, bound search context)."""
    global _TOKEN_COUNTER
    _TOKEN_COUNTER += 1
    return (os.getpid(), _TOKEN_COUNTER)


def _cached_search(token: Tuple[int, int], blob: bytes):
    search = _CONTEXT_CACHE.get(token)
    if search is None:
        from repro.automata.emptiness import search_from_payload

        search = search_from_payload(pickle.loads(blob))
        _CONTEXT_CACHE[token] = search
        _CONTEXT_ORDER.append(token)
        while len(_CONTEXT_ORDER) > _CONTEXT_CACHE_LIMIT:
            evicted = _CONTEXT_ORDER.pop(0)
            _CONTEXT_CACHE.pop(evicted, None)
    return search


def _subtree_worker(token: Tuple[int, int], blob: bytes, item, node_budget: int):
    """Run one subtree item against the cached search context.

    The outcome carries the search-stats delta of this item in
    ``SubtreeOutcome.stats``; the coordinator merges it into the search
    stats it reports.
    """
    search = _cached_search(token, blob)
    before = dict(search.stats)
    with _trace.trace_span(
        "emptiness.subtree", states=len(item.states), budget=node_budget
    ):
        outcome = search.run_subtree(item, node_budget)
    delta = {
        key: value - before.get(key, 0)
        for key, value in search.stats.items()
        if value != before.get(key, 0)
    }
    return dataclasses.replace(outcome, stats=delta or None)


# ----------------------------------------------------------------------
# Coordinator side: submission and the one resolver
# ----------------------------------------------------------------------
def _unwrap(result):
    """An item's value; a :class:`Shipped` envelope's payload is folded in."""
    if not isinstance(result, Shipped):
        return result
    _trace.attach_children(result.spans)
    _metrics.REGISTRY.merge_counters(result.counters)
    return result.value


class PoolScheduler:
    """Submits one caller's items to the shared pool and resolves them.

    *workers* sizes the shared pool (:func:`repro.store.parallel.worker_count`).
    Every pool event of the caller's items is counted into *counters*
    (the caller's stats dict, or a fresh one).  A submission failure
    (``pool_payload_errors`` / ``pool_submit_errors``) makes the
    scheduler unusable, so the caller resolves its remaining items
    in-process — with identical results.
    """

    def __init__(self, workers: int, counters: Optional[Dict[str, int]] = None) -> None:
        self.workers = workers
        self.counters: Dict[str, int] = {} if counters is None else counters
        self.usable = True

    def mark_dead(self) -> None:
        self.usable = False

    def dispatch(self, point: str, fn: Callable, *args):
        """A future for ``fn(*args)`` run in a worker, or ``None`` when unusable."""
        if not self.usable:
            return None
        try:
            return shared_pool(self.workers).submit(
                _run_item, point, fn, args, _trace.enabled()
            )
        except Exception as error:
            if _is_payload_error(error):
                _bump(self.counters, "pool_payload_errors")
            else:
                # A pool that cannot be built or has broken: the next
                # caller starts from a fresh one.
                _bump(self.counters, "pool_submit_errors")
                discard_shared_pool()
            self.usable = False
            return None

    def resolve(
        self,
        future,
        point: str,
        resubmit: Callable,
        compute: Callable,
        *,
        clock=None,
        compute_on_expiry: bool = False,
        **attrs,
    ) -> Tuple[object, str]:
        """Wait for one pooled item and recover from every failure.

        Returns ``(value, provenance)`` with provenance ``"pooled"``,
        ``"pooled_retry"`` (pooled after a retry), ``"fallback"`` (computed
        in-process by *compute*) or ``"deadline"`` (``value`` is ``None``).
        Failure taxonomy, each occurrence counted into :attr:`counters` and
        traced as a ``pool.*`` event carrying *point* and *attrs*:

        * **timeout** (``pool_timeouts``) — the per-item deadline
          (:func:`pool_item_timeout`) passed without a result.  No retry:
          the worker behind a stuck future is still busy, and queueing
          another copy behind it would stall the caller further.  The
          scheduler is marked dead and the item falls back.
        * **payload error** (``pool_payload_errors``) — pickling/unpickling
          failed.  Deterministic, so retrying the same bytes is pointless:
          mark the scheduler dead and fall back.
        * **transient worker failure** (``pool_worker_failures``) — a dead
          worker (``BrokenProcessPool``), a severed pipe, a cancelled
          sibling of a replaced pool.  Retried up to :func:`pool_retry_limit`
          times (``pool_retries`` counts attempts) with exponential backoff:
          the shared pool is rebuilt and *resubmit* called; once the retries
          are spent (or the scheduler is dead) the item falls back and the
          scheduler is marked dead.

        Every fallback is counted in ``pool_inprocess_fallbacks`` and runs
        under a ``pool.fallback`` span.  A started *clock* (a
        :class:`~repro.core.budget.BudgetClock`) caps each wait at its
        remaining time; a wait cut short by the clock's deadline is not a
        stalled worker — the item is then ``"deadline"``, or computed
        in-process when *compute_on_expiry* is set.
        """
        item_timeout = pool_item_timeout()
        attempt = 0
        while True:
            timeout = item_timeout
            if clock is not None:
                remaining = clock.remaining_s()
                if remaining is not None:
                    timeout = remaining if timeout is None else min(timeout, remaining)
            try:
                result = future.result() if timeout is None else future.result(timeout=timeout)
            except FuturesTimeout:
                future.cancel()
                if clock is not None and clock.expired():
                    if not compute_on_expiry:
                        return None, "deadline"
                    return self._fallback(point, compute, attrs), "fallback"
                _bump(self.counters, "pool_timeouts")
                _trace.event("pool.timeout", point=point, timeout_s=timeout, **attrs)
                self.mark_dead()
                return self._fallback(point, compute, attrs), "fallback"
            except Exception as error:
                if _is_payload_error(error):
                    _bump(self.counters, "pool_payload_errors")
                    _trace.event(
                        "pool.payload_error", point=point, error=type(error).__name__, **attrs
                    )
                    self.mark_dead()
                    return self._fallback(point, compute, attrs), "fallback"
                _bump(self.counters, "pool_worker_failures")
                future = None
                if self.usable and attempt < pool_retry_limit():
                    time.sleep(_RETRY_BACKOFF_S * (2 ** attempt))
                    attempt += 1
                    _bump(self.counters, "pool_retries")
                    _trace.event(
                        "pool.retry",
                        point=point,
                        attempt=attempt,
                        error=type(error).__name__,
                        **attrs,
                    )
                    # A dead worker breaks the whole ProcessPoolExecutor, so a
                    # retry replaces the shared pool; sibling futures of the old
                    # pool fail on their own result() calls and take their own
                    # recovery paths.
                    discard_shared_pool()
                    future = resubmit()
                if future is None:
                    self.mark_dead()
                    return self._fallback(point, compute, attrs), "fallback"
                continue
            return _unwrap(result), ("pooled_retry" if attempt else "pooled")

    def _fallback(self, point: str, compute: Callable, attrs):
        _bump(self.counters, "pool_inprocess_fallbacks")
        with _trace.trace_span("pool.fallback", point=point, **attrs):
            return compute()


class SubtreeExecutor(PoolScheduler):
    """Submits one search context's subtree items.

    The context payload is pickled once per :meth:`bind` and its bytes
    shipped with every item; workers unpickle it on first sight and cache
    the built search per context token, so steady-state per-item cost is
    the item itself plus a bytes copy over the pipe.
    """

    def __init__(self, workers: int, counters: Optional[Dict[str, int]] = None) -> None:
        super().__init__(workers, counters)
        self._token: Optional[Tuple[int, int]] = None
        self._blob: Optional[bytes] = None
        self._node_budget: Optional[int] = None

    def bind(self, context_payload, node_budget: int) -> None:
        """Attach a search context and the per-item work budget."""
        self._token = _next_context_token()
        self._node_budget = node_budget
        try:
            self._blob = pickle.dumps(context_payload, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError, RecursionError):
            # Unpicklable context: a deterministic payload property, so
            # the pool path can never work for this search — fail fast to
            # in-process resolution, no retries.
            _bump(self.counters, "pool_payload_errors")
            self._blob = None
            self.usable = False

    def submit(self, item):
        """A future for *item*, or ``None`` when the pool is unusable."""
        if self._blob is None:
            return None
        return self.dispatch(
            "subtree", _subtree_worker, self._token, self._blob, item, self._node_budget
        )


def finished_value(future):
    """The value of *future* if it already finished cleanly, else ``None``.

    Never waits and folds nothing into the coordinator: the item is
    still resolved (once) through :meth:`PoolScheduler.resolve` later.
    """
    if future is None or not future.done() or future.cancelled():
        return None
    if future.exception() is not None:
        return None
    result = future.result()
    return result.value if isinstance(result, Shipped) else result


# ----------------------------------------------------------------------
# The decomposed witness search: one deterministic fold
# ----------------------------------------------------------------------
def _merge_stats(into: Dict[str, int], stats: Optional[Dict[str, int]]) -> None:
    if stats:
        for key, value in stats.items():
            into[key] = into.get(key, 0) + value


def _expiry_errors(clock) -> Tuple:
    """What a search raises when *clock* runs out mid-item (nothing without one)."""
    if clock is None:
        return ()
    from repro.core.budget import BudgetExpired

    return (BudgetExpired,)


def _resolve_item(search, item, future, budget, executor, extra_stats, horizon):
    """Resolve one item to ``(status, steps, count)`` relative to its node.

    ``status`` is ``"witness"`` (``steps`` = path suffix from the item's
    node, ``count`` = local exploration count at which it was found),
    ``"aborted"`` (the remaining exploration budget *horizon* was hit
    inside the subtree — the sequential search would have aborted there)
    or ``"done"`` (``count`` = the subtree's total exploration count).
    Overflowed items are re-split via :meth:`expand_item` and folded
    recursively — a deterministic decision, see the module docstring.

    In-process runs receive *horizon* as a hard cap so they stop at the
    exact crossing point; pooled workers ran with the loose global cap
    (their entry offset was unknown at dispatch), so their results are
    re-checked against the horizon here — a witness located beyond it is
    rejected by the caller, making both placements land on the same
    result.
    """

    def inprocess():
        with _trace.trace_span("emptiness.subtree", inprocess=True, budget=budget):
            return search.run_subtree(item, budget, hard_limit=horizon)

    if future is None:
        outcome = inprocess()
    else:
        outcome, provenance = executor.resolve(
            future, "subtree", lambda: executor.submit(item), inprocess
        )
        if provenance != "fallback":
            _merge_stats(extra_stats, outcome.stats)
            _bump(extra_stats, "subtree_pooled_items")
    _bump(extra_stats, "subtree_items")
    if outcome.status == "overflow":
        _bump(extra_stats, "subtree_overflows")
        expansion = search.expand_item(item)
        return _fold_expansion(search, expansion, budget, executor, extra_stats, horizon)
    if outcome.status == "witness":
        if outcome.explored > horizon:
            # The sequential search crosses max_paths before reaching
            # this candidate (a loose-cap worker ran past the horizon).
            return ("aborted", None, outcome.explored)
        return ("witness", outcome.steps, outcome.explored)
    if outcome.status == "aborted" or outcome.explored > horizon:
        return ("aborted", None, outcome.explored)
    return ("done", None, outcome.explored)


def _fold_expansion(
    search, expansion, budget, executor, extra_stats, horizon, clock=None, initial_total=0
):
    """Deterministically fold one expanded node level.

    Items are submitted to the pool eagerly (they are independent) but
    consumed strictly in canonical DFS order, reconstructing the exact
    sequential interleaving of the expansion's own candidate counts
    (``record.explored_at``) with the subtree totals.  *horizon* is the
    remaining global exploration budget relative to this node: the walk
    stops at the first count that crosses it, exactly where the
    sequential search aborts — items past that point are never resolved
    (their futures are cancelled).  Returns ``(status, steps, count)``
    relative to the expansion's root node: for a witness, ``count`` is
    the exploration count at which the sequential search would have
    found it; for ``done``, the level's total count.  An inline witness
    found by the expansion itself comes after every exported record,
    exactly as in the sequential candidate loop (the loop stops at the
    accepting candidate, so all exports precede it).

    With a started *clock* (the anytime mode) the walk consults the
    clock before each record (both budget axes) and charges each
    record's resolved count, and an ambient ``BudgetExpired`` raised
    mid-item (the wall-clock hook inside the DFS) abandons that item —
    items are pure functions of ``(item, budget)``, so the abandoned
    record simply re-runs in full on resume.  *status* then gains the
    value ``"interrupted"``, with ``steps`` holding the records still to
    fold and ``count`` the total folded so far — what a checkpoint needs
    to restart the round.  A resumed round passes the checkpoint's
    remaining records as *expansion.records* and its completed total as
    *initial_total*: ``record.explored_at`` offsets are absolute within
    the round, so every abort/witness decision lands exactly where the
    uninterrupted fold would have landed.
    """
    expired = _expiry_errors(clock)
    records = expansion.records
    futures = {}
    if executor is not None and executor.usable:
        for index, record in enumerate(records):
            future = executor.submit(record.item)
            if future is None:
                break
            futures[index] = future
    total = initial_total
    try:
        for index, record in enumerate(records):
            entry = record.explored_at + total
            if entry > horizon:
                # The crossing happened in the expansion's own candidate
                # increments (or an earlier subtree): the sequential
                # search aborts before entering this item.
                return ("aborted", None, entry)
            if clock is not None and clock.expired():
                return ("interrupted", records[index:], total)
            try:
                status, steps, count = _resolve_item(
                    search,
                    record.item,
                    futures.pop(index, None),
                    budget,
                    executor,
                    extra_stats,
                    horizon - entry,
                )
            except expired:
                return ("interrupted", records[index:], total)
            if clock is not None:
                clock.charge(count)
            if status == "witness":
                return ("witness", record.prefix + steps, entry + count)
            if status == "aborted":
                return ("aborted", None, entry + count)
            total += count
        if expansion.witness_steps is not None:
            return ("witness", expansion.witness_steps, expansion.witness_at + total)
        return ("done", None, expansion.explored + total)
    finally:
        for future in futures.values():
            future.cancel()


def run_decomposed_search(
    search, *, clock=None, checkpoint=None, split_budget=None, executor=None, context=None
):
    """Trunk + deterministic fold execution of a decomposed witness search.

    *search* exposes the trunk/worker protocol of
    :class:`repro.automata.emptiness._WitnessSearch`
    (``run_round_exporting`` / ``expand_item`` / ``run_subtree``, plus
    ``max_length`` / ``max_paths`` / ``stats``).  Each iterative-deepening
    round expands the root in the coordinator, exporting every viable
    depth-1 child as a work item; items resolve via *executor* (when
    bound and usable) or in-process, then fold in canonical order.

    Returns ``(steps or None, explored, exhausted, stats, checkpoint)`` —
    identical regardless of where items ran.  The ``max_paths`` horizon
    is enforced by the fold exactly as the sequential search enforces it:
    the first exploration count beyond the cap aborts the search with
    ``explored == max_paths + 1``, and witnesses located beyond the
    horizon are discarded.

    Under a started :class:`~repro.core.budget.BudgetClock` *clock* the
    search is anytime: it stops at the first record boundary where the
    budget is spent (or mid-item, when the wall-clock hook fires inside
    the DFS — that item is abandoned and re-run in full on resume) and
    returns a non-``None`` *checkpoint*
    (:class:`repro.automata.emptiness.ChainCheckpoint`).  Pass it back via
    ``checkpoint=`` — on a **fresh** search object built from the same
    payload — to continue exactly where it stopped.  Resume-to-completion
    is field-identical to the uninterrupted run: completed records were
    charged at their boundaries, the interrupted record re-runs in full,
    and a round whose trunk expansion had not finished restarts from its
    beginning (trunk memoization never prunes across rounds, so the
    re-run reproduces the original counts).  Without a clock the
    checkpoint is always ``None``.
    """
    expired = _expiry_errors(clock)
    budget = int(split_budget) if split_budget else subtree_split_budget()
    if executor is not None and context is not None:
        executor.bind(context, budget)
    # The executor's counters are the one sink for this search's
    # subtree and pool counters (an executor serves a single search).
    extra_stats: Dict[str, int] = {} if executor is None else executor.counters
    if executor is not None and not executor.usable:
        executor = None
    max_paths = search.max_paths
    base = checkpoint.base_explored if checkpoint is not None else 0
    start_depth = checkpoint.depth_limit if checkpoint is not None else 1

    def _done(steps, explored, exhausted):
        return (
            steps,
            explored,
            exhausted,
            _final_stats(search, extra_stats),
            None,
        )

    def _interrupted(depth_limit, pending, total, expansion):
        from repro.automata.emptiness import ChainCheckpoint

        return (
            None,
            base + total,
            False,
            _final_stats(search, extra_stats),
            ChainCheckpoint(
                depth_limit=depth_limit,
                pending=None if pending is None else tuple(pending),
                round_total=total,
                round_witness_steps=(
                    None if expansion is None else expansion.witness_steps
                ),
                round_witness_at=0 if expansion is None else expansion.witness_at,
                round_explored=0 if expansion is None else expansion.explored,
                base_explored=base,
            ),
        )

    if clock is not None:
        search.interrupt = clock.interrupt_check
    try:
        for depth_limit in range(start_depth, search.max_length + 1):
            expansion = None
            initial_total = 0
            if checkpoint is not None and checkpoint.pending is not None:
                from repro.automata.emptiness import RoundExpansion

                expansion = RoundExpansion(
                    records=checkpoint.pending,
                    witness_steps=checkpoint.round_witness_steps,
                    witness_at=checkpoint.round_witness_at,
                    explored=checkpoint.round_explored,
                )
                initial_total = checkpoint.round_total
            checkpoint = None
            if expansion is None:
                # ``pending=None`` marks a round whose trunk expansion has
                # not completed; resume re-expands it from the beginning.
                if clock is not None and clock.expired():
                    return _interrupted(depth_limit, None, 0, None)
                try:
                    expansion = search.run_round_exporting(depth_limit)
                except expired:
                    return _interrupted(depth_limit, None, 0, None)
            status, steps, count = _fold_expansion(
                search,
                expansion,
                budget,
                executor,
                extra_stats,
                max_paths - base,
                clock,
                initial_total,
            )
            if status == "interrupted":
                return _interrupted(depth_limit, steps, count, expansion)
            if status == "witness":
                absolute = base + count
                if absolute <= max_paths:
                    return _done(steps, absolute, False)
                # The sequential search would have aborted before
                # reaching this candidate.
                return _done(None, max_paths + 1, False)
            if status == "aborted" or base + count > max_paths:
                return _done(None, max_paths + 1, False)
            if clock is not None:
                clock.charge(expansion.explored)
            base += count
        return _done(None, base, True)
    finally:
        if clock is not None:
            search.interrupt = None


def _final_stats(search, extra_stats: Dict[str, int]) -> Dict[str, int]:
    stats = dict(search.stats)
    _merge_stats(stats, extra_stats)
    return stats
