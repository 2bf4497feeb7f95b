"""The one pool scheduler: every pooled item is submitted and resolved here.

The independent reduction tasks of a :class:`~repro.engine.DecisionEngine`
batch share one persistent process pool, behind an affinity-aware cost
gate (:func:`available_cpus`, :func:`min_dispatch_cost`) and one sizing
rule (:func:`worker_count`).  Every item goes through the same three
pieces: one worker entry (:func:`_run_item`: configure tracing, fire the
scripted fault, run, capture spans and the metrics-registry counter
delta), one result envelope (:class:`Shipped`) and one resolver
(:meth:`PoolScheduler.resolve`: wait, classify the failure, retry on a
rebuilt pool, fall back in-process).  A caller only chooses *what* to
run and *what* the in-process equivalent is; results never depend on
where an item ran.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from typing import Callable, Dict, Optional, Tuple

# NOTE: repro.store is initialised very early (the query plan cache pulls
# in the snapshot store), so this module must not import the repro.core
# package at module level.  :mod:`repro.obs` is safe: it is
# dependency-free within the library.
from repro.obs import env as envknobs
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.store import faults

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

#: Environment override for the dispatch cost gate (see
#: :func:`min_dispatch_cost`).
PARALLEL_MIN_COST_ENV = envknobs.PARALLEL_MIN_COST_ENV

#: Default for :func:`min_dispatch_cost`: estimated-work floor below
#: which a batch stays in process.  The unit is the tasks' ``cost_hint``
#: — roughly ``automaton size × exploration budget``; the default clears
#: comfortably for multi-second batches and blocks the millisecond-scale
#: ones where pool latency dominates.
DEFAULT_MIN_DISPATCH_COST = envknobs.DEFAULT_MIN_DISPATCH_COST

#: Upper bound on workers regardless of core count: batches are small
#: and each worker pays a full search setup, so very wide pools only add
#: startup latency.
_MAX_WORKERS_CAP = 8

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


def pool_retry_limit() -> int:
    """Bounded retries for transient worker failures (env override or default)."""
    return envknobs.non_negative_int(POOL_RETRIES_ENV, DEFAULT_POOL_RETRIES)


def pool_item_timeout() -> Optional[float]:
    """Per-item pooled result timeout in seconds (``None`` = no timeout)."""
    return envknobs.positive_float(POOL_ITEM_TIMEOUT_ENV, None)


def min_dispatch_cost() -> int:
    """Estimated-work floor for pool dispatch (env override or default)."""
    return envknobs.non_negative_int(PARALLEL_MIN_COST_ENV, DEFAULT_MIN_DISPATCH_COST)


# ----------------------------------------------------------------------
# Sizing
# ----------------------------------------------------------------------
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


def worker_count(num_units: int, max_workers: Optional[int]) -> int:
    """Pool size for *num_units* independent units of work."""
    if max_workers is not None:
        # An explicit worker count is honoured as given (minus idle
        # workers): tests use it to exercise the real pool on single-core
        # machines, operators to oversubscribe or restrict deliberately.
        return max(1, min(num_units, max_workers))
    return max(1, min(num_units, available_cpus(), _MAX_WORKERS_CAP))


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
# otherwise be paid by every batch.  The pool is replaced when a caller
# needs more workers than it has, and discarded on any failure (the next
# call recreates it).
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

    *point* names the fault-injection point (``task``).  *trace_on*
    travels with every submission: persistent workers inherit whatever
    tracing flag the coordinator had at fork time, so the entry
    reconfigures :mod:`repro.obs.trace` per item.
    """
    _trace.configure_worker(trace_on)
    base = _metrics.REGISTRY.counters_snapshot()
    faults.fire(point)
    value = fn(*args)
    spans = tuple(_trace.take_spans()) if trace_on else None
    counters = _metrics.REGISTRY.counters_delta(base)
    return Shipped(value, spans or None, counters or None)


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

    *workers* sizes the shared pool (:func:`worker_count`).
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
