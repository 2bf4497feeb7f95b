"""A shared process pool that no library code submits to.

Every :class:`~repro.engine.DecisionEngine` batch runs in process.  This
module is kept for the repository benchmark only:
``perfbench/chains_pooled.py`` warms a pool with :func:`shared_pool` in
its set-up, and ``perfbench/harness.py::stop_pool`` reads :data:`_POOL`
and calls :func:`discard_shared_pool`.  Lint rule POOL001 keeps process
pools out of every other module.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def shared_pool(workers: int) -> ProcessPoolExecutor:
    """The shared pool, grown to at least *workers* workers."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS >= workers:
        return _POOL
    discard_shared_pool()
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context()
    _POOL = ProcessPoolExecutor(max_workers=workers, mp_context=context)
    _POOL_WORKERS = workers
    return _POOL


def discard_shared_pool() -> None:
    """Tear the shared pool down without waiting (the next call recreates it)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=False, cancel_futures=True)
    _POOL = None
    _POOL_WORKERS = 0
