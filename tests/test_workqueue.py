"""Unit tests for the shared-pool stub of :mod:`repro.store.workqueue`.

No library code uses the pool; the repository benchmark warms and stops
it.  The pool is reused and grown, never rebuilt for a caller it already
fits, and discarding it clears the state the benchmark reads.
"""

from __future__ import annotations

from repro.store import workqueue


class TestSharedPool:
    def test_pool_is_reused_and_grows(self):
        workqueue.discard_shared_pool()
        try:
            first = workqueue.shared_pool(1)
            again = workqueue.shared_pool(1)
            assert first is again
            grown = workqueue.shared_pool(2)
            assert grown is not first
            assert workqueue.shared_pool(1) is grown  # wide enough already
        finally:
            workqueue.discard_shared_pool()

    def test_discard_clears_state(self):
        workqueue.discard_shared_pool()
        pool = workqueue.shared_pool(1)
        assert pool is not None
        workqueue.discard_shared_pool()
        assert workqueue._POOL is None
        assert workqueue._POOL_WORKERS == 0
