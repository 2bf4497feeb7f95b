"""Unit tests for the pool scheduler of :mod:`repro.store.workqueue`.

The shared pool is reused and grown, never rebuilt for a caller it
already fits, and a pooled item whose worker fails is computed in
process.  The scheduler's behaviour on real worker faults has its own
suite (``tests/test_faults.py``).
"""

from __future__ import annotations

from repro.store import workqueue


class TestExecutorFailureFallback:
    def test_broken_future_falls_back_in_process(self, monkeypatch):
        monkeypatch.setenv(workqueue.POOL_RETRIES_ENV, "0")

        class FailingFuture:
            def result(self):
                raise OSError("worker died")

            def cancel(self):
                pass

        scheduler = workqueue.PoolScheduler(workers=1)
        value, provenance = scheduler.resolve(
            FailingFuture(), "chain", lambda: None, lambda: "computed"
        )
        assert (value, provenance) == ("computed", "fallback")
        assert scheduler.counters == {
            "pool_worker_failures": 1,
            "pool_inprocess_fallbacks": 1,
        }
        # The failure marks the scheduler dead: later items stay in process.
        assert not scheduler.usable
        assert scheduler.dispatch("chain", print) is None


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
