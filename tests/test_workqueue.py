"""Unit tests for the subtree work-queue executor and its deterministic fold.

The fold of :mod:`repro.store.workqueue` must reconstruct the sequential
search's result exactly from per-subtree outcomes: first witness in
canonical order wins, exploration counts interleave trunk and subtree
work precisely, the ``max_paths`` horizon aborts at the exact crossing
point, and overflowed items re-split deterministically.  These tests
drive the fold with a *scripted* search object, so every code path is
pinned independently of the real witness search (which has its own
determinism suite in ``tests/test_parallel_chains.py``).
"""

from __future__ import annotations

import pytest

from repro.automata.emptiness import (
    ExportRecord,
    RoundExpansion,
    SubtreeItem,
    SubtreeOutcome,
)
from repro.store import workqueue


def _item(name: str, budget: int = 3) -> SubtreeItem:
    # SubtreeItem fields are opaque to the fold; sentinels suffice here.
    return SubtreeItem(frozenset({name}), name + "-snap", frozenset(), budget)


class ScriptedSearch:
    """A fake search whose trunk/worker protocol replays a script."""

    def __init__(self, rounds, outcomes, expansions=None, max_paths=10**9):
        self._rounds = rounds
        self._outcomes = outcomes
        self._expansions = expansions or {}
        self.max_length = len(rounds)
        self.max_paths = max_paths
        self.stats = {}
        self.subtree_calls = []

    def run_round_exporting(self, depth_limit):
        return self._rounds[depth_limit - 1]

    def run_subtree(self, item, node_budget=None, hard_limit=None):
        self.subtree_calls.append((item, node_budget, hard_limit))
        outcome = self._outcomes[item]
        if (
            hard_limit is not None
            and outcome.status == "done"
            and outcome.explored > hard_limit
        ):
            # Mirror the real search: a tight cap turns an
            # over-the-horizon run into a clean abort at the crossing.
            return SubtreeOutcome("aborted", None, hard_limit + 1)
        return outcome

    def expand_item(self, item):
        return self._expansions[item]


class ImmediateFuture:
    def __init__(self, value):
        self._value = value
        self.cancelled = False

    def result(self):
        return self._value

    def cancel(self):
        self.cancelled = True


class ScriptedExecutor(workqueue.PoolScheduler):
    """Pool stand-in: resolves submissions from the same script, inline."""

    def __init__(self, outcomes):
        super().__init__(workers=1)
        self._outcomes = outcomes
        self.submitted = []
        self.futures = []
        self.usable = True

    def bind(self, context, node_budget):
        self.node_budget = node_budget

    def mark_dead(self):
        self.usable = False

    def submit(self, item):
        self.submitted.append(item)
        future = ImmediateFuture(self._outcomes[item])
        self.futures.append(future)
        return future


def _round(records, witness_steps=None, witness_at=0, explored=0):
    return RoundExpansion(tuple(records), witness_steps, witness_at, explored)


class TestFoldBasics:
    def test_done_rounds_sum_exactly(self):
        a, b = _item("a"), _item("b")
        rounds = [
            _round([], explored=4),
            _round(
                [ExportRecord(a, ("step-a",), 2), ExportRecord(b, ("step-b",), 5)],
                explored=6,
            ),
        ]
        outcomes = {
            a: SubtreeOutcome("done", None, 10),
            b: SubtreeOutcome("done", None, 20),
        }
        search = ScriptedSearch(rounds, outcomes)
        steps, explored, exhausted, stats, _ = workqueue.run_decomposed_search(search)
        assert steps is None
        # Round 1: 4.  Round 2: trunk 6 + subtrees 10 + 20.
        assert explored == 4 + 6 + 10 + 20
        assert exhausted is True
        assert stats["subtree_items"] == 2

    def test_first_witness_in_canonical_order_wins(self):
        a, b, c = _item("a"), _item("b"), _item("c")
        rounds = [
            _round(
                [
                    ExportRecord(a, ("pre-a",), 1),
                    ExportRecord(b, ("pre-b",), 2),
                    ExportRecord(c, ("pre-c",), 3),
                ],
                explored=3,
            )
        ]
        outcomes = {
            a: SubtreeOutcome("done", None, 7),
            b: SubtreeOutcome("witness", ("suffix-b",), 5),
            c: SubtreeOutcome("witness", ("suffix-c",), 1),
        }
        search = ScriptedSearch(rounds, outcomes)
        steps, explored, exhausted, _, _ = workqueue.run_decomposed_search(search)
        # b precedes c in DFS order, so b's witness wins even though c's
        # is "cheaper"; the count interleaves trunk increments (2 at b's
        # export), a's total (7) and b's local position (5).
        assert steps == ("pre-b", "suffix-b")
        assert explored == 2 + 7 + 5
        assert exhausted is False
        # c was never resolved: the fold stopped at b.
        assert all(item is not c for item, _, _ in search.subtree_calls)

    def test_inline_trunk_witness_comes_after_all_records(self):
        a = _item("a")
        rounds = [
            _round(
                [ExportRecord(a, ("pre-a",), 1)],
                witness_steps=("inline",),
                witness_at=4,
                explored=4,
            )
        ]
        outcomes = {a: SubtreeOutcome("done", None, 9)}
        search = ScriptedSearch(rounds, outcomes)
        steps, explored, _, _, _ = workqueue.run_decomposed_search(search)
        assert steps == ("inline",)
        assert explored == 4 + 9

    def test_pooled_and_inprocess_agree(self):
        def build():
            a, b, c = _item("a"), _item("b"), _item("c")
            rounds = [
                _round(
                    [
                        ExportRecord(a, ("pre-a",), 1),
                        ExportRecord(b, ("pre-b",), 2),
                        ExportRecord(c, ("pre-c",), 3),
                    ],
                    explored=5,
                )
            ]
            outcomes = {
                a: SubtreeOutcome("done", None, 4),
                b: SubtreeOutcome("witness", ("suffix-b",), 2),
                c: SubtreeOutcome("done", None, 8),
            }
            return ScriptedSearch(rounds, outcomes), outcomes

        search_ip, _ = build()
        inprocess = workqueue.run_decomposed_search(search_ip)
        search_pool, outcomes = build()
        executor = ScriptedExecutor(outcomes)
        pooled = workqueue.run_decomposed_search(
            search_pool, executor=executor, context=("ctx",)
        )
        assert inprocess[:3] == pooled[:3]
        # All records were submitted eagerly; the one after the witness
        # was cancelled, not consumed.
        assert [i.states for i in executor.submitted] == [
            frozenset({"a"}),
            frozenset({"b"}),
            frozenset({"c"}),
        ]
        assert executor.futures[-1].cancelled


class TestHorizon:
    def test_abort_at_exact_crossing_inside_item(self):
        a, b = _item("a"), _item("b")
        rounds = [
            _round(
                [ExportRecord(a, ("pre-a",), 1), ExportRecord(b, ("pre-b",), 2)],
                explored=2,
            )
        ]
        outcomes = {
            a: SubtreeOutcome("done", None, 8),
            b: SubtreeOutcome("done", None, 100),
        }
        search = ScriptedSearch(rounds, outcomes, max_paths=50)
        steps, explored, exhausted, _, _ = workqueue.run_decomposed_search(search)
        assert steps is None
        assert explored == 51  # exactly max_paths + 1, like the sequential abort
        assert exhausted is False
        # b ran with the tight remaining budget, not the global cap:
        # entry = trunk 2 + a's 8 = 10, so 40 explorations remained.
        assert search.subtree_calls[-1][2] == 40

    def test_witness_beyond_horizon_is_discarded(self):
        a = _item("a")
        rounds = [_round([ExportRecord(a, ("pre-a",), 1)], explored=1)]
        outcomes = {a: SubtreeOutcome("witness", ("suffix",), 60)}
        search = ScriptedSearch(rounds, outcomes, max_paths=50)
        steps, explored, exhausted, _, _ = workqueue.run_decomposed_search(search)
        # The sequential search aborts at 51 before reaching the witness
        # a loose-cap worker located at position 1 + 60.
        assert steps is None
        assert explored == 51
        assert exhausted is False

    def test_witness_exactly_at_horizon_survives(self):
        a = _item("a")
        rounds = [_round([ExportRecord(a, ("pre-a",), 1)], explored=1)]
        outcomes = {a: SubtreeOutcome("witness", ("suffix",), 49)}
        search = ScriptedSearch(rounds, outcomes, max_paths=50)
        steps, explored, _, _, _ = workqueue.run_decomposed_search(search)
        assert steps == ("pre-a", "suffix")
        assert explored == 50

    def test_trunk_crossing_aborts_before_resolving_items(self):
        a = _item("a")
        rounds = [_round([ExportRecord(a, ("pre-a",), 80)], explored=80)]
        outcomes = {a: SubtreeOutcome("witness", ("suffix",), 1)}
        search = ScriptedSearch(rounds, outcomes, max_paths=50)
        steps, explored, _, _, _ = workqueue.run_decomposed_search(search)
        assert steps is None
        assert explored == 51
        assert search.subtree_calls == []  # never resolved past the crossing


class TestResplit:
    def test_overflow_expands_one_level_and_recounts(self):
        parent = _item("parent", budget=3)
        child1, child2 = _item("child1", budget=2), _item("child2", budget=2)
        rounds = [_round([ExportRecord(parent, ("pre-p",), 1)], explored=1)]
        outcomes = {
            parent: SubtreeOutcome("overflow", None, 999),
            child1: SubtreeOutcome("done", None, 4),
            child2: SubtreeOutcome("witness", ("suffix-2",), 3),
        }
        expansions = {
            parent: _round(
                [
                    ExportRecord(child1, ("pre-c1",), 2),
                    ExportRecord(child2, ("pre-c2",), 5),
                ],
                explored=6,
            )
        }
        search = ScriptedSearch(rounds, outcomes, expansions)
        steps, explored, _, stats, _ = workqueue.run_decomposed_search(search)
        # The overflowed attempt contributes nothing; the re-split
        # recounts: trunk 1 + (expansion increments 5 + child1 4 + local 3).
        assert steps == ("pre-p", "pre-c2", "suffix-2")
        assert explored == 1 + 5 + 4 + 3
        assert stats["subtree_overflows"] == 1
        assert stats["subtree_items"] == 3

    def test_nested_overflow(self):
        top = _item("top", budget=4)
        mid = _item("mid", budget=3)
        leaf = _item("leaf", budget=2)
        rounds = [_round([ExportRecord(top, ("s-top",), 1)], explored=1)]
        outcomes = {
            top: SubtreeOutcome("overflow", None, 0),
            mid: SubtreeOutcome("overflow", None, 0),
            leaf: SubtreeOutcome("done", None, 2),
        }
        expansions = {
            top: _round([ExportRecord(mid, ("s-mid",), 3)], explored=3),
            mid: _round([ExportRecord(leaf, ("s-leaf",), 4)], explored=4),
        }
        search = ScriptedSearch(rounds, outcomes, expansions)
        steps, explored, exhausted, stats, _ = workqueue.run_decomposed_search(search)
        assert steps is None
        assert explored == 1 + 3 + 4 + 2
        assert exhausted is True
        assert stats["subtree_overflows"] == 2


class TestExecutorFailureFallback:
    def test_broken_future_falls_back_in_process(self):
        a = _item("a")
        rounds = [_round([ExportRecord(a, ("pre-a",), 1)], explored=1)]
        outcomes = {a: SubtreeOutcome("done", None, 5)}

        class FailingFuture:
            def result(self):
                raise OSError("worker died")

            def cancel(self):
                pass

        class FailingExecutor(workqueue.PoolScheduler):
            usable = True

            def __init__(self):
                super().__init__(workers=1)

            def bind(self, context, node_budget):
                pass

            def mark_dead(self):
                self.usable = False

            def submit(self, item):
                return FailingFuture()

        search = ScriptedSearch(rounds, outcomes)
        steps, explored, exhausted, _, _ = workqueue.run_decomposed_search(
            search, executor=FailingExecutor(), context=("ctx",)
        )
        assert (steps, explored, exhausted) == (None, 1 + 5, True)
        # The fallback resolved the item in-process.
        assert [item for item, _, _ in search.subtree_calls] == [a]


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


class TestWorkerContextCache:
    def test_cache_is_bounded(self, monkeypatch):
        import pickle

        built = []

        def fake_search_from_payload(payload):
            built.append(payload)
            return ("search", payload)

        monkeypatch.setattr(
            "repro.automata.emptiness.search_from_payload", fake_search_from_payload
        )
        monkeypatch.setattr(workqueue, "_CONTEXT_CACHE", {})
        monkeypatch.setattr(workqueue, "_CONTEXT_ORDER", [])
        limit = workqueue._CONTEXT_CACHE_LIMIT
        for index in range(limit + 2):
            token = workqueue._next_context_token()
            blob = pickle.dumps(f"payload-{index}")
            workqueue._cached_search(token, blob)
            workqueue._cached_search(token, blob)  # second hit: no rebuild
        assert len(built) == limit + 2
        assert len(workqueue._CONTEXT_CACHE) == limit
        assert len(workqueue._CONTEXT_ORDER) == limit

    def test_tokens_are_unique(self):
        tokens = {workqueue._next_context_token() for _ in range(100)}
        assert len(tokens) == 100


class TestSubtreeExecutorBind:
    def test_unpicklable_context_marks_executor_dead(self):
        executor = workqueue.SubtreeExecutor(workers=2)
        executor.bind(lambda: None, 100)  # lambdas don't pickle
        assert not executor.usable
        assert executor.submit(_item("x")) is None
