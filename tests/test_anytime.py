"""Tests for the anytime decision layer (PR 6).

Three load-bearing properties:

* **soundness** — a budget never changes a completed verdict; on expiry
  the procedures return *tagged* partial results (``unknown`` emptiness
  verdicts with a resume frontier, ``interrupted`` bounded checks), never
  a silently wrong answer;
* **resumability** — ``automaton_emptiness(resume_from=frontier)``
  continues exactly where the interrupted call stopped: the resumed
  result is field-identical to the uninterrupted run, including across
  pickle round-trips of the frontier and across chains of many
  interrupt/resume hops;
* **determinism** — the node cap counts candidate steps and expires
  after exactly that many, so interruption points are reproducible
  (which is what makes the resume property testable at all).

The engine-level tests pin the batch semantics: budget-aware kinds
(emptiness, bounded check) always run — even on an expired clock — and
come back tagged; other kinds are skipped with provenance ``"deadline"``;
partial values are never memoized; an explicit per-task budget is part of
the fingerprint so capped and uncapped requests never collide.
"""

from __future__ import annotations

import pickle

import pytest

from repro.automata.emptiness import (
    EmptinessResult,
    ResumeFrontier,
    _WitnessSearch,
    automaton_emptiness,
)
from repro.automata.library import containment_automaton, ltr_automaton
from repro.core import properties
from repro.core.bounded_check import (
    Bounds,
    bounded_satisfiability,
    bounded_satisfiability_legacy,
)
from repro.core.budget import INTERRUPT_STRIDE, Budget
from repro.core.solver import AccLTLSolver
from repro.engine import DecisionEngine, bounded_check_task, emptiness_task
from repro.engine.engine import relevance_task
from repro.workloads.directory import (
    directory_access_schema,
    join_query,
    resident_names_query,
)
from repro.workloads.scenarios import _synthetic_scenario, standard_scenarios


class FakeClock:
    """A manually advanced wall clock for deterministic deadline tests."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# Budget / BudgetClock unit behaviour
# ---------------------------------------------------------------------------
class TestBudget:
    def test_default_budget_is_unbounded_and_never_expires(self):
        clock = Budget().start(FakeClock())
        clock.charge(10**9)
        assert Budget().unbounded
        assert not clock.expired()
        assert clock.remaining_s() is None

    def test_node_cap_expires_at_exact_boundary(self):
        clock = Budget(node_cap=5).start(FakeClock())
        clock.charge(4)
        assert not clock.expired()
        clock.charge(1)
        assert clock.node_cap_hit()
        assert clock.expired()
        assert clock.charged == 5

    def test_deadline_uses_injected_clock(self):
        fake = FakeClock()
        clock = Budget(deadline_s=2.0).start(fake)
        assert not clock.deadline_hit()
        assert clock.remaining_s() == pytest.approx(2.0)
        fake.advance(1.5)
        assert clock.remaining_s() == pytest.approx(0.5)
        fake.advance(1.0)
        assert clock.deadline_hit()
        assert clock.remaining_s() == 0.0

    def test_remaining_budget_subtracts_charged_work(self):
        fake = FakeClock()
        clock = Budget(deadline_s=4.0, node_cap=10).start(fake)
        fake.advance(1.0)
        clock.charge(3)
        remaining = clock.remaining_budget()
        assert remaining == Budget(deadline_s=pytest.approx(3.0), node_cap=7)
        clock.charge(100)
        assert clock.remaining_budget().node_cap == 0

    def test_budget_is_hashable_and_picklable(self):
        budget = Budget(deadline_s=1.5, node_cap=7)
        assert hash(budget) == hash(Budget(deadline_s=1.5, node_cap=7))
        assert pickle.loads(pickle.dumps(budget)) == budget


# ---------------------------------------------------------------------------
# Budgeted bounded satisfiability
# ---------------------------------------------------------------------------
def _bounded_check_workload():
    scenario = next(s for s in standard_scenarios() if s.name == "directory")
    vocabulary = AccLTLSolver(scenario.access_schema).vocabulary
    formula = properties.ltr_formula(
        vocabulary, scenario.probe_access, scenario.query_one
    )
    return vocabulary, formula, Bounds(max_path_length=3, max_paths=2000)


class TestBoundedCheckBudget:
    def test_node_cap_interrupts_at_exactly_cap_paths(self):
        vocabulary, formula, bounds = _bounded_check_workload()
        result = bounded_satisfiability_legacy(
            vocabulary, formula, bounds, budget=Budget(node_cap=5)
        )
        assert result.interrupted
        assert not result.satisfiable
        assert result.witness is None
        assert not result.exhausted
        assert result.paths_explored == 5

    def test_zero_deadline_interrupts_before_any_path(self):
        vocabulary, formula, bounds = _bounded_check_workload()
        result = bounded_satisfiability_legacy(
            vocabulary, formula, bounds, budget=Budget(deadline_s=0.0)
        )
        assert result.interrupted
        assert result.paths_explored == 0

    def test_huge_budget_is_field_identical_to_unbudgeted(self):
        vocabulary, formula, bounds = _bounded_check_workload()
        plain = bounded_satisfiability_legacy(vocabulary, formula, bounds)
        budgeted = bounded_satisfiability_legacy(
            vocabulary, formula, bounds, budget=Budget(deadline_s=3600, node_cap=10**9)
        )
        assert budgeted == plain
        assert not budgeted.interrupted

    def test_wrapper_threads_budget_through_engine(self):
        vocabulary, formula, bounds = _bounded_check_workload()
        result = bounded_satisfiability(
            vocabulary, formula, bounds, budget=Budget(node_cap=3)
        )
        assert result.interrupted
        assert result.paths_explored == 3


# ---------------------------------------------------------------------------
# Anytime emptiness: UNKNOWN verdicts and resumable frontiers
# ---------------------------------------------------------------------------
NONEMPTY = "nonempty_ltr"
EMPTY = "empty_containment"
#: A containment automaton whose witness the memoised search finds after
#: 94 paths, while the unmemoised one gives up at a cap of 120.
CAPPED = "capped_containment"


def _emptiness_workload(name):
    if name == CAPPED:
        scenario = _synthetic_scenario(seed=1, num_relations=3, name="synthetic-1")
        vocab = AccLTLSolver(scenario.access_schema).vocabulary
        automaton = containment_automaton(
            vocab, scenario.query_one, scenario.query_two, grounded=False
        )
        return automaton, vocab
    directory = directory_access_schema()
    vocab = AccLTLSolver(directory).vocabulary
    if name == NONEMPTY:
        probe = directory.access("AcM1", ("Smith",))
        automaton = ltr_automaton(vocab, probe, join_query())
    else:
        automaton = containment_automaton(
            vocab, join_query(), resident_names_query(), grounded=False
        )
    return automaton, vocab


class TestAnytimeEmptiness:
    def test_node_cap_returns_tagged_unknown_with_frontier(self):
        automaton, vocab = _emptiness_workload(NONEMPTY)
        result = automaton_emptiness(automaton, vocab, budget=Budget(node_cap=1))
        assert isinstance(result, EmptinessResult)
        assert result.unknown
        assert result.verdict == "UNKNOWN"
        assert result.frontier is not None
        assert not result.exhausted
        assert result.witness is None

    def test_completed_budgeted_run_is_not_unknown(self):
        automaton, vocab = _emptiness_workload(NONEMPTY)
        result = automaton_emptiness(
            automaton, vocab, budget=Budget(node_cap=10**9)
        )
        assert not result.unknown
        assert result.frontier is None

    def test_frontier_pickle_round_trip_resumes_identically(self):
        automaton, vocab = _emptiness_workload(NONEMPTY)
        kwargs = dict(memoize=False)
        oracle = automaton_emptiness(automaton, vocab, **kwargs)
        unknown = automaton_emptiness(
            automaton, vocab, budget=Budget(node_cap=1), **kwargs
        )
        assert unknown.unknown
        frontier = pickle.loads(pickle.dumps(unknown.frontier))
        assert isinstance(frontier, ResumeFrontier)
        resumed = automaton_emptiness(
            automaton, vocab, resume_from=frontier, **kwargs
        )
        assert resumed == oracle
        assert not resumed.unknown

    @pytest.mark.parametrize("workload", [NONEMPTY, EMPTY])
    @pytest.mark.parametrize("memoize", [False, True])
    def test_resume_matches_uninterrupted_run(self, workload, memoize):
        """The tentpole property: interrupt anywhere, resume, get the
        field-identical uninterrupted result."""
        automaton, vocab = _emptiness_workload(workload)
        kwargs = dict(memoize=memoize)
        oracle = automaton_emptiness(automaton, vocab, **kwargs)
        caps = sorted({1, 2, 3, max(1, oracle.paths_explored // 2)})
        for cap in caps:
            partial = automaton_emptiness(
                automaton, vocab, budget=Budget(node_cap=cap), **kwargs
            )
            if not partial.unknown:
                # cap exceeded the whole search: must equal the oracle
                assert partial == oracle
                continue
            resumed = automaton_emptiness(
                automaton, vocab, resume_from=partial.frontier, **kwargs
            )
            assert resumed == oracle, (workload, memoize, cap)
            assert resumed.verdict == oracle.verdict

    @pytest.mark.parametrize("workload", [NONEMPTY, EMPTY])
    def test_chained_resume_hops_reach_the_oracle(self, workload):
        """Resuming with another tiny budget, repeatedly, still converges
        to the uninterrupted result — no work is lost or repeated across
        an arbitrary number of interruptions."""
        automaton, vocab = _emptiness_workload(workload)
        # The Datalog precheck can settle the EMPTY workload before the
        # search charges a single node; disable it so every hop does work.
        kwargs = dict(memoize=False, use_datalog_precheck=False)
        oracle = automaton_emptiness(automaton, vocab, **kwargs)
        result = automaton_emptiness(
            automaton, vocab, budget=Budget(node_cap=1), **kwargs
        )
        hops = 0
        while result.unknown:
            hops += 1
            assert hops < oracle.paths_explored
            result = automaton_emptiness(
                automaton,
                vocab,
                resume_from=result.frontier,
                budget=Budget(node_cap=1),
                **kwargs,
            )
        assert result == oracle
        # Every call explores exactly one candidate step.
        assert hops == oracle.paths_explored - 1

    @pytest.mark.parametrize("memoize", [True, False])
    def test_resume_at_the_max_paths_boundary(self, memoize):
        """Interrupting next to the cap resumes to the capped result.

        At ``max_paths=120`` the memoised search finds its witness after
        94 paths, and the unmemoised one gives up undecided at 121.
        """
        automaton, vocab = _emptiness_workload(CAPPED)
        kwargs = dict(memoize=memoize, max_paths=120)
        oracle = automaton_emptiness(automaton, vocab, **kwargs)
        if memoize:
            assert oracle.witness is not None and oracle.paths_explored == 94
        else:
            assert oracle.empty and not oracle.exhausted
            assert oracle.paths_explored == 121
        for cap in sorted({1, 60, 93, 94, 119, 120, 121}):
            partial = automaton_emptiness(
                automaton, vocab, budget=Budget(node_cap=cap), **kwargs
            )
            if not partial.unknown:
                assert cap >= oracle.paths_explored
                assert partial == oracle
                continue
            assert cap < oracle.paths_explored
            assert partial.paths_explored == cap
            frontier = pickle.loads(pickle.dumps(partial.frontier))
            resumed = automaton_emptiness(
                automaton, vocab, resume_from=frontier, **kwargs
            )
            assert resumed == oracle, cap

    def test_deadline_is_read_every_stride_candidates(self):
        """The search reads the wall clock every INTERRUPT_STRIDE candidates."""
        automaton, vocab = _emptiness_workload(EMPTY)
        search = _WitnessSearch(
            automaton.minimise(),
            vocab,
            vocab.access_schema.empty_instance(),
            max_length=4,
            max_response_size=2,
            max_paths=10**6,
            memoize=False,
        )
        readings = []

        def clock():
            # Start, then reads at 0 and INTERRUPT_STRIDE candidates are
            # on time; the third read finds the deadline passed.
            readings.append(None)
            return 0.0 if len(readings) <= 3 else 10.0

        witness, explored, exhausted, _, checkpoint = search.run(
            Budget(deadline_s=1.0).start(clock)
        )
        assert witness is None and not exhausted
        assert checkpoint is not None
        assert explored == checkpoint.explored == 2 * INTERRUPT_STRIDE
        assert len(readings) == 4

    def test_frontier_rejects_mismatched_call(self):
        automaton, vocab = _emptiness_workload(NONEMPTY)
        other, _ = _emptiness_workload(EMPTY)
        unknown = automaton_emptiness(
            automaton, vocab, budget=Budget(node_cap=1), memoize=False
        )
        assert unknown.unknown
        with pytest.raises(ValueError, match="does not match"):
            automaton_emptiness(
                other, vocab, resume_from=unknown.frontier, memoize=False
            )
        with pytest.raises(ValueError, match="does not match"):
            # same automaton, different search parameters
            automaton_emptiness(
                automaton,
                vocab,
                resume_from=unknown.frontier,
                memoize=False,
                max_paths=123,
            )

    def test_zero_deadline_returns_unknown(self):
        automaton, vocab = _emptiness_workload(NONEMPTY)
        result = automaton_emptiness(
            automaton, vocab, budget=Budget(deadline_s=0.0)
        )
        assert result.unknown
        assert result.frontier is not None


# ---------------------------------------------------------------------------
# Engine batch semantics under a budget
# ---------------------------------------------------------------------------
class TestEngineBatchBudget:
    def _bounded_task(self, budget=None):
        vocabulary, formula, bounds = _bounded_check_workload()
        return bounded_check_task(vocabulary, formula, bounds, budget=budget)

    def test_budget_aware_kinds_run_even_on_expired_clock(self):
        engine = DecisionEngine(parallel=False)
        automaton, vocab = _emptiness_workload(NONEMPTY)
        tasks = [
            self._bounded_task(),
            emptiness_task(automaton, vocab, memoize=False),
        ]
        results = engine.run_batch(tasks, budget=Budget(deadline_s=0.0))
        assert results[0].value.interrupted
        assert results[0].provenance == "computed"
        assert results[1].value.unknown
        assert results[1].value.frontier is not None
        assert engine.stats()["deadline_tasks"] == 0

    def test_non_aware_kinds_skip_with_deadline_provenance(self):
        engine = DecisionEngine(parallel=False)
        schema = directory_access_schema()
        access = schema.access("AcM1", ("Smith",))
        task = relevance_task(
            schema, access, join_query(), require_boolean_access=False
        )
        (result,) = engine.run_batch([task], budget=Budget(deadline_s=0.0))
        assert result.value is None
        assert result.provenance == "deadline"
        assert engine.stats()["deadline_tasks"] == 1

    def test_partial_values_are_never_memoized(self):
        engine = DecisionEngine(parallel=False)
        (partial,) = engine.run_batch(
            [self._bounded_task()], budget=Budget(deadline_s=0.0)
        )
        assert partial.value.interrupted
        assert engine.stats()["memo_entries"] == 0
        # the same task re-run without a budget computes the full answer
        (full,) = engine.run_batch([self._bounded_task()])
        assert not full.value.interrupted
        assert full.provenance == "computed"
        assert engine.stats()["memo_entries"] == 1

    def test_explicit_budget_is_part_of_the_fingerprint(self):
        engine = DecisionEngine(parallel=False)
        capped = self._bounded_task(budget=Budget(node_cap=2))
        uncapped = self._bounded_task()
        assert capped.key != uncapped.key
        results = engine.run_batch([capped, uncapped])
        assert engine.stats()["batch_dedup_hits"] == 0
        assert results[0].value.interrupted
        assert not results[1].value.interrupted

    def test_iter_results_yields_memo_hits_first(self):
        engine = DecisionEngine(parallel=False)
        automaton, vocab = _emptiness_workload(NONEMPTY)
        warm = emptiness_task(automaton, vocab, memoize=False)
        engine.run_batch([warm])
        cold = self._bounded_task()
        order = list(engine.iter_results([cold, warm]))
        assert [index for index, _ in order] == [1, 0]
        assert order[0][1].provenance == "memo"
        assert order[1][1].provenance == "computed"

    def test_streaming_dedup_follows_its_leader(self):
        engine = DecisionEngine(parallel=False)
        tasks = [self._bounded_task() for _ in range(3)]
        order = list(engine.iter_results(tasks))
        assert [r.provenance for _, r in order] == ["computed", "dedup", "dedup"]
        assert order[0][1].value == order[1][1].value == order[2][1].value

    def test_generous_batch_budget_changes_nothing(self):
        automaton, vocab = _emptiness_workload(NONEMPTY)
        plain_engine = DecisionEngine(parallel=False)
        budget_engine = DecisionEngine(parallel=False)
        tasks = lambda: [
            self._bounded_task(),
            emptiness_task(automaton, vocab, memoize=False),
        ]
        plain = plain_engine.run_batch(tasks())
        budgeted = budget_engine.run_batch(
            tasks(), budget=Budget(deadline_s=3600.0)
        )
        assert [r.value for r in plain] == [r.value for r in budgeted]
        assert not budgeted[0].value.interrupted
        assert not budgeted[1].value.unknown
