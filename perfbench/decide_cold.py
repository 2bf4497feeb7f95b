"""``decide_cold``: a seeded stream of unique decisions, each computed.

A request is one decision — long-term relevance of an access,
containment under access patterns, or AccLTL satisfiability — sent as a
batch of two tasks through one :class:`~repro.engine.DecisionEngine`:
the decision procedure (automaton emptiness, or the Table 1 fragment
dispatcher) and the bounded reference checker.  Building the automaton
and the formula is part of the request.  The engine memo is off and
parallel dispatch is off, so every request runs the search, guard
evaluation, plan dispatch and the snapshot store.

The requests come from three sources: the paper's directory scenarios,
the Table 1 fragment suites, and seeded synthetic scenarios.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from harness import Recorder
import references

#: Path cap of both procedures; a capped search that does not exhaust is
#: *undecided*, never wrong.
MAX_PATHS = 300
BOUNDED_LENGTH = 4

#: Generator seeds of the synthetic scenarios a round draws from.
SYNTHETIC_POOL = tuple(range(1, 37))


@dataclass(frozen=True)
class Request:
    """One decision: *build* returns the batch's task list when called."""

    name: str
    kind: str  # "emptiness" or "accltl_sat": the first task's back-end
    build: Callable[[], list]
    expected: Optional[str] = None  # hand-written verdict, when known


def _scenario_requests(scenario, expected_ltr=None, expected_cont=None) -> List[Request]:
    from repro.automata.library import containment_automaton, ltr_automaton
    from repro.core import properties
    from repro.core.solver import AccLTLSolver

    schema = scenario.access_schema
    probe, q1, q2 = scenario.probe_access, scenario.query_one, scenario.query_two

    def ltr():
        vocabulary = AccLTLSolver(schema).vocabulary
        automaton = ltr_automaton(vocabulary, probe, q1)
        formula = properties.ltr_formula(vocabulary, probe, q1)
        return _decision_tasks(vocabulary, automaton, formula)

    def containment():
        vocabulary = AccLTLSolver(schema).vocabulary
        automaton = containment_automaton(vocabulary, q1, q2, grounded=False)
        formula = properties.containment_counterexample_formula(vocabulary, q1, q2)
        return _decision_tasks(vocabulary, automaton, formula)

    return [
        Request(f"ltr:{scenario.name}", "emptiness", ltr, expected_ltr),
        Request(f"containment:{scenario.name}", "emptiness", containment, expected_cont),
    ]


def _decision_tasks(vocabulary, automaton, formula) -> list:
    from repro.core.bounded_check import Bounds
    from repro.engine.engine import bounded_check_task, emptiness_task

    return [
        emptiness_task(automaton, vocabulary, max_paths=MAX_PATHS),
        bounded_check_task(
            vocabulary,
            formula,
            Bounds(max_path_length=BOUNDED_LENGTH, max_paths=MAX_PATHS),
        ),
    ]


def _sat_tasks(access_schema, formula) -> list:
    from repro.core.bounded_check import Bounds
    from repro.core.solver import AccLTLSolver
    from repro.engine.engine import accltl_sat_task, bounded_check_task

    vocabulary = AccLTLSolver(access_schema).vocabulary
    return [
        accltl_sat_task(
            access_schema,
            formula,
            max_paths=MAX_PATHS,
            bounded_path_length=BOUNDED_LENGTH,
        ),
        bounded_check_task(
            vocabulary,
            formula,
            Bounds(max_path_length=BOUNDED_LENGTH, max_paths=MAX_PATHS),
        ),
    ]


def table1_requests() -> List[Request]:
    """The Table 1 fragment suites on the directory schema."""
    from repro.automata.library import ltr_automaton
    from repro.core import properties
    from repro.core.formulas import land, lnext, lnot
    from repro.core.solver import AccLTLSolver
    from repro.core.undecidable import (
        implication_gadget,
        implication_gadget_with_inequalities,
    )
    from repro.relational.dependencies import (
        DisjointnessConstraint,
        FunctionalDependency,
        InclusionDependency,
    )
    from repro.relational.schema import make_schema
    from repro.workloads.directory import directory_access_schema, join_query

    def directory_formula(builder):
        def build():
            schema = directory_access_schema()
            vocabulary = AccLTLSolver(schema).vocabulary
            return _sat_tasks(schema, builder(vocabulary, schema))

        return build

    def gadget_formula(with_inequalities: bool):
        def build():
            base = make_schema({"R": 2, "S": 2})
            constraints = [
                FunctionalDependency("R", (0,), 1),
                InclusionDependency("R", (0,), "S", (0,)),
            ]
            sigma = FunctionalDependency("S", (0,), 1)
            make = (
                implication_gadget_with_inequalities
                if with_inequalities
                else implication_gadget
            )
            gadget, formula = make(base, constraints, sigma)
            return _sat_tasks(gadget.vocabulary.access_schema, formula)

        return build

    def a_automaton():
        schema = directory_access_schema()
        vocabulary = AccLTLSolver(schema).vocabulary
        probe = schema.access("AcM1", ("Smith",))
        automaton = ltr_automaton(vocabulary, probe, join_query())
        formula = properties.ltr_formula(vocabulary, probe, join_query())
        return _decision_tasks(vocabulary, automaton, formula)

    suites: List[Tuple[str, Callable]] = [
        (
            "xonly-relevance",
            lambda v, s: land(
                lnot(properties.relation_nonempty_pre(v, "Mobile")),
                properties.zeroary_binding_atom("AcM1"),
                properties.relation_nonempty_post(v, "Mobile"),
                lnext(properties.relation_nonempty_post(v, "Address")),
            ),
        ),
        ("access-order", lambda v, s: properties.access_order_formula(v, "AcM2", "AcM1")),
        (
            "zeroary-ltr",
            lambda v, s: properties.ltr_formula_zeroary(v, "AcM1", join_query()),
        ),
        (
            "disjointness",
            lambda v, s: properties.disjointness_formula(
                v, DisjointnessConstraint("Mobile", 0, "Address", 0)
            ),
        ),
        (
            "fd-zeroary-ltr",
            lambda v, s: land(
                properties.fd_formula(v, FunctionalDependency("Mobile", (0,), 3)),
                properties.ltr_formula_zeroary(v, "AcM1", join_query()),
            ),
        ),
        (
            "ltr-dataflow",
            lambda v, s: land(
                properties.ltr_formula(v, s.access("AcM1", ("Smith",)), join_query()),
                properties.dataflow_formula(v, s.method("AcM1"), 0, "Address", 2),
            ),
        ),
    ]
    requests = [
        Request(
            f"table1:{name}",
            "accltl_sat",
            directory_formula(builder),
            references.TABLE1_EXPECTED.get(name),
        )
        for name, builder in suites
    ]
    requests.append(
        Request(
            "table1:a-automaton",
            "emptiness",
            a_automaton,
            references.TABLE1_EXPECTED.get("a-automaton"),
        )
    )
    for name, with_inequalities in (("gadget-fd-id", False), ("gadget-ineq", True)):
        requests.append(
            Request(
                f"table1:{name}",
                "accltl_sat",
                gadget_formula(with_inequalities),
                references.TABLE1_EXPECTED.get(name),
            )
        )
    return requests


def request_stream(seed: int, synthetic: int) -> List[Request]:
    """The seeded request list of one round (every entry is distinct).

    The seed draws *synthetic* scenarios from :data:`SYNTHETIC_POOL` and
    shuffles the whole list.  Drawing most of a fixed pool, rather than
    fresh generator seeds, keeps the cost of the mix within a few percent
    from seed to seed: generated scenarios differ in search cost by up to
    20x, so fresh draws move every latency quantile by more than any
    regression bound.  Each scenario contributes relevance of its probe
    for both queries and containment of the first query in the second.
    """
    from repro.workloads.scenarios import _synthetic_scenario, standard_scenarios

    requests: List[Request] = []
    for scenario in standard_scenarios()[:2]:  # the paper's directory scenarios
        expected = references.SCENARIO_EXPECTED[scenario.name]
        requests.extend(_scenario_requests(scenario, *expected))
    requests.extend(table1_requests())
    rng = random.Random(seed)
    for synthetic_seed in sorted(rng.sample(SYNTHETIC_POOL, synthetic)):
        scenario = _synthetic_scenario(
            seed=synthetic_seed,
            num_relations=2 + synthetic_seed % 2,
            name=f"synthetic-{synthetic_seed}",
        )
        swapped = dataclasses.replace(
            scenario,
            query_one=scenario.query_two,
            name=f"synthetic-{synthetic_seed}-q2",
        )
        requests.extend(_scenario_requests(scenario))
        requests.append(_scenario_requests(swapped)[0])
    rng.shuffle(requests)
    return requests


class DecideCold:
    """The ``decide_cold`` workload (see the module docstring)."""

    name = "decide_cold"

    def __init__(self, seed: int, workdir: str, synthetic: int = 30) -> None:
        self.seed = seed
        self.synthetic = synthetic
        self.engine = None
        self.requests: List[Request] = []
        self.outcomes = {}

    def setup(self) -> None:
        from repro.engine import DecisionEngine
        from repro.engine.reduction import CachePolicy

        self.requests = request_stream(self.seed, self.synthetic)
        self.engine = DecisionEngine(
            cache_policy=CachePolicy(memoize_results=False, persist_path=""),
            parallel=False,
        )

    def teardown(self) -> None:
        self.engine = None

    def run_round(self, recorder: Recorder, limit: Optional[int] = None) -> None:
        from repro.engine import shared_engine

        # The fragment solvers route their LTL subproblems through the
        # process-wide engine; emptying its memo keeps every round cold.
        shared_engine().clear()
        requests = self.requests if limit is None else self.requests[:limit]
        for request in requests:
            self._one(request, recorder)

    def _one(self, request: Request, recorder: Recorder) -> None:
        engine = self.engine
        values = [None, None]
        first = None
        submitted = time.perf_counter()
        try:
            tasks = request.build()
            for position, result in engine.iter_results(tasks):
                if first is None:
                    first = time.perf_counter() - submitted
                values[position] = result.value
            latency = time.perf_counter() - submitted
        except Exception as error:  # a request that raised is a failed request
            recorder.error(f"{request.name}: {type(error).__name__}: {error}")
            return
        recorder.batch(first)
        verdict = references.decision_verdict(request.kind, values[0], values[1])
        recorder.request(latency, verdict.decided)
        problem = references.check_decision(request, verdict)
        if problem is not None:
            recorder.wrong_verdict(problem)
        earlier = self.outcomes.setdefault(request.name, (request, values))[1]
        if earlier != values:
            recorder.wrong_verdict(f"{request.name}: verdict changed between rounds")

    def verify(self, recorder: Recorder, seed: int) -> None:
        """Engine batches against the direct procedures on a seeded sample."""
        rng = random.Random(seed ^ 0x5EED)
        names = sorted(self.outcomes)
        sample = rng.sample(names, max(1, len(names) // 6)) if names else []
        for name in sample:
            request, values = self.outcomes[name]
            problem = references.check_against_direct(request, values)
            if problem is not None:
                recorder.wrong_verdict(problem)
