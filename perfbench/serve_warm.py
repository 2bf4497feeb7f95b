"""``serve_warm``: one long-lived engine answering repeated matrix batches.

A session is a fixed number of rounds on one
:class:`~repro.engine.DecisionEngine` whose persistent verdict store
sits in a fresh directory.  Each round submits three new batches for
one seeded tenant (schema, hidden instance, queries) — a relevance
matrix over ``probe_accesses``, a containment matrix over a
``query_workload`` with renamed resubmissions, and an
``answerability_sweep`` over growing hidden prefixes — and then repeats
the previous tenant's three batches.  A second engine opened on the
same store then replays the session's new batches from disk, so two
thirds of a session's requests repeat earlier ones.

Fingerprinting, dedup, the LRU memo and the disk tier do most of the
work; the solvers run only for the new batches.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from harness import Recorder

ROUNDS = 16
RESUBMISSIONS = 3

#: Generator seeds of the tenants a session draws from (see
#: ``decide_cold.request_stream`` for why a pool).
TENANT_POOL = tuple(range(1, 21))


@dataclass
class Tenant:
    schema: object
    hidden: object
    initial: object
    relevance_query: object
    queries: list
    answer_query: object
    prefixes: list


def make_tenant(generator) -> Tenant:
    from repro.workloads.matrices import instance_prefixes, query_workload

    schema = generator.access_schema(num_relations=3, methods_per_relation=2, max_inputs=1)
    hidden = generator.instance(schema.schema, tuples_per_relation=12, domain_size=8)
    initial = generator.instance(schema.schema, tuples_per_relation=6, domain_size=8)
    relevance_query = generator.ucq(
        schema.schema, num_disjuncts=2, num_atoms=2, num_variables=3
    )
    base = [
        generator.conjunctive_query(schema.schema, num_atoms=2, num_variables=4)
        for _ in range(3)
    ]
    answer_query = generator.conjunctive_query(schema.schema, num_atoms=2, num_variables=3)
    return Tenant(
        schema=schema,
        hidden=hidden,
        initial=initial,
        relevance_query=relevance_query,
        queries=query_workload(base, resubmissions=RESUBMISSIONS),
        answer_query=answer_query,
        prefixes=instance_prefixes(hidden, steps=4),
    )


def relevance_batch(tenant: Tenant) -> list:
    """The task list ``DecisionEngine.relevance_matrix`` builds."""
    from repro.engine.engine import _query_size, relevance_shared_key, relevance_task
    from repro.engine.reduction import instance_key
    from repro.workloads.matrices import probe_accesses

    snap = instance_key(tenant.initial)
    shared = relevance_shared_key(tenant.schema, tenant.relevance_query, snap, False, False)
    cost = (1 + snap.size()) * (1 + _query_size(tenant.relevance_query))
    return [
        relevance_task(
            tenant.schema,
            access,
            tenant.relevance_query,
            initial=snap,
            require_boolean_access=False,
            shared_key=shared,
            cost_hint=cost,
        )
        for access in probe_accesses(tenant.schema, tenant.hidden)
    ]


def containment_batch(tenant: Tenant) -> list:
    """The task list ``DecisionEngine.containment_matrix`` builds."""
    from repro.engine.engine import containment_task
    from repro.engine.reduction import query_key, schema_key

    schema_part = schema_key(tenant.schema)
    keys = [query_key(query) for query in tenant.queries]
    return [
        containment_task(
            tenant.schema,
            one,
            two,
            key_parts=(schema_part, keys[i], keys[j]),
        )
        for i, one in enumerate(tenant.queries)
        for j, two in enumerate(tenant.queries)
    ]


def answerability_batch(tenant: Tenant) -> list:
    """The task list ``DecisionEngine.answerability_sweep`` builds."""
    from repro.engine.engine import answerability_task

    return [
        answerability_task(tenant.schema, tenant.answer_query, hidden)
        for hidden in tenant.prefixes
    ]


BATCH_BUILDERS = (
    ("relevance", relevance_batch),
    ("containment", containment_batch),
    ("answerability", answerability_batch),
)


def decided(kind: str, value) -> bool:
    if kind == "relevance":
        return value.relevant or value.complete
    if kind == "containment":
        return value.complete or not value.contained
    return True  # answerability is a complete accessible-part computation


class ServeWarm:
    """The ``serve_warm`` workload (see the module docstring)."""

    name = "serve_warm"

    def __init__(self, seed: int, workdir: str, rounds: int = ROUNDS) -> None:
        self.seed = seed
        self.workdir = workdir
        self.rounds = rounds
        self.tenants: List[Tenant] = []
        self.store: Optional[str] = None
        self.engine = None
        self.replay_engine = None
        self.sessions = 0
        #: ``(tenant, kind) -> values`` of the first answer, for the checks.
        self.answers: Dict[Tuple[int, str], list] = {}

    def setup(self) -> None:
        from repro.workloads.generators import WorkloadGenerator

        rng = random.Random(self.seed)
        self.tenants = [
            make_tenant(WorkloadGenerator(seed=tenant_seed))
            for tenant_seed in rng.sample(TENANT_POOL, self.rounds)
        ]
        self._open_session()

    def _open_session(self) -> None:
        from repro.engine import DecisionEngine
        from repro.engine.reduction import CachePolicy

        self._close_store()
        os.makedirs(self.workdir, exist_ok=True)
        self.store = tempfile.mkdtemp(prefix="verdicts-", dir=self.workdir)
        self.engine = DecisionEngine(
            cache_policy=CachePolicy(persist_path=self.store), parallel=False
        )
        self.replay_engine = None

    def _close_store(self) -> None:
        if self.store is not None:
            shutil.rmtree(self.store, ignore_errors=True)
            self.store = None

    def teardown(self) -> None:
        self.engine = self.replay_engine = None
        self._close_store()

    def run_round(self, recorder: Recorder, limit: Optional[int] = None) -> None:
        """One whole session: the rounds, then the replay on a second engine."""
        from repro.engine import DecisionEngine
        from repro.engine.reduction import CachePolicy

        if self.sessions:
            self._open_session()
        self.sessions += 1
        rounds = self.rounds if limit is None else min(limit, self.rounds)
        for index in range(rounds):
            for kind, builder in BATCH_BUILDERS:
                self._batch(self.engine, index, kind, builder, recorder)
            previous = max(index - 1, 0)
            for kind, builder in BATCH_BUILDERS:
                self._batch(self.engine, previous, kind, builder, recorder)
        self.replay_engine = DecisionEngine(
            cache_policy=CachePolicy(persist_path=self.store), parallel=False
        )
        for index in range(rounds):
            for kind, builder in BATCH_BUILDERS:
                self._batch(self.replay_engine, index, kind, builder, recorder)

    def _batch(self, engine, index: int, kind: str, builder, recorder: Recorder) -> None:
        tenant = self.tenants[index]
        tasks: list = []
        submitted = time.perf_counter()
        try:
            tasks = builder(tenant)
            values: List[object] = [None] * len(tasks)
            latencies: List[float] = [0.0] * len(tasks)
            for position, result in engine.iter_results(tasks):
                latencies[position] = time.perf_counter() - submitted
                values[position] = result.value
        except Exception as error:  # a batch that raised fails every request
            recorder.error(
                f"{kind}[{index}]: {type(error).__name__}: {error}", len(tasks) or 1
            )
            return
        recorder.batch(min(latencies))
        for latency, value in zip(latencies, values):
            recorder.request(latency, decided(kind, value))
        first = self.answers.setdefault((index, kind), values)
        if first is not values and first != values:
            recorder.wrong_verdict(f"{kind}[{index}]: repeated batch changed a verdict")
        if kind == "containment":
            self._check_resubmissions(index, values, recorder)

    def _check_resubmissions(self, index: int, values: list, recorder: Recorder) -> None:
        """Renamed copies of a query must get the original's row and column."""
        width = len(self.tenants[index].queries)
        base = width // RESUBMISSIONS
        for i in range(width):
            for j in range(width):
                if values[i * width + j] != values[(i % base) * width + (j % base)]:
                    recorder.wrong_verdict(
                        f"containment[{index}]: renamed resubmission ({i},{j}) differs"
                    )
                    return

    def verify(self, recorder: Recorder, seed: int) -> None:
        """Engine batches against the direct ``*_legacy`` procedures."""
        from repro.access.answerability import is_answerable_exactly_legacy
        from repro.access.containment_ap import contained_under_access_patterns_legacy
        from repro.access.relevance import long_term_relevant_legacy

        rng = random.Random(seed ^ 0x5EED)
        for (index, kind), values in sorted(self.answers.items()):
            tenant = self.tenants[index]
            tasks = dict(BATCH_BUILDERS)[kind](tenant)
            for position in rng.sample(range(len(tasks)), min(4, len(tasks))):
                args = tasks[position].args
                if kind == "relevance":
                    schema, access, query, snap, grounded, boolean = args
                    direct = long_term_relevant_legacy(
                        schema,
                        access,
                        query,
                        initial=snap.to_instance(),
                        grounded=grounded,
                        require_boolean_access=boolean,
                    )
                elif kind == "containment":
                    schema, one, two, snap, identified = args
                    direct = contained_under_access_patterns_legacy(
                        schema, one, two, max_identified_variables=identified
                    )
                else:
                    schema, query, snap, initial_values = args
                    direct = is_answerable_exactly_legacy(
                        schema, query, snap.to_instance(), initial_values
                    )
                if direct != values[position]:
                    recorder.wrong_verdict(
                        f"{kind}[{index}] task {position}: engine and direct path differ"
                    )
