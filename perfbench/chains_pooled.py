"""``chains_pooled``: emptiness of multi-chain automata on the worker pool.

Every request is the emptiness of a union of relabelled long-term
relevance automata over the directory schema (each contributes two
Lemma 4.9 chains, so a request carries 2 to 6 chains of varied weight),
run through a :class:`~repro.engine.DecisionEngine` with parallel
dispatch on and the shared 2-worker pool warmed during set-up.  Three
batch shapes exercise the three pooled paths behind the production
cost gate:

* ``fanout`` — one union automaton, chains fanned out whole;
* ``subtree`` — one automaton with subtree-decomposed search, the
  dominant chain's DFS subtrees queued next to the other chain;
* ``pair`` — two automata in one batch, searched sequentially inside
  the workers the engine dispatches them to.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from harness import Recorder, stop_pool

MAX_PATHS = 600

#: Batch shapes of one round: ``(shape, automata per request, count)``.
ROUND_SHAPE = (("fanout", 2, 8), ("fanout", 3, 8), ("subtree", 1, 8), ("pair", 1, 8))


def directory_probe_schema():
    """The directory schema plus full-tuple probe methods on both relations."""
    from repro.workloads.directory import directory_access_schema

    schema = directory_access_schema()
    schema.add("MobileProbe", "Mobile", (0, 1, 2, 3))
    schema.add("AddressProbe", "Address", (0, 1, 2, 3))
    return schema


#: The probe/query pairs whose relevance automaton has a witness within
#: :data:`MAX_PATHS` (hand-checked against the directory instance: the
#: probe reveals an answer the query could not reach otherwise).  Every
#: other pair of the grid is searched to the path cap without a witness.
WITNESS_PARTS = frozenset(
    {
        ("MobileProbe", "Smith", "smith"),
        ("AddressProbe", "Jones", "residents"),
        ("AddressProbe", "Jones", "jones"),
        ("AddressProbe", "Novak", "residents"),
        ("AddressProbe", "Smith", "residents"),
    }
)


def ltr_candidates() -> Tuple[list, list]:
    """``(method, binding, query)`` triples of the probe/query grid.

    Returned as ``(capped, witnessed)``: pairs searched to the cap and
    pairs with a witness, per :data:`WITNESS_PARTS`.
    """
    from repro.workloads.directory import directory_hidden_instance

    hidden = directory_hidden_instance("small")
    capped, witnessed = [], []
    for method, relation in (("MobileProbe", "Mobile"), ("AddressProbe", "Address")):
        name_position = 0 if relation == "Mobile" else 2
        for binding in sorted(hidden.tuples(relation), key=repr):
            for query in ("join", "residents", "jones", "smith"):
                part = (method, binding, query)
                key = (method, binding[name_position], query)
                (witnessed if key in WITNESS_PARTS else capped).append(part)
    return capped, witnessed


class Deck:
    """Draws from successive shuffled copies of a pool.

    Parts differ several-fold in search cost, so drawing them independently
    lets one seed's round hold far more heavy parts than another's.  Dealt
    from a deck, every part appears about equally often in each round; the
    seed decides the order and which parts share a request.
    """

    def __init__(self, rng: random.Random, pool: list) -> None:
        self.rng = rng
        self.pool = pool
        self.cards: list = []

    def deal(self, count: int) -> list:
        """*count* distinct parts (``count`` at most the pool's size)."""
        hand: list = []
        skipped: list = []
        while len(hand) < count:
            if not self.cards:
                self.cards = self.rng.sample(self.pool, len(self.pool))
            card = self.cards.pop()
            (skipped if card in hand else hand).append(card)
        self.cards.extend(reversed(skipped))
        return hand


def _query(name: str):
    from repro.workloads import directory

    return {
        "join": directory.join_query,
        "residents": directory.resident_names_query,
        "jones": directory.jones_address_query,
        "smith": directory.smith_phone_query,
    }[name]()


@dataclass(frozen=True)
class Request:
    shape: str
    parts: Tuple[Tuple[str, tuple, str], ...]

    witness: bool  # whether a part is in WITNESS_PARTS: the expected verdict

    @property
    def name(self) -> str:
        return f"{self.shape}:" + "+".join(f"{m}{b[:1]}:{q}" for m, b, q in self.parts)


class ChainsPooled:
    """The ``chains_pooled`` workload (see the module docstring)."""

    name = "chains_pooled"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.engine = None
        self.schema = None
        self.vocabulary = None
        self.batches: List[List[Request]] = []
        self.results = {}

    def setup(self) -> None:
        from repro.core.solver import AccLTLSolver
        from repro.engine import DecisionEngine
        from repro.engine.reduction import CachePolicy
        from repro.store import workqueue

        self.schema = directory_probe_schema()
        self.vocabulary = AccLTLSolver(self.schema).vocabulary
        rng = random.Random(self.seed)
        capped, witnessed = ltr_candidates()
        capped_deck, witnessed_deck = Deck(rng, capped), Deck(rng, witnessed)
        batches: List[List[Request]] = []
        for shape, width, count in ROUND_SHAPE:
            for index in range(count):
                size = 2 if shape == "pair" else 1
                batch = []
                for position in range(size):
                    # Every other request carries one witnessed part, last,
                    # so the decided share of a round never depends on the
                    # seed and a witness never cancels chains mid-flight.
                    witness = (index + position) % 2 == 0
                    parts = capped_deck.deal(width - witness)
                    if witness:
                        parts += witnessed_deck.deal(1)
                    batch.append(Request(shape, tuple(parts), witness))
                batches.append(batch)
        rng.shuffle(batches)
        self.batches = batches
        self.engine = DecisionEngine(
            cache_policy=CachePolicy(memoize_results=False, persist_path=""),
            parallel=True,
        )
        pool = workqueue.shared_pool(2)
        for future in [pool.submit(time.sleep, 0.05) for _ in range(2)]:
            future.result()

    def teardown(self) -> None:
        stop_pool()
        self.engine = None

    def automaton(self, request: Request):
        from repro.automata.library import ltr_automaton
        from repro.automata.operations import relabel, union_automaton

        union = None
        for index, (method, binding, query) in enumerate(request.parts):
            access = self.schema.access(method, binding)
            part = relabel(ltr_automaton(self.vocabulary, access, _query(query)), f"c{index}_")
            union = part if union is None else union_automaton(union, part)
        return union

    def tasks(self, batch: List[Request]) -> list:
        from repro.engine.engine import emptiness_task

        tasks = []
        for request in batch:
            kwargs = dict(max_paths=MAX_PATHS, use_datalog_precheck=False)
            if request.shape == "fanout":
                kwargs.update(parallel=True, subtree_parallel=False)
            elif request.shape == "subtree":
                kwargs.update(parallel=True, subtree_parallel=True)
            else:
                kwargs.update(parallel=False, subtree_parallel=False)
            tasks.append(emptiness_task(self.automaton(request), self.vocabulary, **kwargs))
        return tasks

    def run_round(self, recorder: Recorder, limit: Optional[int] = None) -> None:
        batches = self.batches if limit is None else self.batches[:limit]
        for batch in batches:
            submitted = time.perf_counter()
            try:
                tasks = self.tasks(batch)
                values = [None] * len(tasks)
                latencies = [0.0] * len(tasks)
                for position, result in self.engine.iter_results(tasks):
                    latencies[position] = time.perf_counter() - submitted
                    values[position] = result.value
            except Exception as error:  # a batch that raised fails its requests
                recorder.error(f"{batch[0].name}: {type(error).__name__}: {error}", len(batch))
                continue
            recorder.batch(min(latencies))
            for request, latency, value in zip(batch, latencies, values):
                recorder.request(latency, (not value.empty) or value.exhausted)
                first = self.results.setdefault(request, value)
                if first != value:
                    recorder.wrong_verdict(f"{request.name}: verdict changed between rounds")
                elif request.witness == value.empty:
                    recorder.wrong_verdict(
                        f"{request.name}: {value.verdict}, expected "
                        + ("a witness" if request.witness else "none")
                    )

    def verify(self, recorder: Recorder, seed: int) -> None:
        """Pooled emptiness against sequential emptiness on a seeded sample."""
        from repro.automata.emptiness import automaton_emptiness

        rng = random.Random(seed ^ 0x5EED)
        requests = sorted(self.results, key=lambda request: request.name)
        for request in rng.sample(requests, max(1, len(requests) // 4)):
            sequential = automaton_emptiness(
                self.automaton(request),
                self.vocabulary,
                max_paths=MAX_PATHS,
                use_datalog_precheck=False,
                parallel=False,
                subtree_parallel=request.shape == "subtree",
            )
            if sequential != self.results[request]:
                recorder.wrong_verdict(f"{request.name}: pooled and sequential differ")
