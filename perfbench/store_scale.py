"""``store_scale``: bulk writes and SQL pushdown on an on-disk SQLite store.

A request is one store operation against
:class:`~repro.store.sqlstore.SQLStoreInstance` files in the benchmark's
work directory.  The base chain-join store holds about 100k facts,
larger than SQLite's default page cache.  A round alternates writes
(a batch through ``add_facts`` plus the commit at ``snapshot()``) with
reads (indexed point lookups, the pushed-down ``R ⋈ S`` chain join and a
semi-naive grid-reach fixedpoint computed in place), then rolls the
stores back to their base snapshots so every round does the same work.
Every answer is checked against its analytic count.  Nothing from
``automata`` or ``engine`` runs here.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from typing import Iterator, List, Optional, Tuple

from harness import Recorder

BASE_FACTS = 100_000
GRID_FACTS = 4_000
GRID_LENGTH = 100
WRITE_BATCH = 500
LOOKUPS = 200

#: One round: the operations in order (the stores roll back after it).
#: A third of the operations are joins and fixedpoints, so the p50 falls
#: among the writes and lookups and the p75 tail among the fixedpoints.
ROUND = ("write", "lookup", "join", "write", "lookup", "fixedpoint") * 10

Fact = Tuple[str, Tuple[int, ...]]


def chain_join_facts(offset: int, start: int, pairs: int, span: int) -> Iterator[Fact]:
    """``R(a, b), S(b, c)`` pairs ``start .. start + pairs``: one join answer each."""
    for i in range(start, start + pairs):
        yield ("R", (offset + i, offset + span + i))
        yield ("S", (offset + span + i, offset + 2 * span + i))


def grid_reach_facts(offset: int, total: int, length: int = GRID_LENGTH) -> Iterator[Fact]:
    """Parallel ``Init``-seeded chains of *length* edges, *total* facts in all."""
    emitted = chain = 0
    while emitted < total:
        base = offset + chain * (length + 1)
        yield ("Init", (base,))
        emitted += 1
        for step in range(length):
            if emitted >= total:
                return
            yield ("Edge", (base + step, base + step + 1))
            emitted += 1
        chain += 1


class StoreScale:
    """The ``store_scale`` workload (see the module docstring)."""

    name = "store_scale"

    def __init__(self, seed: int, workdir: str, base_facts: int = BASE_FACTS) -> None:
        self.seed = seed
        self.workdir = workdir
        self.base_pairs = base_facts // 2
        self.chain = self.grid = None
        self.files: List[str] = []
        self.facts_written = 0
        self.write_s = 0.0

    def setup(self) -> None:
        from repro.store.sqlstore import SQLStoreInstance
        from repro.workloads.scaling import chain_join_schema, grid_reach_program

        rng = random.Random(self.seed)
        self.offset = rng.randrange(1, 1000) * 10**7
        self.span = 4 * self.base_pairs
        self.probe_keys = rng.sample(range(self.base_pairs), LOOKUPS)
        self.program = grid_reach_program()
        os.makedirs(self.workdir, exist_ok=True)
        directory = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        chain_path = os.path.join(directory, "chain.db")
        grid_path = os.path.join(directory, "grid.db")
        self.files = [directory]
        self.chain = SQLStoreInstance(chain_join_schema(), chain_path)
        added = self.chain.add_facts(
            chain_join_facts(self.offset, 0, self.base_pairs, self.span)
        )
        self.chain_base = self.chain.snapshot()
        self.grid = SQLStoreInstance(self.program.combined_schema(), grid_path)
        added += self.grid.add_facts(grid_reach_facts(self.offset, GRID_FACTS))
        self.grid_base = self.grid.snapshot()
        if added != 2 * self.base_pairs + GRID_FACTS:
            raise RuntimeError("base store ingest lost facts")
        self.chain_path = chain_path

    def teardown(self) -> None:
        for store in (self.chain, self.grid):
            if store is not None:
                store.close()
        self.chain = self.grid = None
        for directory in self.files:
            shutil.rmtree(directory, ignore_errors=True)
        self.files = []

    def run_round(self, recorder: Recorder, limit: Optional[int] = None) -> None:
        operations = ROUND if limit is None else ROUND[:limit]
        self.written_pairs = 0
        for index, operation in enumerate(operations):
            submitted = time.perf_counter()
            try:
                problem = getattr(self, "_" + operation)()
            except Exception as error:  # an operation that raised has failed
                recorder.error(f"{operation}[{index}]: {type(error).__name__}: {error}")
                continue
            latency = time.perf_counter() - submitted
            recorder.batch(latency)
            recorder.request(latency, True)
            if problem is not None:
                recorder.wrong_verdict(f"{operation}[{index}]: {problem}")
        self.chain.restore(self.chain_base)
        self.chain.snapshot()

    def _write(self) -> Optional[str]:
        start = self.base_pairs + self.written_pairs
        pairs = WRITE_BATCH // 2
        started = time.perf_counter()
        added = self.chain.add_facts(
            chain_join_facts(self.offset, start, pairs, self.span)
        )
        self.chain.snapshot()  # the commit
        self.write_s += time.perf_counter() - started
        self.facts_written += added
        self.written_pairs += pairs
        if added != 2 * pairs:
            return f"ingested {added} of {2 * pairs} facts"
        return None

    def _lookup(self) -> Optional[str]:
        offset, span, chain = self.offset, self.span, self.chain
        hits = 0
        for key in self.probe_keys:
            hits += len(chain.index("R", 0, offset + key))
            hits += ("S", (offset + span + key, offset + 2 * span + key)) in chain
        if hits != 2 * len(self.probe_keys):
            return f"{hits} lookup hits, expected {2 * len(self.probe_keys)}"
        return None

    def _join(self) -> Optional[str]:
        from repro.queries.evaluation import satisfying_assignments
        from repro.workloads.scaling import chain_join_query

        answers = sum(1 for _ in satisfying_assignments(chain_join_query(), self.chain))
        expected = self.base_pairs + self.written_pairs
        if answers != expected:
            return f"{answers} join answers, expected {expected}"
        return None

    def _fixedpoint(self) -> Optional[str]:
        from repro.datalog.evaluation import evaluate_program

        self.grid.restore(self.grid_base)
        state = evaluate_program(self.program, self.grid, backend="sqlite")
        reached = state.relation_count("Reach")
        if state is not self.grid:
            return "fixedpoint copied the store instead of running in place"
        if reached != GRID_FACTS:
            return f"reached {reached} nodes, expected {GRID_FACTS}"
        return None

    def verify(self, recorder: Recorder, seed: int) -> None:
        """The answer counts are checked per operation; nothing more here."""

    def db_bytes_per_fact(self) -> float:
        size = os.path.getsize(self.chain_path)
        return size / (2 * self.base_pairs)
