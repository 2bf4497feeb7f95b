"""Crash-consistency suite for the persistent verdict cache (PR 9).

The contract under test: the two-tier cache (:mod:`repro.store.verdict_cache`)
may only ever make the engine *faster*, never *wrong*.  Every storage
fault the harness can script — torn writes, mid-write kills, flipped
bytes, short reads, lock timeouts, full disks, format skew — must
degrade to a counted, traced recomputation whose verdict is
field-identical to the cold-cache oracle.  Multi-process sharing is
exercised for real: forked children, fresh interpreters under different
hash seeds, writers killed while holding (or before releasing) the
store lock.
"""

from __future__ import annotations

import enum
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import warnings
import zlib
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budget import Budget
from repro.engine import CachePolicy, DecisionEngine, emptiness_task
from repro.engine.engine import ltl_word_task
from repro.ltl.syntax import And, Eventually, Next, Not, Prop, Until
from repro.obs import trace
from repro.store import faults
from repro.store import verdict_cache as vc
from repro.store.verdict_cache import (
    FORMAT_VERSION,
    MAGIC,
    LRUMemo,
    VerdictCache,
    atomic_write_bytes,
    clear_store,
    encode_key,
    store_stats,
    verify_store,
)

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True)
def _clean_state():
    """No fault plan or warn-once state leaks between tests."""
    faults.clear()
    vc._WARNED.clear()
    yield
    faults.clear()
    vc._WARNED.clear()


# ----------------------------------------------------------------------
# Workload helpers
# ----------------------------------------------------------------------
LETTERS = [
    frozenset(),
    frozenset({"p"}),
    frozenset({"q"}),
    frozenset({"p", "q"}),
]


def _ltl_task(nesting: int = 0, max_length: int = 4):
    """A deterministic LTL word-search task, unique per *nesting*."""
    a, b = Prop("p"), Prop("q")
    formula = Until(Not(a), And(b, Eventually(a)))
    for _ in range(nesting):
        formula = Next(formula)
    return ltl_word_task(formula, letters=LETTERS, max_length=max_length)


def _tasks(count: int = 3):
    return [_ltl_task(nesting) for nesting in range(count)]


def _oracle(tasks):
    """Cold-cache oracle: an engine with no memo and no persistence."""
    engine = DecisionEngine(
        cache_policy=CachePolicy(memoize_results=False, persist_path="")
    )
    return [result.value for result in engine.run_batch(tasks)]


def _run_persisted(store: str, tasks):
    """Run *tasks* on a fresh engine persisting to *store*; return engine too."""
    engine = DecisionEngine(cache_policy=CachePolicy(persist_path=store))
    values = [result.value for result in engine.run_batch(tasks)]
    return values, engine


def _segments(store: str):
    if not os.path.isdir(store):
        return []
    return sorted(name for name in os.listdir(store) if name.endswith(".seg"))


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def test_write_and_replace(self, tmp_path):
        target = str(tmp_path / "file.bin")
        atomic_write_bytes(target, b"first")
        assert open(target, "rb").read() == b"first"
        atomic_write_bytes(target, b"second")
        assert open(target, "rb").read() == b"second"
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_disk_full_raises_before_touching_anything(self, tmp_path):
        faults.install("trip@disk_full:0")
        target = str(tmp_path / "file.bin")
        with pytest.raises(OSError):
            atomic_write_bytes(target, b"data")
        assert not os.path.exists(target)
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_torn_write_persists_only_a_prefix(self, tmp_path):
        faults.install("trip@torn_write:0")
        target = str(tmp_path / "file.bin")
        atomic_write_bytes(target, b"0123456789")
        assert open(target, "rb").read() == b"01234"


# ----------------------------------------------------------------------
# Canonical key encoding
# ----------------------------------------------------------------------
class TestEncodeKey:
    def test_unordered_containers_are_canonical(self):
        assert encode_key(frozenset({"a", "b", "c"})) == encode_key(
            frozenset({"c", "a", "b"})
        )
        assert encode_key({"x": 1, "y": 2}) == encode_key({"y": 2, "x": 1})

    def test_distinct_values_distinct_encodings(self):
        values = [None, True, False, 0, 1, "1", b"1", (1,), [1], frozenset({1})]
        encodings = {encode_key(value) for value in values}
        assert len(encodings) == len(values)

    def test_stable_across_hash_seeds(self):
        """The digest of a set-heavy fingerprint is interpreter-invariant."""
        script = (
            "import hashlib\n"
            "from repro.store.verdict_cache import encode_key\n"
            "fp = ('ltl_word', (frozenset({'p', 'q', 'r'}),"
            " {'b': 2, 'a': 1}, ('x', frozenset({'zz', 'aa'}))))\n"
            "print(hashlib.sha256(encode_key(fp)).hexdigest())\n"
        )
        digests = set()
        for seed in ("1", "999"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = SRC_DIR
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            digests.add(proc.stdout.strip())
        assert len(digests) == 1


# ----------------------------------------------------------------------
# Memory tier
# ----------------------------------------------------------------------
class TestMemoryTier:
    def test_lru_evicts_least_recently_used(self):
        memo = LRUMemo(capacity=2)
        memo.put("a", 1)
        memo.put("b", 2)
        memo.get("a")  # refresh "a" — "b" is now the LRU entry
        memo.put("c", 3)
        assert "a" in memo and "c" in memo and "b" not in memo
        assert memo.evictions == 1

    def test_capacity_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMO_CAPACITY", "2")
        cache = VerdictCache(persist_path="")
        for index in range(4):
            cache.put(("fp", index), index)
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 2

    def test_bounded_engine_memo(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMO_CAPACITY", "1")
        engine = DecisionEngine()
        engine.run_batch(_tasks(3))
        cache_stats = engine.stats()["verdict_cache"]
        assert cache_stats["entries"] == 1
        assert cache_stats["evictions"] == 2


# ----------------------------------------------------------------------
# Disk tier round trips
# ----------------------------------------------------------------------
class TestDiskTier:
    def test_segment_round_trip(self, tmp_path):
        store = str(tmp_path / "store")
        writer = VerdictCache(capacity=0, persist_path=store)
        writer.put(("fp", 1), {"verdict": True})
        writer.put(("fp", 2), None)
        writer.flush()
        assert len(_segments(store)) == 1

        reader = VerdictCache(capacity=0, persist_path=store)
        value, tier = reader.lookup(("fp", 1))
        assert (value, tier) == ({"verdict": True}, "disk")
        value, tier = reader.lookup(("fp", 2))
        assert (value, tier) == (None, "disk")
        # A second lookup is served by the promoted memory copy.
        _, tier = reader.lookup(("fp", 1))
        assert tier == "memory"

    def test_later_segment_wins(self, tmp_path):
        store = str(tmp_path / "store")
        for generation in ("old", "new"):
            writer = VerdictCache(capacity=0, persist_path=store)
            writer.put(("fp",), generation)
            writer.flush()
        reader = VerdictCache(capacity=0, persist_path=store)
        assert reader.lookup(("fp",))[0] == "new"

    def test_unknown_key_counts_a_disk_miss(self, tmp_path):
        store = str(tmp_path / "store")
        writer = VerdictCache(capacity=0, persist_path=store)
        writer.put(("known",), 1)
        writer.flush()
        reader = VerdictCache(capacity=0, persist_path=store)
        assert reader.lookup(("unknown",))[1] is None
        stats = reader.stats()
        assert stats["disk_misses"] == 1

    def test_compaction_preserves_later_wins(self, tmp_path):
        store = str(tmp_path / "store")
        compactions = 0
        for generation in range(4):
            writer = VerdictCache(
                capacity=0, persist_path=store, compact_segments=2
            )
            writer.put(("stable",), "constant")
            writer.put(("rewritten",), generation)
            writer.flush()
            compactions += writer.stats()["compactions"]
        # Four flushes would leave four segments; the threshold-crossing
        # flush merged its predecessors under the write lock.
        assert compactions >= 1
        assert len(_segments(store)) <= 2
        reader = VerdictCache(capacity=0, persist_path=store)
        assert reader.lookup(("stable",))[0] == "constant"
        assert reader.lookup(("rewritten",))[0] == 3
        assert verify_store(store)["ok"]

    def test_external_writes_are_picked_up(self, tmp_path):
        """A reader rescans when another process changes the directory."""
        store = str(tmp_path / "store")
        first = VerdictCache(capacity=0, persist_path=store)
        first.put(("fp", 1), "one")
        first.flush()
        reader = VerdictCache(capacity=0, persist_path=store)
        assert reader.lookup(("fp", 1))[1] == "disk"
        second = VerdictCache(capacity=0, persist_path=store)
        second.put(("fp", 2), "two")
        second.flush()
        assert reader.lookup(("fp", 2))[0] == "two"

    def test_own_flush_keeps_another_writers_segment_visible(self, tmp_path):
        """A flush after another writer's must not adopt its directory state."""
        store = str(tmp_path / "store")
        seed = VerdictCache(capacity=0, persist_path=store)
        seed.put(("fp", 0), "zero")
        seed.flush()
        first = VerdictCache(capacity=0, persist_path=store)
        assert first.lookup(("fp", 0))[1] == "disk"  # first has scanned
        second = VerdictCache(capacity=0, persist_path=store)
        second.put(("fp", 2), "two")
        second.flush()
        first.put(("fp", 1), "one")
        first.flush()
        assert first.lookup(("fp", 2)) == ("two", "disk")
        fresh = VerdictCache(capacity=0, persist_path=store)
        assert fresh.lookup(("fp", 2)) == ("two", "disk")
        assert fresh.lookup(("fp", 1)) == ("one", "disk")


# ----------------------------------------------------------------------
# Corruption, truncation and format skew
# ----------------------------------------------------------------------
class TestDegradation:
    def _populate(self, store, entries):
        writer = VerdictCache(capacity=0, persist_path=store)
        for key, value in entries:
            writer.put(key, value)
        writer.flush()
        return os.path.join(store, _segments(store)[-1])

    def test_corrupt_record_skipped_others_kept(self, tmp_path):
        store = str(tmp_path / "store")
        segment = self._populate(store, [(("a",), 1), (("b",), 2)])
        data = bytearray(open(segment, "rb").read())
        data[-1] ^= 0xFF  # flip a byte in the last record's value
        atomic_write_bytes(segment, bytes(data))

        reader = VerdictCache(capacity=0, persist_path=store)
        assert reader.lookup(("a",)) == (1, "disk")
        assert reader.lookup(("b",))[1] is None  # corrupt → miss, not a wrong hit
        assert reader.stats()["corrupt_records"] >= 1
        assert not verify_store(store)["ok"]

    def test_truncated_segment_parsed_to_the_tear(self, tmp_path):
        store = str(tmp_path / "store")
        segment = self._populate(store, [(("a",), 1), (("b",), 2)])
        data = open(segment, "rb").read()
        atomic_write_bytes(segment, data[: len(data) - 3])

        reader = VerdictCache(capacity=0, persist_path=store)
        assert reader.lookup(("a",)) == (1, "disk")  # before the tear
        assert reader.lookup(("b",))[1] is None
        assert reader.stats()["truncated_segments"] >= 1

    def test_newer_format_store_is_left_alone(self, tmp_path):
        store = str(tmp_path / "store")
        os.makedirs(store)
        alien = MAGIC + bytes([FORMAT_VERSION + 1]) + b"\xde\xad\xbe\xef"
        atomic_write_bytes(os.path.join(store, "verdicts-00000001-1.seg"), alien)

        cache = VerdictCache(capacity=0, persist_path=store)
        with pytest.warns(RuntimeWarning, match="compute-only"):
            assert cache.lookup(("fp",))[1] is None
        assert cache.stats()["version_mismatches"] == 1
        # Compute-only: nothing is written into the foreign store...
        cache.put(("fp",), "value")
        cache.flush()
        assert _segments(store) == ["verdicts-00000001-1.seg"]
        # ...and the warning fires exactly once.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.lookup(("other",))[1] is None

    def test_older_format_segment_skipped(self, tmp_path):
        store = str(tmp_path / "store")
        self._populate(store, [(("a",), 1)])
        relic = MAGIC + bytes([0]) + b"\x00\x01\x02"
        atomic_write_bytes(os.path.join(store, "verdicts-00000002-1.seg"), relic)

        reader = VerdictCache(capacity=0, persist_path=store)
        with pytest.warns(RuntimeWarning, match="old-format"):
            assert reader.lookup(("a",)) == (1, "disk")
        assert reader.stats()["version_mismatches"] == 1

    def test_degradation_emits_trace_event(self, tmp_path):
        store = str(tmp_path / "store")
        segment = self._populate(store, [(("a",), 1)])
        data = bytearray(open(segment, "rb").read())
        data[-1] ^= 0xFF
        atomic_write_bytes(segment, bytes(data))

        reader = VerdictCache(capacity=0, persist_path=store)
        trace.set_enabled(True)
        trace.reset()
        try:
            reader.lookup(("a",))
        finally:
            spans = trace.take_spans()
            trace.set_enabled(False)
        degraded = [
            node
            for span in spans
            for node in span.walk()
            if node.name == "verdict_cache.degraded"
        ]
        assert degraded and degraded[0].attrs["point"] == "corrupt_records"


# ----------------------------------------------------------------------
# Engine wiring
# ----------------------------------------------------------------------
class TestEngineIntegration:
    def test_disk_reuse_across_engines(self, tmp_path):
        store = str(tmp_path / "store")
        tasks = _tasks(3)
        oracle = _oracle(tasks)

        cold_values, cold_engine = _run_persisted(store, tasks)
        assert cold_values == oracle
        assert cold_engine.stats()["memo_disk_hits"] == 0

        warm_engine = DecisionEngine(cache_policy=CachePolicy(persist_path=store))
        results = warm_engine.run_batch(tasks)
        assert [result.value for result in results] == oracle
        assert {result.provenance for result in results} == {"memo_disk"}
        assert warm_engine.stats()["memo_disk_hits"] == len(tasks)

    def test_single_shot_policy_ignores_env_store(self, tmp_path, monkeypatch):
        store = str(tmp_path / "store")
        monkeypatch.setenv("REPRO_MEMO_PERSIST_PATH", store)
        engine = DecisionEngine(
            cache_policy=CachePolicy(memoize_results=False, persist_path="")
        )
        engine.run_batch(_tasks(2))
        assert not os.path.isdir(store) or not _segments(store)

    def test_partial_verdicts_never_persisted(self, tmp_path):
        from repro.automata.library import ltr_automaton
        from repro.core.solver import AccLTLSolver
        from repro.workloads.scenarios import standard_scenarios

        store = str(tmp_path / "store")
        scenario = next(s for s in standard_scenarios() if s.name == "directory")
        vocabulary = AccLTLSolver(scenario.access_schema).vocabulary
        automaton = ltr_automaton(
            vocabulary, scenario.probe_access, scenario.query_one
        )
        task = emptiness_task(automaton, vocabulary, max_paths=4000)
        engine = DecisionEngine(cache_policy=CachePolicy(persist_path=store))
        result = engine.run_batch([task], budget=Budget(node_cap=1))[0]
        assert result.value.unknown
        assert not _segments(store)
        assert store_stats(store)["records"] == 0 if os.path.isdir(store) else True


# ----------------------------------------------------------------------
# Per-batch key-part memo
# ----------------------------------------------------------------------
class Colour(enum.Enum):
    RED = 1
    BLUE = 2


@dataclass(frozen=True)
class Pair:
    left: object
    right: object


#: Fact sets of the snapshot parts; each is built three times (two memory
#: snapshots, one SQL snapshot), giving equal but distinct objects.
_FACT_SETS = (
    (),
    (("R", ("a", 1)), ("S", ("b",))),
    (("R", ("a", 1)), ("R", ("c", -5)), ("S", (None,))),
)


@pytest.fixture(scope="module")
def snapshot_twins():
    from repro.relational.schema import Relation, Schema
    from repro.store.snapshot import SnapshotInstance
    from repro.store.sqlstore import SQLStoreInstance

    schema = Schema([Relation("R", 2), Relation("S", 1)])
    sql_stores = []
    groups = []
    for facts in _FACT_SETS:
        stores = [SnapshotInstance(schema), SnapshotInstance(schema)]
        stores.append(SQLStoreInstance(schema))
        sql_stores.append(stores[-1])
        for store in stores:
            for name, tup in facts:
                store.add_unchecked(name, tup)
        groups.append(tuple(store.snapshot() for store in stores))
    yield groups
    for store in sql_stores:
        store.close()


def _rebuild(obj, twin):
    """An equal object that is not *obj* (where Python allows one).

    Numbers change type (``True`` → ``1`` → ``1.0``), so the copy can be
    equal yet encode to other key bytes: a memo keyed on equality would
    serve it the original's bytes.
    """
    if type(obj) is bool:
        return int(obj)
    if type(obj) is int:
        return float(obj)
    if type(obj) is tuple:
        return tuple([_rebuild(item, twin) for item in obj])
    if type(obj) is frozenset:
        return frozenset([_rebuild(item, twin) for item in obj])
    if type(obj) is Pair:
        return Pair(_rebuild(obj.left, twin), _rebuild(obj.right, twin))
    return twin.get(id(obj), obj)


def _write_plain_segment(store, records):
    """One segment of ``(key bytes, value)`` records, keys from ``encode_key``."""
    os.makedirs(store, exist_ok=True)
    chunks = [MAGIC + bytes([FORMAT_VERSION])]
    for key_bytes, value in records:
        value_bytes = pickle.dumps(value)
        blob = key_bytes + value_bytes
        chunks.append(
            vc._RECORD.pack(len(key_bytes), len(value_bytes), zlib.crc32(blob))
        )
        chunks.append(blob)
    atomic_write_bytes(os.path.join(store, "verdicts-00000001-0.seg"), b"".join(chunks))


def _relevance_matrix_inputs():
    """A 16-access relevance matrix: schema, initial instance, query, accesses."""
    from repro.workloads.generators import WorkloadGenerator
    from repro.workloads.matrices import probe_accesses

    generator = WorkloadGenerator(seed=5)
    schema = generator.access_schema(
        num_relations=3, methods_per_relation=2, max_inputs=1
    )
    hidden = generator.instance(schema.schema, tuples_per_relation=6, domain_size=6)
    initial = generator.instance(schema.schema, tuples_per_relation=2, domain_size=6)
    query = generator.ucq(
        schema.schema, num_disjuncts=2, num_atoms=2, num_variables=3
    )
    probes = probe_accesses(schema, hidden, limit=16)
    assert len(probes) == 16
    return schema, initial, query, probes


class TestKeyPartMemo:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_memoised_key_bytes_equal_encode_key(self, snapshot_twins, data):
        twin = {
            id(snap): group[(position + 1) % len(group)]
            for group in snapshot_twins
            for position, snap in enumerate(group)
        }
        leaves = st.one_of(
            st.integers(-3, 300),
            st.booleans(),
            st.floats(allow_nan=False),
            st.text(max_size=3),
            st.none(),
            st.sampled_from(list(Colour)),
            st.sampled_from([snap for group in snapshot_twins for snap in group]),
        )
        parts = st.recursive(
            leaves,
            lambda inner: st.one_of(
                st.lists(inner, max_size=3).map(tuple),
                st.frozensets(inner, max_size=3),
                st.builds(Pair, inner, inner),
            ),
            max_leaves=6,
        )
        pool = data.draw(st.lists(parts, min_size=1, max_size=5), label="pool")
        slot = st.integers(0, len(pool) - 1)
        # (kind, [(pool slot, equal-but-distinct copy?)]) or a bare part.
        specs = data.draw(
            st.lists(
                st.one_of(
                    st.tuples(
                        st.sampled_from(["relevance", "containment_ap"]),
                        st.lists(st.tuples(slot, st.booleans()), max_size=5),
                    ),
                    slot,
                ),
                min_size=1,
                max_size=8,
            ),
            label="fingerprints",
        )
        fingerprints = [
            pool[spec]
            if isinstance(spec, int)
            else (
                spec[0],
                tuple(
                    _rebuild(pool[index], twin) if copy else pool[index]
                    for index, copy in spec[1]
                ),
            )
            for spec in specs
        ]
        encoded = [encode_key(fingerprint) for fingerprint in fingerprints]
        index = st.integers(0, len(fingerprints) - 1)
        plain = data.draw(st.sets(index), label="plain records")
        ops = data.draw(
            st.lists(
                st.one_of(
                    st.tuples(st.sampled_from(["lookup", "put"]), index),
                    st.just(("flush", 0)),
                ),
                max_size=25,
            ),
            label="ops",
        )
        with tempfile.TemporaryDirectory() as root:
            store = os.path.join(root, "store")
            plain_keys = {encoded[i] for i in plain}
            _write_plain_segment(store, [(key, key) for key in plain_keys])
            cache = VerdictCache(capacity=0, persist_path=store)
            # The memory tier's dict semantics: True == 1 == 1.0 share an
            # entry there while their key bytes differ.
            memory = {}
            for op, i in ops:
                fingerprint, key = fingerprints[i], encoded[i]
                if op == "flush":
                    cache.flush()
                    assert not cache._part_bytes
                    continue
                assert cache._key_bytes(fingerprint) == key
                if op == "put":
                    cache.put(fingerprint, key)
                    assert cache._pending[-1][0] == key
                    memory[fingerprint] = key
                    continue
                value, tier = cache.lookup(fingerprint)
                if fingerprint in memory:
                    assert (value, tier) == (memory[fingerprint], "memory")
                elif key in plain_keys:
                    assert (value, tier) == (key, "disk")
                    memory[fingerprint] = key
                else:
                    assert tier is None
            cache.flush()
            assert not cache._part_bytes
            # Plain and memoised records are both served from disk.
            written = {encoded[i] for op, i in ops if op == "put"}
            for key in written | plain_keys:
                fingerprint = fingerprints[encoded.index(key)]
                reader = VerdictCache(capacity=0, persist_path=store)
                assert reader.lookup(fingerprint) == (key, "disk")

    def test_shared_parts_encoded_once_per_batch(self, tmp_path, monkeypatch):
        from repro.engine import instance_key, query_key, schema_key

        schema, initial, query, accesses = _relevance_matrix_inputs()
        shared = (schema_key(schema), query_key(query), instance_key(initial))
        encoded = []
        plain = vc.encode_key

        def counting(obj):
            encoded.append(obj)
            return plain(obj)

        monkeypatch.setattr(vc, "encode_key", counting)
        store = str(tmp_path / "store")
        values = None
        # A cold matrix (disk misses, then puts) and a warm one on a second
        # engine over the same store (disk hits): one encoding per part each.
        for counter in ("computed", "memo_disk_hits"):
            engine = DecisionEngine(cache_policy=CachePolicy(persist_path=store))
            encoded.clear()
            matrix = engine.relevance_matrix(
                schema, accesses, query, initial=initial, require_boolean_access=False
            )
            assert engine.stats()[counter] > 0
            for part in shared:
                assert sum(
                    1 for obj in encoded if type(obj) is type(part) and obj == part
                ) == 1
            assert not engine._memo._part_bytes
            assert values is None or matrix == values
            values = matrix

    def test_memo_empty_after_abandoned_or_failed_batch(
        self, tmp_path, monkeypatch
    ):
        from repro.engine import engine as engine_module
        from repro.engine import instance_key, relevance_task
        from repro.engine.engine import relevance_shared_key
        from repro.engine.reduction import ReductionTask

        schema, initial, query, accesses = _relevance_matrix_inputs()
        snap = instance_key(initial)
        shared = relevance_shared_key(schema, query, snap, False, False)
        tasks = [
            relevance_task(
                schema,
                access,
                query,
                initial=snap,
                require_boolean_access=False,
                shared_key=shared,
            )
            for access in accesses
        ]
        engine = DecisionEngine(
            cache_policy=CachePolicy(persist_path=str(tmp_path / "store"))
        )
        memo = engine._memo._part_bytes
        results = engine.iter_results(tasks)
        next(results)
        assert memo  # the batch's parts are memoised while it runs
        results.close()
        assert not memo

        memoised_at_failure = []

        def failing(args):
            memoised_at_failure.append(len(memo))
            raise RuntimeError("task failed")

        monkeypatch.setitem(engine_module._EXECUTORS, "failing", failing)
        task = ReductionTask(
            kind="failing", backend="none", args=(), key=tasks[0].key
        )
        with pytest.raises(RuntimeError, match="task failed"):
            engine.run_batch([task])
        assert memoised_at_failure and memoised_at_failure[0] > 0
        assert not memo


# ----------------------------------------------------------------------
# Storage faults: verdicts stay oracle-identical, degradations are counted
# ----------------------------------------------------------------------
class TestStorageFaults:
    def _assert_oracle_equal(self, store, tasks, oracle):
        """A fault-free engine over whatever the store now holds agrees."""
        values, engine = _run_persisted(store, tasks)
        assert values == oracle
        return engine

    def test_disk_full_degrades_to_compute_only(self, tmp_path):
        store = str(tmp_path / "store")
        tasks = _tasks(3)
        oracle = _oracle(tasks)
        faults.install("trip@disk_full:0")
        with pytest.warns(RuntimeWarning, match="no space left"):
            values, engine = _run_persisted(store, tasks)
        assert values == oracle
        assert engine.stats()["verdict_cache"]["write_errors"] == 1
        assert not _segments(store)
        faults.clear()
        self._assert_oracle_equal(store, tasks, oracle)

    def test_torn_write_tail_dropped(self, tmp_path):
        store = str(tmp_path / "store")
        tasks = _tasks(3)
        oracle = _oracle(tasks)
        faults.install("trip@torn_write:0")
        values, _ = _run_persisted(store, tasks)
        assert values == oracle
        faults.clear()
        # The torn segment must never satisfy a lookup with garbage: the
        # fresh engine recomputes whatever fell past the tear and still
        # matches the oracle field for field.
        engine = self._assert_oracle_equal(store, tasks, oracle)
        cache_stats = engine.stats()["verdict_cache"]
        assert (
            cache_stats["truncated_segments"] + cache_stats["corrupt_records"] > 0
        )

    def test_corrupt_record_recomputed(self, tmp_path):
        store = str(tmp_path / "store")
        tasks = _tasks(2)
        oracle = _oracle(tasks)
        faults.install("trip@corrupt_record:0")
        values, _ = _run_persisted(store, tasks)
        assert values == oracle
        faults.clear()
        engine = self._assert_oracle_equal(store, tasks, oracle)
        cache_stats = engine.stats()["verdict_cache"]
        assert cache_stats["corrupt_records"] >= 1
        assert engine.stats()["memo_disk_hits"] == len(tasks) - 1

    def test_partial_read_recovered(self, tmp_path):
        store = str(tmp_path / "store")
        tasks = _tasks(3)
        oracle = _oracle(tasks)
        _run_persisted(store, tasks)  # clean store
        faults.install("trip@partial_read:0")
        engine = self._assert_oracle_equal(store, tasks, oracle)
        cache_stats = engine.stats()["verdict_cache"]
        assert (
            cache_stats["truncated_segments"] + cache_stats["corrupt_records"] > 0
        )

    def test_lock_timeout_skips_the_flush(self, tmp_path):
        store = str(tmp_path / "store")
        tasks = _tasks(2)
        oracle = _oracle(tasks)
        faults.install("trip@lock_timeout:0")
        with pytest.warns(RuntimeWarning, match="lock"):
            values, engine = _run_persisted(store, tasks)
        assert values == oracle
        assert engine.stats()["verdict_cache"]["lock_timeouts"] == 1
        assert not _segments(store)
        faults.clear()
        self._assert_oracle_equal(store, tasks, oracle)

    def test_mid_write_kill_leaves_no_visible_segment(self, tmp_path):
        """A writer killed between tmp-write and replace tears nothing."""
        store = str(tmp_path / "store")
        tasks = _tasks(2)
        oracle = _oracle(tasks)
        script = (
            "import sys\n"
            f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
            "from test_verdict_cache import _run_persisted, _tasks\n"
            f"_run_persisted({store!r}, _tasks(2))\n"
            "sys.exit(3)  # unreachable: the flush kills the process\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        env["REPRO_FAULT_INJECT"] = "kill@torn_write:0"
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True
        )
        assert proc.returncode == faults.KILL_EXIT_CODE
        # The crash left a tmp file at most — never a half-visible segment.
        assert not _segments(store)
        leftovers = [n for n in os.listdir(store) if n.endswith(".tmp")]
        assert leftovers, "the kill fired after the tmp write"

        engine = self._assert_oracle_equal(store, tasks, oracle)
        assert engine.stats()["memo_disk_hits"] == 0  # nothing was served
        # The surviving flush took the lock, swept the dead writer's tmp
        # file and landed a clean segment.
        assert not [n for n in os.listdir(store) if n.endswith(".tmp")]
        assert verify_store(store)["ok"]


# ----------------------------------------------------------------------
# Multi-process sharing
# ----------------------------------------------------------------------
class TestMultiProcess:
    def test_fork_child_hits_the_store(self, tmp_path):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        store = str(tmp_path / "store")
        task = _ltl_task(0)
        expected = _run_persisted(store, [task])[0][0]
        pid = os.fork()
        if pid == 0:  # child: exit code is the assertion
            try:
                cache = VerdictCache(capacity=0, persist_path=store)
                value, tier = cache.lookup(task.fingerprint())
                os._exit(0 if tier == "disk" and value == expected else 1)
            except BaseException:
                os._exit(2)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_fresh_interpreter_hits_under_any_hash_seed(self, tmp_path):
        """Spawn-equivalent reuse: new interpreter, adversarial hash seed."""
        store = str(tmp_path / "store")
        tasks = _tasks(2)
        oracle = _oracle(tasks)
        _run_persisted(store, tasks)
        script = (
            "import sys\n"
            f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
            "from test_verdict_cache import _run_persisted, _tasks\n"
            f"values, engine = _run_persisted({store!r}, _tasks(2))\n"
            "assert engine.stats()['memo_disk_hits'] == 2, engine.stats()\n"
            "print('DISK_HITS_OK')\n"
        )
        for seed in ("1", "999"):
            env = dict(os.environ)
            env["PYTHONPATH"] = SRC_DIR
            env["PYTHONHASHSEED"] = seed
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            assert "DISK_HITS_OK" in proc.stdout
        # And the shared store still yields oracle verdicts locally.
        engine = DecisionEngine(cache_policy=CachePolicy(persist_path=store))
        assert [r.value for r in engine.run_batch(tasks)] == oracle

    def _holding_child(self, store, hold_s):
        """Start a child that flocks the store lock, then report readiness."""
        script = (
            "import fcntl, os, sys, time\n"
            f"os.makedirs({store!r}, exist_ok=True)\n"
            f"fd = os.open(os.path.join({store!r}, 'lock'), os.O_RDWR | os.O_CREAT)\n"
            "fcntl.flock(fd, fcntl.LOCK_EX)\n"
            "print('LOCKED', flush=True)\n"
            f"time.sleep({hold_s})\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            text=True,
        )
        assert proc.stdout.readline().strip() == "LOCKED"
        return proc

    def test_real_lock_contention_times_out(self, tmp_path):
        store = str(tmp_path / "store")
        holder = self._holding_child(store, hold_s=30)
        try:
            cache = VerdictCache(
                capacity=0, persist_path=store, lock_timeout_s=0.05
            )
            cache.put(("fp",), "value")
            with pytest.warns(RuntimeWarning, match="busy"):
                cache.flush()
            assert cache.stats()["lock_timeouts"] == 1
            assert not _segments(store)
        finally:
            holder.send_signal(signal.SIGKILL)
            holder.wait()

    def test_stale_lock_released_by_the_kernel(self, tmp_path):
        """A writer killed while holding the flock never wedges the store."""
        store = str(tmp_path / "store")
        holder = self._holding_child(store, hold_s=30)
        holder.send_signal(signal.SIGKILL)
        holder.wait()
        cache = VerdictCache(capacity=0, persist_path=store, lock_timeout_s=0.5)
        cache.put(("fp",), "value")
        cache.flush()  # must not time out: the kernel dropped the dead flock
        assert cache.stats()["lock_timeouts"] == 0
        assert len(_segments(store)) == 1


# ----------------------------------------------------------------------
# Store helpers and the CLI surface
# ----------------------------------------------------------------------
class TestStoreCli:
    def _run_cli(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_stats_verify_clear_roundtrip(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        _run_persisted(store, _tasks(2))

        code, out = self._run_cli(capsys, "cache", "stats", "--path", store)
        assert code == 0 and '"records": 2' in out
        code, out = self._run_cli(capsys, "cache", "verify", "--path", store)
        assert code == 0 and '"ok": true' in out

        segment = os.path.join(store, _segments(store)[0])
        data = bytearray(open(segment, "rb").read())
        data[-1] ^= 0xFF
        atomic_write_bytes(segment, bytes(data))
        code, out = self._run_cli(capsys, "cache", "verify", "--path", store)
        assert code == 1 and "checksum mismatch" in out

        code, _ = self._run_cli(capsys, "cache", "clear", "--path", store)
        assert code == 0
        assert not _segments(store)
        code, out = self._run_cli(capsys, "cache", "verify", "--path", store)
        assert code == 0  # empty store verifies clean

    def test_missing_store_is_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_MEMO_PERSIST_PATH", raising=False)
        code, out = self._run_cli(capsys, "cache", "stats")
        assert code == 2 and "no verdict store configured" in out
        code, _ = self._run_cli(
            capsys, "cache", "verify", "--path", str(tmp_path / "absent")
        )
        assert code == 2

    def test_env_path_is_honoured(self, tmp_path, capsys, monkeypatch):
        store = str(tmp_path / "store")
        _run_persisted(store, _tasks(1))
        monkeypatch.setenv("REPRO_MEMO_PERSIST_PATH", store)
        code, out = self._run_cli(capsys, "cache", "stats")
        assert code == 0 and '"segments": 1' in out

    def test_clear_store_counts_files(self, tmp_path):
        store = str(tmp_path / "store")
        _run_persisted(store, _tasks(1))
        open(os.path.join(store, ".dead.tmp"), "wb").close()
        assert clear_store(store) == 2  # the segment and the stray tmp
        assert clear_store(str(tmp_path / "missing")) == 0


# ----------------------------------------------------------------------
# Lint rule IO001
# ----------------------------------------------------------------------
class TestAtomicWriteLint:
    def _io001(self, source, rel_path):
        from repro.analysis.driver import lint_source

        report = lint_source(source, rel_path)
        return [f for f in report.findings if f.rule == "IO001"]

    def test_flags_raw_replace_anywhere(self):
        source = "import os\n\ndef promote(a, b):\n    os.replace(a, b)\n"
        findings = self._io001(source, "repro/store/other.py")
        assert findings and "atomic-write" in findings[0].message

    def test_flags_write_open_in_the_store_module(self):
        source = (
            "def side_write(path, data):\n"
            "    with open(path, 'wb') as handle:\n"
            "        handle.write(data)\n"
        )
        assert self._io001(source, "repro/store/verdict_cache.py")
        # The same open() elsewhere is fine — only the store module is
        # held to the single-writer chokepoint.
        assert not self._io001(source, "repro/io/reports.py")

    def test_helper_function_itself_is_exempt(self):
        source = (
            "import os\n\n"
            "def atomic_write_bytes(path, data):\n"
            "    os.replace(path + '.tmp', path)\n"
        )
        assert not self._io001(source, "repro/store/verdict_cache.py")

    def test_real_store_module_is_clean(self):
        source = open(vc.__file__, encoding="utf-8").read()
        assert not self._io001(source, "repro/store/verdict_cache.py")
