"""Property tests for the SQLite store backend (:mod:`repro.store.sqlstore`).

Convention of the store subsystem: the dict-backed
:class:`~repro.relational.instance.Instance` and the in-memory
:class:`~repro.store.snapshot.SnapshotInstance` are the oracles.  The
SQL backend must agree with them field by field — same tuples under
random mutation/snapshot/restore interleavings, same compiled-join
assignments below and above the pushdown threshold, same datalog
fixedpoints and per-round generations, same fingerprints, hashes and
verdict-cache key bytes — and its fault behaviour must degrade to the
last committed snapshot (or to the in-memory executor), never to a
half-applied state or a wrong answer.
"""

from __future__ import annotations

import os
import pickle
import random
import sqlite3
import subprocess
import sys
import tempfile
from collections import Counter
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.datalog.evaluation import evaluate_program
from repro.engine.reduction import instance_key
from repro.obs.metrics import REGISTRY
from repro.queries.evaluation import (
    naive_satisfying_assignments,
    satisfying_assignments,
)
from repro.relational.instance import Instance
from repro.relational.schema import Relation, Schema, SchemaError, make_schema
from repro.store import faults, sqlcodegen
from repro.store.backend import MEMORY_BACKEND, SQLITE_BACKEND
from repro.store.snapshot import SnapshotInstance
from repro.store.sqlstore import (
    SQLSnapshot,
    SQLStoreInstance,
    decode_value,
    encode_value,
)
from repro.store.verdict_cache import encode_key
from repro.workloads import scaling
from repro.workloads.generators import WorkloadGenerator

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _multiset(assignments):
    return Counter(frozenset(a.items()) for a in assignments)


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture
def pushdown_always(monkeypatch):
    """Force every eligible plan through the SQL pushdown path."""
    monkeypatch.setenv("REPRO_SQL_PUSHDOWN_MIN_ROWS", "1")


@pytest.fixture
def pushdown_never(monkeypatch):
    """Route every plan through the in-memory executor over the facade."""
    monkeypatch.setenv("REPRO_SQL_PUSHDOWN_MIN_ROWS", "1000000000")


def _pushdown_delta(base):
    return REGISTRY.counters_delta(base)


def _raw_rows(store, table):
    """Every row of *table*, live or dead (the MVCC garbage included)."""
    return store._conn.execute("SELECT COUNT(*) FROM " + table).fetchone()[0]


# ----------------------------------------------------------------------
# Value encoding
# ----------------------------------------------------------------------
class TestValueEncoding:
    def test_round_trips(self):
        values = ["", "abc", 'quo"te', 0, 1, -7, 10**20, 2.5, -0.125, None]
        for value in values:
            assert decode_value(encode_value(value)) == value

    def test_numeric_collapse_matches_python_set_semantics(self):
        # True, 1 and 1.0 are one element of a Python set, so the store's
        # encoding must collapse them too (the oracles are Python sets).
        assert encode_value(True) == encode_value(1) == encode_value(1.0)
        assert decode_value(encode_value(True)) == 1
        assert encode_value(False) == encode_value(0)

    def test_string_and_int_never_collide(self):
        assert encode_value("1") != encode_value(1)
        assert encode_value("None") != encode_value(None)

    def test_unencodable_values_raise(self):
        with pytest.raises(TypeError):
            encode_value(float("nan"))
        with pytest.raises(TypeError):
            encode_value(object())

    def test_storage_classes(self):
        # SQLite holds str/int64/float natively; None and integers
        # outside int64 are the two tagged BLOBs.
        assert encode_value("i1") == "i1"
        assert encode_value(2**63 - 1) == 2**63 - 1
        assert encode_value(-(2**63)) == -(2**63)
        assert encode_value(2**63) == b"i9223372036854775808"
        assert encode_value(-(2**63) - 1) == b"i-9223372036854775809"
        assert encode_value(1e300) == b"i" + str(int(1e300)).encode()
        assert encode_value(-0.0) == 0 and type(encode_value(-0.0)) is int
        assert encode_value(2.0) == 2 and type(encode_value(2.0)) is int
        assert encode_value(1.5) == 1.5
        assert encode_value(float("-inf")) == float("-inf")
        assert encode_value(None) == b"n"
        assert decode_value(b"n") is None
        assert decode_value(b"i-9223372036854775809") == -(2**63) - 1


# ----------------------------------------------------------------------
# The SQL store against the dict-backed oracle
# ----------------------------------------------------------------------
_VALUE_POOL = ["v0", "v1", "v2", "v3", 0, 1, 2, True, 1.0, 2.5, None]


def _random_tuple(rng: random.Random, arity: int):
    return tuple(rng.choice(_VALUE_POOL) for _ in range(arity))


class TestSqlStoreAgreesWithOracle:
    def test_random_interleavings(self):
        """Store == oracle throughout random add/discard/snapshot
        interleavings, and every snapshot restores (in arbitrary order,
        forwards and backwards across generations) to exactly the state
        it captured."""
        schema = Schema([Relation("R", 2), Relation("S", 3), Relation("Z", 0)])
        arities = {"R": 2, "S": 3, "Z": 0}
        rng = random.Random(20260808)
        store = SQLStoreInstance(schema)
        oracle = Instance(schema)
        snapshots = []
        for step in range(500):
            name = rng.choice(["R", "S", "Z"])
            tup = _random_tuple(rng, arities[name])
            roll = rng.random()
            if roll < 0.5:
                assert store.add_unchecked(name, tup) == oracle.add_unchecked(
                    name, tup
                )
            elif roll < 0.6:
                # A batch: new tuples, sometimes a live or a repeated one.
                batch = [tup, _random_tuple(rng, arities[name])]
                live = sorted(oracle.tuples(name), key=repr)
                if live and rng.random() < 0.5:
                    batch.append(rng.choice(live))
                if rng.random() < 0.5:
                    batch.append(rng.choice(batch))
                assert store.missing(name, batch) == oracle.missing(name, batch)
                # add_all validates, and an untyped position rejects True.
                batch = [tuple(map(_canonical, values)) for values in batch]
                store.add_all(name, batch)
                oracle.add_all(name, batch)
            else:
                assert store.discard(name, tup) == oracle.discard(name, tup)
            if rng.random() < 0.08:
                snapshots.append((store.snapshot(), oracle.freeze()))
            if step % 50 == 0:
                assert store.freeze() == oracle.freeze()
                assert store.size() == oracle.size()
                assert store.active_domain() == oracle.active_domain()
                for relation in schema:
                    assert store.tuples(relation.name) == oracle.tuples(
                        relation.name
                    )
                    for position in range(relation.arity):
                        for value in ("v0", 1, None):
                            assert set(
                                store.index(relation.name, position, value)
                            ) == set(oracle.index(relation.name, position, value))
                assert store.relation_counts() == oracle.relation_counts()
        assert store == oracle  # freeze-level equality across backends
        rng.shuffle(snapshots)
        for snap, frozen in snapshots:
            store.restore(snap)
            assert store.freeze() == frozen
            branch = SQLStoreInstance.from_snapshot(snap)
            assert branch.freeze() == frozen
            branch.close()
        assert store.verify()["ok"]
        store.close()

    def test_branches_are_independent(self):
        schema = make_schema({"R": 2})
        store = SQLStoreInstance(schema)
        store.add("R", ("a", "b"))
        snap = store.snapshot()
        branch = SQLStoreInstance.from_snapshot(snap)
        branch.add("R", ("c", "d"))
        store.add("R", ("e", "f"))
        assert branch.contains("R", ("c", "d"))
        assert not branch.contains("R", ("e", "f"))
        assert not store.contains("R", ("c", "d"))
        rebuilt = SQLStoreInstance.from_snapshot(snap)
        assert rebuilt.tuples("R") == frozenset({("a", "b")})
        for s in (store, branch, rebuilt):
            s.close()

    def test_unencodable_probes_answer_empty(self):
        # No stored fact can equal a value the encoding rejects, so
        # membership and index probes degrade to False/empty, not errors.
        schema = make_schema({"R": 2})
        store = SQLStoreInstance(schema)
        store.add("R", ("a", "b"))
        assert not store.contains("R", (float("nan"), "b"))
        assert store.index("R", 0, float("nan")) == frozenset()
        store.close()

    def test_restore_rejects_foreign_snapshots(self):
        schema = make_schema({"R": 1})
        one = SQLStoreInstance(schema)
        two = SQLStoreInstance(schema)
        snap = one.snapshot()
        with pytest.raises(ValueError):
            two.restore(snap)
        one.close()
        two.close()


# ----------------------------------------------------------------------
# Fingerprint / verdict-key parity across backends
# ----------------------------------------------------------------------
#: Values already in the store's canonical numeric form (no bools, no
#: integral floats).  Snapshot equality and hashes agree across backends
#: for *any* values; verdict-key **bytes** additionally agree exactly on
#: canonical values — the SQL backend canonicalises ``True``/``1.0`` to
#: ``1`` at ingest, where the memory store keeps the original object, so
#: a non-canonical fact degrades the shared cache to a miss (never a
#: wrong hit: readers compare full key bytes).
_CANONICAL_POOL = ["v0", "v1", "v2", "v3", 0, 1, 2, -5, 2.5, None]


def _twin_stores():
    schema = Schema([Relation("R", 2), Relation("S", 1)])
    mem = SnapshotInstance(schema)
    sql = SQLStoreInstance(schema)
    rng = random.Random(11)
    for _ in range(60):
        name = rng.choice(["R", "S"])
        arity = 2 if name == "R" else 1
        tup = tuple(rng.choice(_CANONICAL_POOL) for _ in range(arity))
        mem.add_unchecked(name, tup)
        sql.add_unchecked(name, tup)
    return mem, sql


class TestCrossBackendParity:
    def test_snapshots_compare_and_hash_equal(self):
        mem, sql = _twin_stores()
        mem_snap, sql_snap = mem.snapshot(), sql.snapshot()
        assert mem_snap == sql_snap
        assert sql_snap == mem_snap
        assert hash(mem_snap) == hash(sql_snap)
        sql.add("R", ("fresh", "fact"))
        assert sql.snapshot() != mem_snap
        sql.close()

    def test_verdict_cache_keys_are_byte_identical(self):
        # The persistent verdict cache keys on encode_key(snapshot): a
        # verdict computed against one backend must be served to the
        # other, so the key bytes have to match exactly.
        mem, sql = _twin_stores()
        assert encode_key(mem.snapshot()) == encode_key(sql.snapshot())
        sql.close()

    def test_non_canonical_values_still_compare_equal(self):
        # True/1.0 canonicalise to 1 inside the SQL store.  Snapshot
        # equality and hashes still agree (Python == collapses them on
        # the memory side too); only the verdict-key *bytes* may differ,
        # which is a cache miss, never a wrong hit.
        schema = make_schema({"R": 2})
        mem = SnapshotInstance(schema)
        sql = SQLStoreInstance(schema)
        for tup in [(True, 1.0), (0, 2.5)]:
            mem.add_unchecked("R", tup)
            sql.add_unchecked("R", tup)
        assert mem.snapshot() == sql.snapshot()
        assert hash(mem.snapshot()) == hash(sql.snapshot())
        assert sql.tuples("R") == mem.tuples("R")
        sql.close()

    def test_engine_instance_key_crosses_backends(self):
        mem, sql = _twin_stores()
        assert instance_key(sql) == instance_key(mem)
        assert instance_key(sql.snapshot().view()) == instance_key(mem)
        assert hash(instance_key(sql)) == hash(instance_key(mem))
        sql.close()

    def test_engine_runs_tasks_over_sql_stores(self):
        """An engine task whose instance is an SQL store equals the direct call."""
        from repro.access.answerability import is_answerable_exactly_legacy
        from repro.engine import DecisionEngine, answerability_task
        from repro.workloads.scenarios import standard_scenarios

        for scenario in standard_scenarios():
            sql = SQLStoreInstance.from_instance(scenario.hidden_instance)
            args = (scenario.access_schema, scenario.query_one)
            served = DecisionEngine().run(
                answerability_task(*args, sql, scenario.initial_values)
            )
            assert served.value == is_answerable_exactly_legacy(
                *args, scenario.hidden_instance, scenario.initial_values
            )
            sql.close()

    def test_snapshot_pickle_round_trip(self):
        mem, sql = _twin_stores()
        loaded = pickle.loads(pickle.dumps(sql.snapshot()))
        assert loaded == mem.snapshot()
        store_loaded = pickle.loads(pickle.dumps(sql))
        assert store_loaded.freeze() == sql.freeze()
        sql.close()
        store_loaded.close()


# ----------------------------------------------------------------------
# Compiled joins: SQL pushdown vs the in-memory executor vs the oracle
# ----------------------------------------------------------------------
class TestCompiledEngineOnSqlStore:
    def _trials(self, seed):
        generator = WorkloadGenerator(seed=seed)
        rng = random.Random(seed)
        for trial in range(25):
            schema = generator.schema(num_relations=rng.randint(1, 3))
            instance = generator.instance(
                schema,
                tuples_per_relation=rng.randint(0, 8),
                domain_size=rng.randint(2, 6),
            )
            query = generator.conjunctive_query(
                schema,
                num_atoms=rng.randint(1, 4),
                num_variables=rng.randint(1, 5),
                constant_probability=0.25,
            )
            yield trial, schema, instance, query

    def test_pushdown_agrees_with_oracle(self, pushdown_always):
        for trial, schema, instance, query in self._trials(99):
            store = SQLStoreInstance.from_instance(instance)
            assert _multiset(satisfying_assignments(query, store)) == _multiset(
                naive_satisfying_assignments(query, instance)
            ), f"trial {trial}: {query}"
            store.close()

    def test_below_threshold_agrees_with_oracle(self, pushdown_never):
        for trial, schema, instance, query in self._trials(77):
            store = SQLStoreInstance.from_instance(instance)
            assert _multiset(satisfying_assignments(query, store)) == _multiset(
                naive_satisfying_assignments(query, instance)
            ), f"trial {trial}: {query}"
            store.close()

    def test_routing_counters(self, pushdown_always, monkeypatch):
        from repro.queries.atoms import Atom
        from repro.queries.cq import ConjunctiveQuery
        from repro.queries.terms import Variable

        schema = make_schema({"R": 2, "S": 2})
        store = SQLStoreInstance(schema)
        for i in range(40):
            store.add("R", (f"a{i}", f"b{i % 5}"))
            store.add("S", (f"b{i % 5}", f"c{i}"))
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        query = ConjunctiveQuery(atoms=(Atom("R", (x, y)), Atom("S", (y, z))))

        base = REGISTRY.counters_snapshot()
        pushed = _multiset(satisfying_assignments(query, store))
        assert _pushdown_delta(base).get("store.pushdown", 0) >= 1

        monkeypatch.setenv("REPRO_SQL_PUSHDOWN_MIN_ROWS", "1000000000")
        base = REGISTRY.counters_snapshot()
        routed = _multiset(satisfying_assignments(query, store))
        assert _pushdown_delta(base).get("store.pushdown_skipped", 0) >= 1
        assert routed == pushed
        store.close()

    def test_snapshot_view_pins_its_generation(self, pushdown_always):
        from repro.queries.atoms import Atom
        from repro.queries.cq import ConjunctiveQuery
        from repro.queries.terms import Variable

        schema = make_schema({"R": 1})
        store = SQLStoreInstance(schema)
        for i in range(8):
            store.add("R", (f"v{i}",))
        view = store.snapshot().view()
        store.add("R", ("late",))
        x = Variable("x")
        scan = ConjunctiveQuery(atoms=(Atom("R", (x,)),))
        pinned = {a[x] for a in satisfying_assignments(scan, view)}
        head = {a[x] for a in satisfying_assignments(scan, store)}
        assert "late" not in pinned
        assert "late" in head
        assert head - pinned == {"late"}
        store.close()


# ----------------------------------------------------------------------
# Datalog fixedpoints on the sqlite backend
# ----------------------------------------------------------------------
def _grid_workload(total_facts=300):
    program = scaling.grid_reach_program()
    database = Instance(scaling.grid_reach_schema())
    for fact in scaling.grid_reach_facts(total_facts):
        database.add_fact(fact)
    return program, database


class TestDatalogOnSqlBackend:
    def test_fixedpoint_and_generations_match_memory(self, pushdown_always):
        program, database = _grid_workload()
        oracle = evaluate_program(program, database, store_backed=False)
        mem_log, sql_log = [], []
        mem = evaluate_program(
            program, database, backend="memory", generation_log=mem_log
        )
        sql = evaluate_program(
            program, database, backend="sqlite", generation_log=sql_log
        )
        assert sql.freeze() == oracle.freeze()
        assert mem.freeze() == sql.freeze()
        # Round-by-round: the semi-naive delta chains are identical.
        assert len(mem_log) == len(sql_log)
        for mem_gen, sql_gen in zip(mem_log, sql_log):
            assert mem_gen == sql_gen
        sql.close()

    def test_naive_mode_matches(self, pushdown_always):
        program, database = _grid_workload(120)
        oracle = evaluate_program(
            program, database, store_backed=False, semi_naive=False
        )
        sql = evaluate_program(
            program, database, backend="sqlite", semi_naive=False
        )
        assert sql.freeze() == oracle.freeze()
        sql.close()

    def test_in_place_adoption(self, pushdown_always):
        # An SQLite database over the combined schema is adopted: the
        # fixedpoint lands in the same store, with no re-ingest copy.
        program, database = _grid_workload(200)
        combined = program.combined_schema()
        store = SQLStoreInstance(combined)
        for fact in database.facts():
            store.add_fact(fact)
        result = evaluate_program(program, store, backend="sqlite")
        assert result is store
        oracle = evaluate_program(program, database, store_backed=False)
        assert store.freeze() == oracle.freeze()
        store.close()

    def test_in_place_fixedpoint_is_one_transaction(self, pushdown_always):
        # The fixedpoint commits nothing: its rounds pin generations inside
        # one open transaction, and restoring the base rolls it back, so
        # repeated fixedpoints leave no dead rows behind.
        program, database = _grid_workload(300)
        oracle = evaluate_program(program, database, store_backed=False)
        store = SQLStoreInstance(program.combined_schema())
        for fact in database.facts():
            store.add_fact(fact)
        base = store.snapshot()
        reach = sqlcodegen.table_for("Reach")
        statements = []
        store._conn.set_trace_callback(statements.append)
        for _ in range(3):
            store.restore(base)
            assert evaluate_program(program, store, backend="sqlite") is store
            assert store.freeze() == oracle.freeze()
            assert _raw_rows(store, reach) == store.relation_count("Reach")
        store.restore(base)
        store._conn.set_trace_callback(None)
        assert [s for s in statements if s.split()[0].upper() == "COMMIT"] == []
        assert _raw_rows(store, reach) == store.relation_count("Reach") == 0
        assert store.freeze() == database.freeze()
        assert store.verify()["ok"]
        store.close()

    def test_chain_join_query_matches(self, pushdown_always):
        schema = scaling.chain_join_schema()
        database = Instance(schema)
        for fact in scaling.chain_join_facts(200):
            database.add_fact(fact)
        store = SQLStoreInstance.from_instance(database)
        query = scaling.chain_join_query()
        assert _multiset(satisfying_assignments(query, store)) == _multiset(
            naive_satisfying_assignments(query, database)
        )
        assert len(_multiset(satisfying_assignments(query, store))) == 100
        store.close()


# ----------------------------------------------------------------------
# Fault injection: torn transactions, crashes, pushdown failures
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_tripped_commit_rolls_back_to_last_snapshot(self):
        schema = make_schema({"R": 1})
        store = SQLStoreInstance(schema)
        for i in range(10):
            store.add("R", (f"keep{i}",))
        committed = store.snapshot()
        frozen = store.freeze()
        for i in range(5):
            store.add("R", (f"lost{i}",))
        faults.install("trip@sql_commit:0")
        with pytest.raises(OSError):
            store.snapshot()
        faults.clear()
        # The failed checkpoint left the head at the last committed state.
        assert store.freeze() == frozen
        assert store.snapshot() == committed
        assert store.verify()["ok"]
        # The store keeps working after the fault.
        store.add("R", ("after",))
        assert store.snapshot() != committed
        store.close()

    def test_tripped_pushdown_degrades_to_memory_executor(
        self, pushdown_always
    ):
        from repro.queries.atoms import Atom
        from repro.queries.cq import ConjunctiveQuery
        from repro.queries.terms import Variable

        schema = make_schema({"R": 2})
        store = SQLStoreInstance(schema)
        oracle = Instance(schema)
        for i in range(30):
            tup = (f"a{i % 3}", f"b{i}")
            store.add("R", tup)
            oracle.add("R", tup)
        x, y = Variable("x"), Variable("y")
        query = ConjunctiveQuery(atoms=(Atom("R", (x, y)),))
        faults.install("trip@sql_pushdown:0")
        base = REGISTRY.counters_snapshot()
        answers = _multiset(satisfying_assignments(query, store))
        assert answers == _multiset(naive_satisfying_assignments(query, oracle))
        assert _pushdown_delta(base).get("store.pushdown_fault", 0) >= 1
        store.close()

    def test_fixedpoint_reruns_after_a_tripped_commit(self, pushdown_always):
        # The fixedpoint creates the Reach delta temp table inside the
        # transaction the tripped commit rolls back; the store must forget
        # that table rather than clear a table that no longer exists.
        program = scaling.grid_reach_program()
        database = Instance(scaling.grid_reach_schema())
        for fact in scaling.grid_reach_facts(300):
            database.add_fact(fact)
        oracle = evaluate_program(program, database, store_backed=False)
        store = SQLStoreInstance(program.combined_schema())
        for fact in database.facts():
            store.add_fact(fact)
        base = store.snapshot()
        faults.install("trip@sql_commit:0")
        with pytest.raises(OSError):
            evaluate_program(program, store, backend="sqlite")
            store.snapshot()
        faults.clear()
        assert store.freeze() == database.freeze()
        store.restore(base)
        assert evaluate_program(program, store, backend="sqlite") is store
        assert store.freeze() == oracle.freeze()
        store.snapshot()
        assert store.verify()["ok"]
        store.close()

    def test_mid_commit_kill_recovers_to_last_snapshot(self, tmp_path):
        """A process killed inside the commit leaves a store that reopens
        to exactly the last durable snapshot."""
        path = str(tmp_path / "crash.db")
        script = (
            "import sys\n"
            f"sys.path.insert(0, {SRC_DIR!r})\n"
            "from repro.relational.schema import make_schema\n"
            "from repro.store import faults\n"
            "from repro.store.sqlstore import SQLStoreInstance\n"
            f"store = SQLStoreInstance(make_schema({{'R': 1}}), {path!r})\n"
            "for i in range(50):\n"
            "    store.add('R', ('keep%d' % i,))\n"
            "store.snapshot()  # durable\n"
            "for i in range(20):\n"
            "    store.add('R', ('lost%d' % i,))\n"
            "faults.install('kill@sql_commit:0')\n"
            "store.snapshot()  # killed mid-commit\n"
            "sys.exit(3)  # unreachable\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True
        )
        assert proc.returncode == faults.KILL_EXIT_CODE, proc.stderr.decode()
        reopened = SQLStoreInstance.open(path)
        assert reopened.size() == 50
        assert reopened.tuples("R") == frozenset(
            {(f"keep{i}",) for i in range(50)}
        )
        assert reopened.verify()["ok"]
        reopened.close()


# ----------------------------------------------------------------------
# Persistence: close/reopen, durability boundary, cross-process hashes
# ----------------------------------------------------------------------
class TestPersistence:
    def test_reopen_sees_exactly_the_committed_state(self, tmp_path):
        path = str(tmp_path / "facts.db")
        schema = make_schema({"R": 2})
        store = SQLStoreInstance(schema, path)
        for i in range(25):
            store.add("R", (f"a{i}", i))
        store.snapshot()
        store.add("R", ("uncommitted", 0))  # never checkpointed
        store.close()

        reopened = SQLStoreInstance.open(path)
        assert reopened.schema.names() == schema.names()
        assert reopened.size() == 25
        assert not reopened.contains("R", ("uncommitted", 0))
        # Fingerprints are recomputed from rows on open, so the reopened
        # store compares equal to a fresh in-memory twin.
        mem = SnapshotInstance(schema)
        for i in range(25):
            mem.add("R", (f"a{i}", i))
        assert reopened.snapshot() == mem.snapshot()
        assert reopened.verify()["ok"]
        reopened.close()

    def test_restore_across_generations_then_reopen(self, tmp_path):
        path = str(tmp_path / "gens.db")
        schema = make_schema({"R": 1})
        store = SQLStoreInstance(schema, path)
        store.add("R", ("one",))
        first = store.snapshot()
        store.add("R", ("two",))
        store.snapshot()
        store.restore(first)
        store.snapshot()  # make the rollback durable
        store.close()
        reopened = SQLStoreInstance.open(path)
        assert reopened.tuples("R") == frozenset({("one",)})
        assert reopened.verify()["ok"]
        reopened.close()


    def test_format_one_store_is_refused(self, tmp_path, capsys):
        # A format-1 file holds tagged TEXT ("s<str>", "i<digits>"); read
        # as format 2 it would answer the tags as strings.
        path = str(tmp_path / "old.db")
        conn = sqlite3.connect(path)
        conn.execute(
            'CREATE TABLE "repro_store_meta" ( k TEXT PRIMARY KEY, v TEXT NOT NULL )'
        )
        conn.executemany(
            'INSERT INTO "repro_store_meta" ( k, v ) VALUES ( ?, ? )',
            [
                ("format", "1"),
                ("schema", '[["R", 2]]'),
                ("count", "1"),
                ("hash_sum", "0"),
                ("hash_xor", "0"),
                ("max_frozen", "1"),
                ("counts", '{"R": 1}'),
            ],
        )
        conn.execute(
            'CREATE TABLE "rel R" ( c0 TEXT NOT NULL, c1 TEXT NOT NULL, '
            "g INTEGER NOT NULL, d INTEGER )"
        )
        conn.execute(
            'INSERT INTO "rel R" VALUES ( ?, ?, 1, NULL )', ("sabc", "i1380")
        )
        conn.commit()
        conn.close()
        for opener in (
            lambda: SQLStoreInstance(make_schema({"R": 2}), path),
            lambda: SQLStoreInstance.open(path),
        ):
            with pytest.raises(SchemaError, match="format '1'.*format '2'"):
                opener()
        from repro.cli import main

        assert main(["store", "info", "--path", path]) == 2
        assert "format '1'" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Probes of the wrong arity (parity across the three backends)
# ----------------------------------------------------------------------
class TestWrongArityProbes:
    def test_every_backend_answers_false(self):
        schema = make_schema({"R": 2})
        stores = [Instance(schema), SnapshotInstance(schema), SQLStoreInstance(schema)]
        for store in stores:
            store.add("R", (1, 2))
            readers = [store]
            if not isinstance(store, Instance):
                readers.append(store.snapshot().view())
            for reader in readers:
                for probe in ((1,), (1, 2, 3), ()):
                    assert ("R", probe) not in reader
                    assert not reader.contains("R", probe)
            assert not store.discard("R", (1,))
            assert not store.discard("R", (1, 2, 3))
            assert store.contains("R", (1, 2))
        stores[2].close()


# ----------------------------------------------------------------------
# Edge values: the SQL store against the memory oracle (hypothesis)
# ----------------------------------------------------------------------
#: Values at the edges of the encoding: the int64 bounds and one past
#: them, integers and integral floats beyond int64, infinities, the
#: numeric collapses, ``None``, and strings that look like numbers or
#: like the tags of the old tagged-TEXT format.
_EDGE_POOL = [
    2**63 - 1,
    2**63,
    -(2**63),
    -(2**63) - 1,
    10**300,
    1e300,
    float("inf"),
    float("-inf"),
    -0.0,
    0,
    True,
    1,
    1.0,
    2.0,
    1.5,
    None,
    "",
    "n",
    "i1",
    "s",
    "1",
    "x\x00y",
]
_EDGE_VALUE = st.sampled_from(_EDGE_POOL)
_EDGE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "discard", "snapshot"]),
        st.sampled_from(["Init", "Edge"]),
        st.tuples(_EDGE_VALUE, _EDGE_VALUE),
    ),
    min_size=1,
    max_size=25,
)


def _canonical(value):
    """The one representative of *value*'s Python equality class."""
    if type(value) is bool:
        return int(value)
    if type(value) is float and value == value and abs(value) != float("inf"):
        if value == int(value):
            return int(value)
    return value


class TestEdgeValuesAgreeWithOracle:
    @pytest.mark.parametrize("threshold", ["1", "1000000000"], ids=["push", "facade"])
    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=_EDGE_OPS, constant=_EDGE_VALUE)
    @example(
        ops=[
            ("add", "Init", (1, 0)),
            ("add", "Init", ("1", 0)),
            ("add", "Edge", (None, "n")),
            ("snapshot", "Init", (0, 0)),
            ("add", "Edge", (None, "n")),
            ("add", "Edge", ("n", 1.5)),
            ("discard", "Edge", (None, "n")),
            ("add", "Edge", (None, "i1")),
        ],
        constant=None,
    )
    @example(
        ops=[
            ("add", "Init", ("1", 0)),
            ("add", "Edge", ("1", 1)),
            ("add", "Edge", (1, 2**63)),
            ("add", "Edge", (2**63, 1e300)),
        ],
        constant="1",
    )
    def test_store_matches_oracle(self, threshold, ops, constant):
        """Probes, joins, a fixedpoint and a reopen agree with the oracle.

        The explicit examples pin the collisions a wrong column affinity
        or a ``NULL`` for ``None`` would cause: ``1`` next to ``'1'``
        (TEXT or ``ANY`` affinity merges them) and ``None`` stored twice
        across a snapshot (``NULL`` is never equal to itself).
        """
        from repro.queries.atoms import Atom
        from repro.queries.cq import ConjunctiveQuery
        from repro.queries.terms import Constant, Variable

        program = scaling.grid_reach_program()
        arity = {"Init": 1, "Edge": 2}
        with mock.patch.dict(
            os.environ, {"REPRO_SQL_PUSHDOWN_MIN_ROWS": threshold}
        ), tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "edge.db")
            sql = SQLStoreInstance(program.combined_schema(), path)
            oracle = Instance(program.edb_schema)
            twin = SnapshotInstance(program.combined_schema())  # canonical values
            for op, name, values in ops:
                tup = values[: arity[name]]
                if op == "snapshot":
                    sql.snapshot()
                elif op == "add":
                    assert sql.add_unchecked(name, tup) == oracle.add_unchecked(
                        name, tup
                    )
                    twin.add_unchecked(name, tuple(map(_canonical, tup)))
                else:
                    assert sql.discard(name, tup) == oracle.discard(name, tup)
                    twin.discard(name, tuple(map(_canonical, tup)))
                assert sql.contains(name, tup) == oracle.contains(name, tup)

            for name in ("Init", "Edge"):
                assert sql.tuples(name) == oracle.tuples(name)
                for position in range(arity[name]):
                    for value in _EDGE_POOL:
                        assert set(sql.index(name, position, value)) == set(
                            oracle.index(name, position, value)
                        )
                for value in _EDGE_POOL:
                    probe = (value, constant)[: arity[name]]
                    assert sql.contains(name, probe) == oracle.contains(name, probe)
            assert sql.snapshot() == twin.snapshot()
            assert encode_key(sql.snapshot()) == encode_key(twin.snapshot())

            x, y, z = Variable("x"), Variable("y"), Variable("z")
            queries = (
                ConjunctiveQuery(atoms=(Atom("Edge", (x, y)), Atom("Edge", (y, z)))),
                ConjunctiveQuery(atoms=(Atom("Init", (x,)), Atom("Edge", (x, y)))),
                ConjunctiveQuery(atoms=(Atom("Edge", (Constant(constant), y)),)),
            )
            base = REGISTRY.counters_snapshot()
            for query in queries:
                assert _multiset(satisfying_assignments(query, sql)) == _multiset(
                    naive_satisfying_assignments(query, oracle)
                ), str(query)
            pushed = _pushdown_delta(base).get("store.pushdown", 0)
            assert pushed >= 1 if threshold == "1" and sql.size() else pushed == 0

            # The dict oracle's validated Datalog path rejects bools, so
            # it runs on the canonical twin's facts.
            expected = evaluate_program(
                program, twin.to_instance(), store_backed=False
            )
            assert evaluate_program(program, sql, backend="sqlite") is sql
            for name in ("Init", "Edge", "Reach"):
                assert sql.tuples(name) == expected.tuples(name)
            sql.snapshot()
            sql.close()

            reopened = SQLStoreInstance.open(path)
            for name in ("Init", "Edge", "Reach"):
                assert reopened.tuples(name) == expected.tuples(name)
            assert reopened.verify()["ok"]
            reopened.close()


# ----------------------------------------------------------------------
# Fixedpoints: random programs, SQL in place and as a copy, the oracle
# ----------------------------------------------------------------------
#: Fact values and rule constants: numeric collapses, ``None``, integers
#: beyond int64 and strings that look like numbers or tags.
_FIXPOINT_POOL = [0, 1, True, 1.0, 2.0, 1.5, None, 10**300, 2**63, "1", "n"]


def _fixpoint_rules(templates, constants):
    """Rules over ``E/2``, ``I/1`` (EDB) and ``R/2``, ``S/1`` (IDB).

    The two base rules always fire; *templates* picks extra rules, many
    deriving the same head, each with its own constant.  Head constants
    are canonical: the validated Datalog path rejects ``True`` as a
    value of an untyped position on every backend.
    """
    from repro.datalog.program import Rule
    from repro.queries.atoms import Atom
    from repro.queries.terms import Constant, Variable

    x, y, z = Variable("x"), Variable("y"), Variable("z")

    def make(template, value):
        c, head_c = Constant(value), Constant(_canonical(value))
        return [
            Rule(Atom("R", (x, z)), (Atom("R", (x, y)), Atom("E", (y, z)))),
            Rule(Atom("R", (x, z)), (Atom("E", (x, y)), Atom("R", (y, z)))),
            Rule(Atom("R", (x, head_c)), (Atom("I", (x,)),)),
            Rule(Atom("R", (x, y)), (Atom("E", (x, y)), Atom("I", (y,)))),
            Rule(Atom("R", (x, y)), (Atom("S", (x,)), Atom("S", (y,)))),
            Rule(Atom("S", (y,)), (Atom("S", (x,)), Atom("E", (x, y)))),
            Rule(Atom("S", (y,)), (Atom("R", (c, y)),)),
            Rule(Atom("S", (head_c,)), (Atom("R", (x, x)),)),
            Rule(Atom("S", (x,)), (Atom("E", (x, c)),)),
        ][template]

    rules = [
        Rule(Atom("R", (x, y)), (Atom("E", (x, y)),)),
        Rule(Atom("S", (x,)), (Atom("I", (x,)),)),
    ]
    rules.extend(make(t, c) for t, c in zip(templates, constants))
    return rules


_FIXPOINT_VALUE = st.sampled_from(_FIXPOINT_POOL)


class TestFixedpointAgreesWithOracle:
    @pytest.mark.parametrize("threshold", ["1", "1000000000"], ids=["push", "facade"])
    @settings(
        max_examples=30,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        templates=st.lists(st.integers(0, 8), min_size=1, max_size=5),
        constants=st.lists(_FIXPOINT_VALUE, min_size=5, max_size=5),
        edges=st.lists(st.tuples(_FIXPOINT_VALUE, _FIXPOINT_VALUE), max_size=10),
        seeds=st.lists(_FIXPOINT_VALUE, max_size=4),
    )
    def test_sql_fixedpoint_matches_oracle(
        self, threshold, templates, constants, edges, seeds
    ):
        """In place and as a copy, the SQL fixedpoint is the oracle's.

        Same facts, same round count, same fingerprint; a generation log
        holds committed snapshots that restore exactly; and a discard
        after a pin leaves what the pinned view reads unchanged.
        """
        from repro.datalog.program import DatalogProgram

        program = DatalogProgram(
            rules=_fixpoint_rules(templates, constants),
            edb_schema=make_schema({"E": 2, "I": 1}),
            goal="S",
        )
        combined = program.combined_schema()
        raw = [("E", tup) for tup in edges] + [("I", (v,)) for v in seeds]
        # The oracle and the copy run on canonical values; the in-place
        # store ingests the raw ones, collapsing True/1/1.0 on write.
        database = Instance(program.edb_schema)
        for name, tup in raw:
            database.add_unchecked(name, tuple(map(_canonical, tup)))

        def rounds_of(run):
            base = REGISTRY.counters_snapshot()
            result = run()
            rounds = REGISTRY.counters_delta(base).get("datalog.fixedpoint_rounds")
            return result, rounds

        with mock.patch.dict(
            os.environ, {"REPRO_SQL_PUSHDOWN_MIN_ROWS": threshold}
        ), tempfile.TemporaryDirectory() as directory:
            oracle, oracle_rounds = rounds_of(
                lambda: evaluate_program(program, database, store_backed=False)
            )
            expected = SnapshotInstance.from_instance(oracle).snapshot()

            store = SQLStoreInstance(combined)
            for name, tup in raw:
                store.add_unchecked(name, tup)
            base = store.snapshot()
            in_place, in_place_rounds = rounds_of(
                lambda: evaluate_program(program, store, backend="sqlite")
            )
            copy, copy_rounds = rounds_of(
                lambda: evaluate_program(program, database, backend="sqlite")
            )
            assert in_place is store and copy is not store
            assert in_place_rounds == copy_rounds == oracle_rounds
            for result in (in_place, copy):
                for name in combined.names():
                    assert result.tuples(name) == oracle.tuples(name), name
                fingerprint = result.fingerprint()
                assert fingerprint == expected
                assert hash(fingerprint) == hash(expected)
                assert result.verify()["ok"]

            # A pin frozen over uncommitted rows keeps reading them after
            # the head discards them and adds another fact.
            store.restore(base)
            evaluate_program(program, store, backend="sqlite")
            pinned = store.pin()
            seen = set(pinned.facts())
            derived = sorted((f for f in seen if f[0] in ("R", "S")), key=repr)
            for fact in derived[:3]:
                assert store.discard(*fact)
                assert pinned.contains(*fact)
            store.add_unchecked("I", ("late",))
            assert set(pinned.facts()) == seen
            assert not pinned.contains("I", ("late",))
            store.close()
            copy.close()

            # A generation log holds committed snapshots that restore exactly.
            path = os.path.join(directory, "log.db")
            logged = SQLStoreInstance(combined, path)
            for name, tup in raw:
                logged.add_unchecked(name, tup)
            sql_log, mem_log = [], []
            evaluate_program(
                program, logged, backend="sqlite", generation_log=sql_log
            )
            evaluate_program(program, database, generation_log=mem_log)
            assert sql_log == mem_log and len(sql_log) == oracle_rounds
            committed = sqlite3.connect(path)
            for name in combined.names():
                live = committed.execute(sqlcodegen.count_live_sql(name))
                assert live.fetchone()[0] == sql_log[-1].relation_counts().get(name, 0)
            committed.close()
            for snap, twin in reversed(list(zip(sql_log, mem_log))):
                logged.restore(snap)
                assert logged.snapshot() == twin
                assert logged.verify()["ok"]
            logged.close()


# ----------------------------------------------------------------------
# Backend selection (``evaluate_program(backend=...)``)
# ----------------------------------------------------------------------
class TestBackendFactory:
    def test_default_is_memory(self, monkeypatch):
        # No environment variable picks the store: an unset backend is
        # the memory store even where the retired REPRO_STORE_BACKEND
        # knob names SQLite.
        monkeypatch.setenv("REPRO_STORE_BACKEND", SQLITE_BACKEND)
        program, database = _grid_workload(40)
        result = evaluate_program(program, database)
        assert isinstance(result, SnapshotInstance)
        explicit = evaluate_program(program, database, backend=MEMORY_BACKEND)
        assert result.freeze() == explicit.freeze()

    def test_unknown_backend_rejected(self):
        program, database = _grid_workload(40)
        with pytest.raises(ValueError, match="duckdb"):
            evaluate_program(program, database, backend="duckdb")
