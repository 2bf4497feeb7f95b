"""Semi-naive rounds on the SQLite store, kept inside SQLite.

A Datalog round on :class:`~repro.store.sqlstore.SQLStoreInstance` stages
the head rows of pushed-down delta variants with ``INSERT ... SELECT``,
stages the head tuples of declined variants (and of fallback rules and
naive mode) with one ``executemany``, and turns the staged rows into the
next delta with one anti-join.  These tests check the result against the
dict oracle and the memory backend on generated programs, and pin the
mechanism with counts: which tuples Python encodes, how many facts it
hashes and how many statements a round issues.
"""

from __future__ import annotations

import os
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.datalog.evaluation import evaluate_program
from repro.datalog.program import DatalogProgram, Rule
from repro.obs.metrics import REGISTRY
from repro.queries.atoms import Atom, Equality, Inequality
from repro.queries.terms import Constant, Variable
from repro.relational.instance import Instance
from repro.relational.schema import make_schema
from repro.store import faults, sqlstore
from repro.store.snapshot import SnapshotInstance
from repro.store.sqlstore import SQLStoreInstance
from repro.workloads import scaling

x, y, z = Variable("x"), Variable("y"), Variable("z")

#: Rows of the background relation ``B``: enough to cross the default
#: pushdown threshold, so a default-threshold round pushes the ``B`` join
#: down while its smaller variants decline.
_B_ROWS = 600
_B_BASE = 1000

#: Fact values: ``None`` and an integer beyond int64 are BLOB-tagged in
#: SQLite; ``_B_BASE`` and its successor lead into ``B``.
_VALUES = st.sampled_from(
    [0, 1, 2, 1.5, "a", "1", None, 2**70, _B_BASE, _B_BASE + 1]
)

#: Extra rules over EDB ``E/2``, ``I/1``, ``B/2``, ``F/1`` and IDB
#: ``R/2``, ``S/1`` (mutually recursive) and the nullary ``Z``.
_TEMPLATES = (
    # R and S are mutually recursive.
    lambda c: Rule(Atom("R", (x, z)), (Atom("R", (x, y)), Atom("E", (y, z)))),
    lambda c: Rule(Atom("S", (y,)), (Atom("R", (x, y)), Atom("S", (x,)))),
    lambda c: Rule(Atom("R", (x, y)), (Atom("S", (x,)), Atom("E", (x, y)))),
    # A head constant, and a head variable used twice.
    lambda c: Rule(Atom("R", (x, Constant(c))), (Atom("I", (x,)),)),
    lambda c: Rule(Atom("R", (x, x)), (Atom("S", (x,)),)),
    # Body equalities and inequalities, with constants too.
    lambda c: Rule(
        Atom("S", (x,)),
        (Atom("E", (x, y)), Atom("E", (y, z))),
        equalities=(Equality(x, z),),
    ),
    lambda c: Rule(
        Atom("R", (x, z)),
        (Atom("R", (x, y)), Atom("R", (y, z))),
        inequalities=(Inequality(x, z), Inequality(y, Constant(c))),
    ),
    # A nullary head, and a rule reading the nullary delta.
    lambda c: Rule(Atom("Z", ()), (Atom("R", (x, x)),)),
    lambda c: Rule(Atom("S", (Constant(c),)), (Atom("Z", ()), Atom("I", (x,)))),
    # The background join the default threshold pushes down.
    lambda c: Rule(Atom("S", (y,)), (Atom("S", (x,)), Atom("B", (x, y)))),
    # An empty body, and a rule the slot compiler falls back on (its
    # comparison variable occurs in no atom: any match raises KeyError).
    lambda c: Rule(Atom("S", (Constant(c),)), ()),
    lambda c: Rule(Atom("S", (x,)), (Atom("F", (x,)),), inequalities=(Inequality(y, y),)),
)


def _program(templates, constants):
    rules = [
        Rule(Atom("R", (x, y)), (Atom("E", (x, y)),)),
        Rule(Atom("S", (x,)), (Atom("I", (x,)),)),
    ]
    rules.extend(_TEMPLATES[t](c) for t, c in zip(templates, constants))
    # Z stays declared even when no template derives it.
    rules.append(Rule(Atom("Z", ()), (Atom("F", (x,)), Atom("I", (x,)))))
    return DatalogProgram(
        rules=rules,
        edb_schema=make_schema({"E": 2, "I": 1, "B": 2, "F": 1}),
        goal="S",
    )


def _database(program, edges, seeds, flagged):
    database = Instance(program.edb_schema)
    for a, b in edges:
        database.add("E", (a, b))
    for value in seeds:
        database.add("I", (value,))
    for value in flagged:
        database.add("F", (value,))
    for i in range(_B_ROWS):
        database.add("B", (_B_BASE + i, _B_BASE + i + 1))
    return database


def _run(program, database, **kwargs):
    """``(result, rounds)`` of one fixedpoint, or ``(exception type, None)``."""
    base = REGISTRY.counters_snapshot()
    try:
        result = evaluate_program(program, database, **kwargs)
    except KeyError:
        return KeyError, None
    return result, REGISTRY.counters_delta(base).get("datalog.fixedpoint_rounds")


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


class TestSqlRoundsAgreeWithOracle:
    @pytest.mark.parametrize("threshold", ["1", None], ids=["push", "default"])
    @settings(
        max_examples=25,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        templates=st.lists(
            st.integers(0, len(_TEMPLATES) - 1), min_size=1, max_size=6
        ),
        constants=st.lists(_VALUES, min_size=6, max_size=6),
        edges=st.lists(st.tuples(_VALUES, _VALUES), max_size=8),
        seeds=st.lists(_VALUES, max_size=4),
        flagged=st.lists(_VALUES, max_size=1),
        trip=st.integers(0, 4),
    )
    @example(  # every template at once, the fallback rule unmatched
        templates=list(range(len(_TEMPLATES))) * 2,
        constants=[None, 2**70, "a", 1.5, 0, _B_BASE] * 4,
        edges=[(0, 1), (1, 0), (1, None), (None, 2**70), (2**70, 0), ("a", "a")],
        seeds=[0, None, _B_BASE],
        flagged=[],
        trip=2,
    )
    @example(  # the fallback rule matched: every backend raises alike
        templates=[len(_TEMPLATES) - 1],
        constants=[0] * 6,
        edges=[],
        seeds=[1],
        flagged=[1],
        trip=0,
    )
    def test_fixedpoint_matches_oracle_and_memory_log(
        self, threshold, templates, constants, edges, seeds, flagged, trip
    ):
        """In place, copied, logged and with a tripped pushdown: the oracle's facts.

        Each SQLite run has the oracle's facts and round count, its
        fingerprint equals the memory backend's snapshot (hash too), and
        ``verify()`` holds.  A generation log equals the memory backend's
        round by round.
        """
        program = _program(templates, constants)
        database = _database(program, edges, seeds, flagged)
        env = {} if threshold is None else {"REPRO_SQL_PUSHDOWN_MIN_ROWS": threshold}
        with mock.patch.dict(os.environ, env):
            if threshold is None:
                os.environ.pop("REPRO_SQL_PUSHDOWN_MIN_ROWS", None)
            oracle, rounds = _run(program, database, store_backed=False)
            if oracle is KeyError:
                # The fallback rule matched: every backend raises alike.
                assert _run(program, database, backend="sqlite")[0] is KeyError
                assert _run(program, database, backend="memory")[0] is KeyError
                return
            mem_log = []
            memory = evaluate_program(
                program, database, backend="memory", generation_log=mem_log
            )
            expected = memory.snapshot()
            assert expected == SnapshotInstance.from_instance(oracle).snapshot()

            def check(result, result_rounds):
                assert result_rounds == rounds
                for name in program.combined_schema().names():
                    assert result.tuples(name) == oracle.tuples(name), name
                fingerprint = result.fingerprint()
                assert fingerprint == expected
                assert hash(fingerprint) == hash(expected)
                assert result.verify()["ok"]

            store = SQLStoreInstance.from_instance(
                _widen(database, program.combined_schema())
            )
            base = store.snapshot()
            in_place, in_place_rounds = _run(program, store, backend="sqlite")
            assert in_place is store
            check(in_place, in_place_rounds)

            copy, copy_rounds = _run(program, database, backend="sqlite")
            assert copy is not store
            check(copy, copy_rounds)
            copy.close()

            # A scripted pushdown failure mid-fixedpoint declines that
            # variant; the round derives it in Python instead.
            store.restore(base)
            faults.install("trip@sql_pushdown:" + str(trip))
            tripped, tripped_rounds = _run(program, store, backend="sqlite")
            faults.clear()
            check(tripped, tripped_rounds)

            store.restore(base)
            sql_log = []
            evaluate_program(program, store, backend="sqlite", generation_log=sql_log)
            assert len(sql_log) == len(mem_log) == rounds
            for sql_gen, mem_gen in zip(sql_log, mem_log):
                assert sql_gen == mem_gen
                assert hash(sql_gen) == hash(mem_gen)
            assert store.verify()["ok"]
            store.close()


def _widen(database, schema):
    """*database*'s facts over *schema* (the in-place store's vocabulary)."""
    widened = Instance(schema)
    for fact in database.facts():
        widened.add_fact(fact)
    return widened


# ----------------------------------------------------------------------
# The mechanism, pinned with counts
# ----------------------------------------------------------------------
_GRID_FACTS = 2000


def _grid_store():
    program = scaling.grid_reach_program()
    store = SQLStoreInstance(program.combined_schema())
    store.add_facts(scaling.grid_reach_facts(_GRID_FACTS))
    store.snapshot()
    return program, store


class TestSqlRoundMechanism:
    def test_pushed_down_rows_never_pass_through_python(self, monkeypatch):
        """Only round 1's declined ``Init`` variant encodes tuples in Python,
        each new fact is hashed exactly once, and a round issues a bounded
        number of statements."""
        program, store = _grid_store()
        seeds = set(store.tuples("Init"))
        encoded, hashed, statements = [], [], []
        real_encode, real_hash = sqlstore._encode_tuple, sqlstore._fact_hash

        def encode(tup):
            encoded.append(tuple(tup))
            return real_encode(tup)

        def fact_hash(name, tup):
            hashed.append((name, tup))
            return real_hash(name, tup)

        monkeypatch.setattr(sqlstore, "_encode_tuple", encode)
        monkeypatch.setattr(sqlstore, "_fact_hash", fact_hash)
        base = REGISTRY.counters_snapshot()
        store._conn.set_trace_callback(statements.append)
        assert evaluate_program(program, store, backend="sqlite") is store
        store._conn.set_trace_callback(None)
        delta = REGISTRY.counters_delta(base)
        rounds = delta["datalog.fixedpoint_rounds"]

        reach = store.tuples("Reach")
        assert len(reach) == _GRID_FACTS
        # Every later round's variant pushes down (one per round but the
        # first), and none of their rows is encoded by Python.
        assert delta["store.pushdown"] == rounds - 1
        assert sorted(encoded, key=repr) == sorted(seeds, key=repr)
        # One hash per new fact: the round's single read of its delta.
        assert len(hashed) == len(set(hashed)) == len(reach)
        assert {tup for _, tup in hashed} == reach
        # About six statements a round (stage, clear and fill the delta,
        # clear the stage, read the new facts, add them).
        assert rounds > 100
        assert len(statements) <= 7 * rounds
        assert store.verify()["ok"]
        store.close()

    def test_rerun_after_truncation_in_one_transaction(self):
        """A truncated fixedpoint leaves its last delta in the round tables;
        a second fixedpoint in the same transaction still reaches the
        oracle's fixedpoint."""
        program, store = _grid_store()
        oracle = evaluate_program(program, store.to_instance(), store_backed=False)
        partial = evaluate_program(
            program, store, backend="sqlite", max_rounds=3, allow_truncation=True
        )
        assert 0 < partial.relation_count("Reach") < _GRID_FACTS
        assert evaluate_program(program, store, backend="sqlite") is store
        assert store.freeze() == oracle.freeze()
        assert store.verify()["ok"]
        store.close()
