"""The one module allowed to contain SQL text (lint rule SQL002).

Every statement the SQLite store backend (:mod:`repro.store.sqlstore`)
executes is built here, and only as **parameterised** SQL: data values
always travel as ``?`` bindings, never interpolated into statement text,
and identifiers (table/column/alias names) are assembled from vetted
fragments — relation names pass through :func:`quote_ident`, columns and
aliases are generated as ``c<i>`` / ``t<i>``.  Statement text is joined
from fragment lists; f-strings, ``%``-formatting, ``.format`` and ``+``
concatenation of SQL are banned even here (SQL002 enforces both halves:
no SQL text outside this module, no interpolated SQL inside it).

The second half of the module is the **join compiler**: it lowers a
compiled slot plan (:class:`repro.queries.plan_cache.QueryPlan`,
including the semi-naive delta variants) to a single parameterised
``SELECT`` over the per-relation tables.  The lowering is mechanical —
each plan opcode has one SQL image:

* ``_OP_CONST``  → ``t<i>.c<p> = ?``  (the encoded constant as a param);
* ``_OP_CHECK``  → ``t<i>.c<p> = t<j>.c<q>``  (the slot's binding site);
* ``_OP_BIND``   → records ``slot -> (alias, column)`` (first bind wins);
* compiled comparisons → ``=`` / ``<>`` over binding-site columns and
  encoded-constant params;
* per-atom row visibility → the MVCC predicate of the atom's source
  (live head, a pinned snapshot generation, or a per-round delta temp
  table, which carries no visibility column at all).

A Datalog delta variant lowers the same way into ``INSERT INTO <derived
table of the head> SELECT <head columns and constants> FROM <the join>``
(:func:`compile_stage_sql`), so a semi-naive round on the SQLite store
derives, de-duplicates and adds its facts without moving them through
Python (see the round statements below the DDL).

Because a fact's validity intervals are disjoint by construction (see
``sqlstore``), at most one row per fact is visible to any generation, so
the join needs no ``DISTINCT`` to agree with the in-memory executor's
assignment multiplicity.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from repro.queries import plan_cache as _pc

# ----------------------------------------------------------------------
# Identifiers
# ----------------------------------------------------------------------
#: Prefix of per-relation data tables (quoted, so any relation name works).
_TABLE_PREFIX = "rel "
#: Prefix of per-round delta temp tables.
_DELTA_PREFIX = "delta "
#: Prefix of the per-round derived-tuple temp tables of a fixedpoint.
_DERIVED_PREFIX = "derived "
#: Name of the store metadata table.
META_TABLE = "repro_store_meta"

#: Entries per cached point-probe builder.  A probe's text depends only
#: on its (relation, arity[, position]) key, so a hot loop of probes
#: builds each statement once (and hits SQLite's statement cache).
_PROBE_CACHE_SIZE = 1024


def quote_ident(name: str) -> str:
    """*name* as a double-quoted SQL identifier (embedded quotes doubled)."""
    if "\x00" in name:
        raise ValueError("SQL identifiers cannot contain NUL")
    return '"' + name.replace('"', '""') + '"'


def table_for(relation: str) -> str:
    """The quoted data-table identifier of *relation*."""
    return quote_ident(_TABLE_PREFIX + relation)


def delta_table_for(relation: str) -> str:
    """The quoted per-round delta temp-table identifier of *relation*."""
    return quote_ident(_DELTA_PREFIX + relation)


def derived_table_for(relation: str) -> str:
    """The quoted per-round derived-tuple temp-table identifier of *relation*."""
    return quote_ident(_DERIVED_PREFIX + relation)


def column(position: int) -> str:
    """The value column of tuple position *position* (``c0``, ``c1``, ...)."""
    return "c" + str(int(position))


def _alias(index: int) -> str:
    return "t" + str(int(index))


def _columns(arity: int) -> List[str]:
    return [column(position) for position in range(arity)]


def _select_columns(arity: int) -> str:
    """The result-column list of a tuple select.

    A nullary relation has no value columns, but SQL requires at least
    one result column — select ``g`` instead; the store decodes every
    row of a nullary select as the empty tuple regardless of content.
    """
    return ", ".join(_columns(arity)) if arity else "g"


# ----------------------------------------------------------------------
# Fixed statements (transactions, pragmas)
# ----------------------------------------------------------------------
SQL_BEGIN = "BEGIN IMMEDIATE"
SQL_COMMIT = "COMMIT"
SQL_ROLLBACK = "ROLLBACK"
SQL_INTEGRITY_CHECK = "PRAGMA integrity_check"

#: Pragmas for a file-backed store: WAL keeps readers unblocked during
#: ingest and ``synchronous=NORMAL`` is durable at every checkpoint
#: (transaction commit) on WAL, which is exactly the store's durability
#: contract — snapshots are the durability points.
FILE_PRAGMAS = (
    "PRAGMA journal_mode=WAL",
    "PRAGMA synchronous=NORMAL",
)
#: Pragmas for an anonymous scratch store (``connect("")``): the database
#: is deleted on close, so journalling buys nothing — trade crash safety
#: (already void) for ingest speed.
SCRATCH_PRAGMAS = (
    "PRAGMA journal_mode=MEMORY",
    "PRAGMA synchronous=OFF",
)


# ----------------------------------------------------------------------
# DDL
# ----------------------------------------------------------------------
def create_relation_table_sql(relation: str, arity: int) -> List[str]:
    """Statements creating one relation's table and its indexes.

    Layout: value columns ``c0..c{arity-1}`` declared ``BLOB NOT NULL``
    (values in SQLite's storage classes — TEXT, INTEGER, REAL, plus the
    BLOB tags ``b"n"`` for ``None`` and ``b"i<digits>"`` for integers
    outside int64, see ``sqlstore.encode_value``), ``g`` — the
    generation the row became visible, ``d`` — the generation it
    stopped being visible (``NULL`` = still live).  BLOB affinity keeps
    every value exactly as bound: TEXT affinity would store ``1`` as
    ``'1'``, and the NUMERIC affinity an ``ANY`` column gets outside a
    STRICT table would store ``'1'`` as ``1``.  Indexes: one per value
    position (the plan executor's index probes), plus a partial UNIQUE
    index over the value columns of *live* rows — the O(log n)
    membership/dedup probe, and the invariant that a fact has at most
    one live row.
    """
    table = table_for(relation)
    cols = _columns(arity)
    decls = [" ".join([name, "BLOB", "NOT", "NULL"]) for name in cols]
    decls.append("g INTEGER NOT NULL")
    decls.append("d INTEGER")
    statements = [
        " ".join(
            ["CREATE TABLE IF NOT EXISTS", table, "(", ", ".join(decls), ")"]
        )
    ]
    for position in range(arity):
        index_name = quote_ident(
            "idx " + relation + " " + column(position)
        )
        statements.append(
            " ".join(
                [
                    "CREATE INDEX IF NOT EXISTS",
                    index_name,
                    "ON",
                    table,
                    "(",
                    column(position),
                    ")",
                ]
            )
        )
    live_name = quote_ident("live " + relation)
    # A nullary relation's one fact is the empty tuple: uniqueness of the
    # live row is over the constant expression ( g * 0 ) (SQLite indexes
    # need at least one column-referencing expression).
    live_cols = ", ".join(cols) if cols else "( g * 0 )"
    statements.append(
        " ".join(
            [
                "CREATE UNIQUE INDEX IF NOT EXISTS",
                live_name,
                "ON",
                table,
                "(",
                live_cols,
                ")",
                "WHERE d IS NULL",
            ]
        )
    )
    return statements


def create_meta_table_sql() -> str:
    """The key/value metadata table (schema, counters, frozen generation)."""
    return " ".join(
        [
            "CREATE TABLE IF NOT EXISTS",
            quote_ident(META_TABLE),
            "( k TEXT PRIMARY KEY, v TEXT NOT NULL )",
        ]
    )


def meta_upsert_sql() -> str:
    return " ".join(
        [
            "INSERT INTO",
            quote_ident(META_TABLE),
            "( k, v ) VALUES ( ?, ? )",
            "ON CONFLICT ( k ) DO UPDATE SET v = excluded.v",
        ]
    )


def meta_select_sql() -> str:
    return " ".join(["SELECT k, v FROM", quote_ident(META_TABLE)])


def _temp_value_decls(arity: int) -> List[str]:
    """Column declarations of a delta or derived temp table.

    Value columns are ``BLOB NOT NULL`` like the relation tables', so a
    temp row compares with a stored row exactly as the facts do.  A
    nullary relation gets one constant dummy column ``z`` (tables need
    at least one); each row still means one occurrence of the empty
    tuple.
    """
    decls = [" ".join([name, "BLOB", "NOT", "NULL"]) for name in _columns(arity)]
    return decls or ["z INTEGER NOT NULL"]


def _temp_columns(arity: int) -> str:
    """The column list of a delta or derived temp table."""
    return ", ".join(_columns(arity)) if arity else "z"


def _temp_values(arity: int) -> str:
    """Stored value columns as a temp-table row (``0`` for the dummy ``z``)."""
    return ", ".join(_columns(arity)) if arity else "0"


def create_delta_table_sql(relation: str, arity: int) -> str:
    """A per-round delta temp table (connection-local, no MVCC columns)."""
    return " ".join(
        [
            "CREATE TEMP TABLE IF NOT EXISTS",
            delta_table_for(relation),
            "(",
            ", ".join(_temp_value_decls(arity)),
            ")",
        ]
    )


@lru_cache(maxsize=_PROBE_CACHE_SIZE)
def clear_delta_sql(relation: str) -> str:
    return " ".join(["DELETE FROM", delta_table_for(relation)])


def create_derived_table_sql(relation: str, arity: int) -> str:
    """A per-round derived-tuple temp table (one row per derivation)."""
    return " ".join(
        [
            "CREATE TEMP TABLE IF NOT EXISTS",
            derived_table_for(relation),
            "(",
            ", ".join(_temp_value_decls(arity)),
            ")",
        ]
    )


@lru_cache(maxsize=_PROBE_CACHE_SIZE)
def clear_derived_sql(relation: str) -> str:
    return " ".join(["DELETE FROM", derived_table_for(relation)])


@lru_cache(maxsize=_PROBE_CACHE_SIZE)
def insert_derived_sql(relation: str, arity: int) -> str:
    """Stage one tuple derived in Python (params: its encoded values)."""
    params = ", ".join(["?"] * arity) if arity else "0"
    return " ".join(
        [
            "INSERT INTO",
            derived_table_for(relation),
            "(",
            _temp_columns(arity),
            ") VALUES (",
            params,
            ")",
        ]
    )


def fill_delta_from_live_sql(relation: str, arity: int) -> str:
    """Copy every live fact of *relation* into its delta table (round 1)."""
    return " ".join(
        [
            "INSERT INTO",
            delta_table_for(relation),
            "(",
            _temp_columns(arity),
            ") SELECT",
            _temp_values(arity),
            "FROM",
            table_for(relation),
            "WHERE d IS NULL",
        ]
    )


@lru_cache(maxsize=_PROBE_CACHE_SIZE)
def new_delta_sql(relation: str, arity: int) -> str:
    """Move the distinct derived tuples that have no live row into the delta.

    One ``SELECT DISTINCT`` anti-join against the partial UNIQUE index
    over live rows: the round's new facts, each once, never leaving
    SQLite.
    """
    conditions = [
        " ".join([".".join(["t", column(p)]), "=", ".".join(["s", column(p)])])
        for p in range(arity)
    ]
    conditions.append("t.d IS NULL")
    values = (
        ", ".join(".".join(["s", column(p)]) for p in range(arity)) if arity else "0"
    )
    return " ".join(
        [
            "INSERT INTO",
            delta_table_for(relation),
            "(",
            _temp_columns(arity),
            ") SELECT DISTINCT",
            values,
            "FROM",
            derived_table_for(relation),
            "s WHERE NOT EXISTS ( SELECT 1 FROM",
            table_for(relation),
            "t WHERE",
            " AND ".join(conditions),
            ")",
        ]
    )


@lru_cache(maxsize=_PROBE_CACHE_SIZE)
def select_delta_sql(relation: str, arity: int) -> str:
    """The rows of *relation*'s delta table (a nullary row selects ``z``)."""
    return " ".join(
        ["SELECT", _temp_columns(arity), "FROM", delta_table_for(relation)]
    )


@lru_cache(maxsize=_PROBE_CACHE_SIZE)
def insert_live_from_delta_sql(relation: str, arity: int) -> str:
    """Add every delta row as a live fact at generation ``?``.

    A plain ``INSERT``: the delta holds only facts the anti-join of
    :func:`new_delta_sql` found absent, so a live duplicate would be a
    bookkeeping fault and fails the partial UNIQUE index loudly.
    """
    cols = ", ".join(_columns(arity))
    cols_prefix = cols + "," if cols else ""
    return " ".join(
        [
            "INSERT INTO",
            table_for(relation),
            "(",
            cols_prefix,
            "g, d ) SELECT",
            cols_prefix,
            "?, NULL FROM",
            delta_table_for(relation),
        ]
    )


# ----------------------------------------------------------------------
# DML / point queries
# ----------------------------------------------------------------------
def _eq_all(prefix: str, arity: int) -> str:
    """``c0 = ? AND c1 = ? ...`` (optionally alias-qualified).

    Arity 0 yields the trivially-true predicate: the empty tuple matches
    every row of its (nullary) relation.
    """
    if not arity:
        return "1 = 1"
    parts = []
    for position in range(arity):
        name = column(position) if not prefix else ".".join([prefix, column(position)])
        parts.append(" ".join([name, "=", "?"]))
    return " AND ".join(parts)


def insert_live_sql(relation: str, arity: int) -> str:
    """Insert a live row at generation ``?`` unless the fact is already live."""
    if not arity:
        return " ".join(
            [
                "INSERT OR IGNORE INTO",
                table_for(relation),
                "( g, d ) VALUES ( ?, NULL )",
            ]
        )
    params = ", ".join(["?"] * arity)
    return " ".join(
        [
            "INSERT OR IGNORE INTO",
            table_for(relation),
            "(",
            ", ".join(_columns(arity)),
            ", g, d ) VALUES (",
            params,
            ", ?, NULL )",
        ]
    )


@lru_cache(maxsize=_PROBE_CACHE_SIZE)
def delete_unfrozen_fact_sql(relation: str, arity: int) -> str:
    """Delete the live row of a fact *iff* it was added after the last freeze."""
    return " ".join(
        [
            "DELETE FROM",
            table_for(relation),
            "WHERE",
            _eq_all("", arity),
            "AND d IS NULL AND g > ?",
        ]
    )


@lru_cache(maxsize=_PROBE_CACHE_SIZE)
def kill_live_fact_sql(relation: str, arity: int) -> str:
    """Tombstone a frozen live row at the working generation ``?``."""
    return " ".join(
        [
            "UPDATE",
            table_for(relation),
            "SET d = ? WHERE",
            _eq_all("", arity),
            "AND d IS NULL",
        ]
    )


@lru_cache(maxsize=_PROBE_CACHE_SIZE)
def live_exists_sql(relation: str, arity: int) -> str:
    return " ".join(
        [
            "SELECT 1 FROM",
            table_for(relation),
            "WHERE",
            _eq_all("", arity),
            "AND d IS NULL LIMIT 1",
        ]
    )


@lru_cache(maxsize=_PROBE_CACHE_SIZE)
def at_exists_sql(relation: str, arity: int) -> str:
    """Membership at a pinned generation (params: values..., g, g)."""
    return " ".join(
        [
            "SELECT 1 FROM",
            table_for(relation),
            "WHERE",
            _eq_all("", arity),
            "AND g <= ? AND ( d IS NULL OR d > ? ) LIMIT 1",
        ]
    )


def select_live_sql(relation: str, arity: int) -> str:
    return " ".join(
        [
            "SELECT",
            _select_columns(arity),
            "FROM",
            table_for(relation),
            "WHERE d IS NULL",
        ]
    )


def select_at_sql(relation: str, arity: int) -> str:
    return " ".join(
        [
            "SELECT",
            _select_columns(arity),
            "FROM",
            table_for(relation),
            "WHERE g <= ? AND ( d IS NULL OR d > ? )",
        ]
    )


@lru_cache(maxsize=_PROBE_CACHE_SIZE)
def select_live_index_sql(relation: str, arity: int, position: int) -> str:
    """Live tuples whose *position*-th value equals ``?`` (index probe)."""
    return " ".join(
        [
            select_live_sql(relation, arity),
            "AND",
            column(position),
            "=",
            "?",
        ]
    )


@lru_cache(maxsize=_PROBE_CACHE_SIZE)
def select_at_index_sql(relation: str, arity: int, position: int) -> str:
    return " ".join(
        [
            select_at_sql(relation, arity),
            "AND",
            column(position),
            "=",
            "?",
        ]
    )


def count_live_sql(relation: str) -> str:
    return " ".join(
        ["SELECT COUNT(*) FROM", table_for(relation), "WHERE d IS NULL"]
    )


# ----------------------------------------------------------------------
# Restore (rolling the head back to an older snapshot generation; the
# last committed one is a plain ROLLBACK)
# ----------------------------------------------------------------------
def kill_after_sql(relation: str) -> str:
    """Tombstone (at working gen ``?``) live rows born after generation ``?``."""
    return " ".join(
        [
            "UPDATE",
            table_for(relation),
            "SET d = ? WHERE d IS NULL AND g > ?",
        ]
    )


def reinsert_interval_sql(relation: str, arity: int) -> str:
    """Re-open (at working gen ``?``) facts visible at ``?`` but dead by ``?``.

    Parameters in order: working generation, restore target S, S again,
    last frozen generation.  Copies every row with ``g <= S AND d > S AND
    d <= max_frozen`` as a fresh live row — together with
    :func:`kill_after_sql` this makes head visibility equal visibility at
    S without touching any frozen interval.
    """
    cols = ", ".join(_columns(arity))
    cols_prefix = cols + "," if cols else ""
    return " ".join(
        [
            "INSERT INTO",
            table_for(relation),
            "(",
            cols_prefix,
            "g, d ) SELECT",
            cols_prefix,
            "?, NULL FROM",
            table_for(relation),
            "WHERE g <= ? AND d > ? AND d <= ?",
        ]
    )


# ----------------------------------------------------------------------
# The join compiler (slot plan -> one parameterised SELECT)
# ----------------------------------------------------------------------
#: Runtime-parameter tokens of a compiled join, in bind order.  ``lit``
#: carries its encoded value inline; the generation tokens are filled at
#: execution time with the reading side's pinned generation.
P_LIT = "lit"
P_NEW_GEN = "new_gen"
P_OLD_GEN = "old_gen"

#: Visibility of the ``SRC_NEW`` side: the live head (``d IS NULL``) or a
#: pinned snapshot generation (``new_gen`` params).
VIS_HEAD = "head"
VIS_PINNED = "pinned"


class SQLJoin:
    """A lowered join: statement text plus its runtime parameter plan."""

    __slots__ = ("sql", "params")

    def __init__(self, sql: str, params: Tuple[Tuple[str, object], ...]) -> None:
        self.sql = sql
        self.params = params


def _lower_join(
    plan: "_pc.QueryPlan",
    new_visibility: str,
    encode_value,
) -> Tuple[Dict[int, str], str, List[Tuple[str, object]]]:
    """The binding sites, ``FROM ... [WHERE ...]`` text and params of *plan*."""
    binding_site: Dict[int, str] = {}
    from_items: List[str] = []
    conditions: List[str] = []
    params: List[Tuple[str, object]] = []

    for index, atom in enumerate(plan.atoms):
        alias = _alias(index)
        if atom.source == _pc.SRC_DELTA:
            from_items.append(" ".join([delta_table_for(atom.relation), alias]))
        else:
            from_items.append(" ".join([table_for(atom.relation), alias]))
            pinned = atom.source == _pc.SRC_OLD or new_visibility == VIS_PINNED
            if pinned:
                token = P_OLD_GEN if atom.source == _pc.SRC_OLD else P_NEW_GEN
                conditions.append(
                    " ".join(
                        [
                            ".".join([alias, "g"]),
                            "<= ? AND (",
                            ".".join([alias, "d"]),
                            "IS NULL OR",
                            ".".join([alias, "d"]),
                            "> ? )",
                        ]
                    )
                )
                params.append((token, None))
                params.append((token, None))
            else:
                conditions.append(
                    " ".join([".".join([alias, "d"]), "IS NULL"])
                )
        for opcode, position, payload in atom.ops:
            col = ".".join([alias, column(position)])
            if opcode == _pc._OP_CONST:
                conditions.append(" ".join([col, "=", "?"]))
                params.append((P_LIT, encode_value(payload)))
            elif opcode == _pc._OP_CHECK:
                conditions.append(
                    " ".join([col, "=", binding_site[payload]])
                )
            else:  # _OP_BIND: first bind of the slot defines its site
                site = binding_site.get(payload)
                if site is None:
                    binding_site[payload] = col
                else:
                    conditions.append(" ".join([col, "=", site]))
        for check in atom.checks:
            operator = "=" if check.is_equality else "<>"
            sides: List[str] = []
            for is_slot, operand in (
                (check.left_is_slot, check.left),
                (check.right_is_slot, check.right),
            ):
                if is_slot:
                    sides.append(binding_site[operand])
                else:
                    sides.append("?")
                    params.append((P_LIT, encode_value(operand)))
            conditions.append(" ".join([sides[0], operator, sides[1]]))

    fragments = ["FROM", ", ".join(from_items)]
    if conditions:
        fragments.append("WHERE")
        fragments.append(" AND ".join(conditions))
    return binding_site, " ".join(fragments), params


def compile_join_sql(
    plan: "_pc.QueryPlan",
    new_visibility: str,
    encode_value,
) -> SQLJoin:
    """Lower a slot plan to one SELECT of its slots' binding sites.

    *new_visibility* selects the MVCC predicate of ``SRC_NEW`` atoms:
    :data:`VIS_HEAD` when the plan reads the store's live head,
    :data:`VIS_PINNED` when it reads a pinned snapshot generation
    (parameterised — the same text serves every generation).  In the
    delta variants :func:`compile_stage_sql` lowers, ``SRC_OLD`` atoms
    are always pinned (``old_gen`` params) and ``SRC_DELTA`` atoms read
    their relation's delta temp table with no visibility predicate.

    *encode_value* maps a Python constant to its stored SQLite value
    (its storage class, or a tagged BLOB); it raises ``TypeError`` for
    values no stored fact can equal, which callers surface as a
    compile-time empty result.  The selected columns come back as the
    stored values, so a result row needs decoding only if it holds a
    BLOB.
    """
    binding_site, source, params = _lower_join(plan, new_visibility, encode_value)
    select_list = ", ".join(
        binding_site[slot] for slot in range(plan.num_slots)
    )
    return SQLJoin(" ".join(["SELECT", select_list or "1", source]), tuple(params))


def compile_stage_sql(
    plan: "_pc.QueryPlan",
    new_visibility: str,
    encode_value,
    relation: str,
    head: Sequence[Tuple[bool, object]],
) -> SQLJoin:
    """Lower a delta variant to ``INSERT INTO <derived table> SELECT``.

    *head* describes the rule head's terms in order: ``(True, slot)``
    selects the slot's binding site (a variable used twice selects it
    twice), ``(False, value)`` binds the encoded constant as a param —
    ahead of the join's params, since the select list precedes the
    ``WHERE`` clause.  A nullary head stages the dummy ``0`` once per
    derivation.  One derived row per join answer: the round's
    ``SELECT DISTINCT`` anti-join (:func:`new_delta_sql`) de-duplicates.
    """
    binding_site, source, join_params = _lower_join(plan, new_visibility, encode_value)
    items: List[str] = []
    params: List[Tuple[str, object]] = []
    for is_slot, payload in head:
        if is_slot:
            items.append(binding_site[payload])
        else:
            items.append("?")
            params.append((P_LIT, encode_value(payload)))
    arity = len(head)
    statement = " ".join(
        [
            "INSERT INTO",
            derived_table_for(relation),
            "(",
            _temp_columns(arity),
            ") SELECT",
            ", ".join(items) if items else "0",
            source,
        ]
    )
    return SQLJoin(statement, tuple(params + join_params))
