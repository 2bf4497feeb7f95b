"""Compiled join plans for conjunctive queries, with an LRU plan cache.

This module is the "indexed join engine" half of the performance subsystem
(the other half is the per-position hash indexing inside
:class:`repro.relational.instance.Instance`).  A conjunctive query is
compiled **once** into a :class:`QueryPlan`:

* atoms are ordered greedily (fewest unbound variables first, ties broken
  by the largest overlap with already-bound variables — the same heuristic
  as the naive oracle, computed once per query instead of once per call);
* every variable gets a *slot* in a single mutable binding array, so the
  backtracking join never copies assignment dictionaries;
* every atom position is compiled to a constant check, a bound-slot check
  or a slot write, and the positions that are bound *before* the atom is
  matched are recorded as index-probe candidates: at run time the executor
  probes ``Instance.index(relation, position, value)`` for each and scans
  the smallest bucket (most selective first) instead of the full relation;
* equality/inequality atoms are scheduled at the earliest pipeline point
  at which both sides are bound, pruning dead branches early.

Plans are cached in a small LRU keyed by ``(query, schema relation
names)`` (:func:`get_plan`), so the pattern "evaluate the same guard query
against thousands of configurations" — the hot loop of every decision
procedure in this repository — compiles exactly once.

For semi-naive Datalog evaluation the same machinery compiles **delta
variants** (:func:`get_delta_plan` / ``compile_plan(delta_atom=i)``): one
plan per body position, with that atom bound to the per-round delta fact
set and every other atom tagged with the side it reads from (previous
generation for earlier positions, full state for later ones).  The delta
executor (:func:`execute_delta_plan`) dispatches each atom to its source,
scanning the small delta set directly instead of probing a per-position
index for it.

The compiled executor is *semantics-preserving* with respect to the naive
backtracking oracle
(:func:`repro.queries.evaluation.naive_satisfying_assignments`): both
enumerate exactly the assignments of the query's body variables that
satisfy all atoms and comparisons.  The agreement is enforced by
randomized property tests (``tests/test_engine_oracle.py``).  Queries
whose comparisons mention variables not occurring in any relational atom
cannot be slot-compiled and fall back to the oracle
(:attr:`QueryPlan.fallback`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.queries.atoms import Atom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.terms import Constant, Variable
from repro.relational.instance import Instance
from repro.store.snapshot import SnapshotInstance

Assignment = Dict[Variable, object]


class _Unbound:
    """Sentinel distinct from any database value (including ``None``)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "<unbound>"


UNBOUND = _Unbound()

# Per-position operation codes.
_OP_CONST = 0  # tup[pos] must equal a constant value
_OP_CHECK = 1  # tup[pos] must equal the value already in a slot
_OP_BIND = 2  # write tup[pos] into a slot (first occurrence)

# Per-atom sources for delta-variant plans (semi-naive evaluation).  A
# plain plan reads every atom from the one instance it is executed
# against (``SRC_NEW``); a delta variant reads the delta-bound atom from
# the small per-round fact set and the atoms *preceding* it (in original
# body order) from the previous generation.  See :func:`compile_plan`.
SRC_NEW = 0  # the full current state
SRC_OLD = 1  # the previous generation
SRC_DELTA = 2  # the per-round delta fact set


@dataclass(frozen=True)
class CompiledComparison:
    """An equality or inequality compiled to slot/constant operands."""

    is_equality: bool
    left_is_slot: bool
    left: object  # slot index or constant value
    right_is_slot: bool
    right: object

    def holds(self, slots: List[object]) -> bool:
        left = slots[self.left] if self.left_is_slot else self.left
        right = slots[self.right] if self.right_is_slot else self.right
        return (left == right) if self.is_equality else (left != right)


@dataclass(frozen=True)
class CompiledAtom:
    """One atom of the join pipeline.

    ``ops`` drives the per-tuple match loop; ``probes`` lists the positions
    whose value is known before this atom runs (index-probe candidates);
    ``binds`` are the slots written by this atom (reset on backtrack).
    """

    relation: str
    ops: Tuple[Tuple[int, int, object], ...]  # (opcode, position, payload)
    probes: Tuple[Tuple[int, bool, object], ...]  # (position, is_const, payload)
    binds: Tuple[int, ...]
    checks: Tuple[CompiledComparison, ...]  # comparisons decidable after this atom
    source: int = SRC_NEW  # which side a delta-variant executor reads from


@dataclass(frozen=True)
class QueryPlan:
    """A conjunctive query compiled for the indexed executor."""

    atoms: Tuple[CompiledAtom, ...]
    num_slots: int
    slot_variables: Tuple[Variable, ...]  # slot index -> variable
    fallback: bool = False
    always_false: bool = False


def atom_order(
    atoms: Sequence[Atom],
    cardinalities: Optional[Mapping[str, int]] = None,
) -> List[Atom]:
    """Greedy connected ordering (fewest unbound, then most bound overlap).

    Selects the minimum directly instead of re-sorting the remaining list
    on every pick.  This is the single shared implementation of the
    ordering heuristic: the naive oracle
    (:func:`repro.queries.evaluation.naive_satisfying_assignments`)
    delegates here too (always without statistics), so plan and oracle
    enumerate the same assignment *set* by construction.

    When *cardinalities* is given, structural ties are broken towards the
    smaller relation, so a plan compiled against a skewed instance scans
    the thin side of a join first instead of relying purely on the
    run-time bucket-size probe.  In practice :func:`get_plan` feeds this
    only from statistics recorded on the persistent store (``Shard.count``
    via :func:`_stats_signature`); the dict-backed ``Instance`` exposes
    the same ``relation_count(s)`` API for parity, but keeps the
    statistics-free fast path.
    """
    atoms_list = list(atoms)
    order = _greedy_order(
        atoms_list, range(len(atoms_list)), set(), cardinalities
    )
    return [atoms_list[index] for index in order]


def _greedy_order(
    atoms: Sequence[Atom],
    candidates: Iterable[int],
    bound: Set[Variable],
    cardinalities: Optional[Mapping[str, int]],
) -> List[int]:
    """The greedy ordering of :func:`atom_order`, over atom *indices*.

    Working on indices (rather than atom values) lets the delta-variant
    compiler keep track of each atom's original body position even when
    the same atom value occurs at several positions; *bound* seeds the
    already-bound variable set (the delta-bound atom's variables).
    """
    remaining = list(candidates)
    ordered: List[int] = []
    bound = set(bound)
    while remaining:
        best_index = 0
        best_key: Optional[Tuple[int, ...]] = None
        for index, candidate in enumerate(remaining):
            variables = atoms[candidate].variables()
            if cardinalities is None:
                key: Tuple[int, ...] = (
                    len(variables - bound),
                    -len(variables & bound),
                )
            else:
                key = (
                    len(variables - bound),
                    -len(variables & bound),
                    cardinalities.get(atoms[candidate].relation, 0),
                )
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        chosen = remaining.pop(best_index)
        ordered.append(chosen)
        bound |= atoms[chosen].variables()
    return ordered


def _compile_comparison(
    comparison, slot_of: Dict[Variable, int], is_equality: bool
) -> CompiledComparison:
    def side(term):
        if isinstance(term, Variable):
            return True, slot_of[term]
        return False, term.value if isinstance(term, Constant) else term

    left_is_slot, left = side(comparison.left)
    right_is_slot, right = side(comparison.right)
    return CompiledComparison(
        is_equality=is_equality,
        left_is_slot=left_is_slot,
        left=left,
        right_is_slot=right_is_slot,
        right=right,
    )


def compile_plan(
    query: ConjunctiveQuery,
    cardinalities: Optional[Mapping[str, int]] = None,
    delta_atom: Optional[int] = None,
) -> QueryPlan:
    """Compile *query* into a :class:`QueryPlan` (no instance required).

    *cardinalities* optionally feeds recorded per-relation statistics into
    the atom ordering (see :func:`atom_order`); the compiled plan is
    correct for any instance regardless.

    *delta_atom* selects the **semi-naive delta variant** bound at that
    original body position: the chosen atom reads from the per-round
    delta fact set (``SRC_DELTA``) and is scheduled first (the delta is
    the small side of the join by construction), atoms at earlier body
    positions read from the previous generation (``SRC_OLD``) and atoms
    at later positions from the full current state (``SRC_NEW``) — the
    classic delta-rule rewrite, partitioning the delta-using derivations
    by the first body position bound to a delta fact.  Delta variants
    execute through :func:`execute_delta_plan`.
    """
    atoms_list = list(query.atoms)
    if delta_atom is None:
        order = _greedy_order(atoms_list, range(len(atoms_list)), set(), cardinalities)
        sources = [SRC_NEW] * len(atoms_list)
    else:
        rest = [index for index in range(len(atoms_list)) if index != delta_atom]
        order = [delta_atom] + _greedy_order(
            atoms_list, rest, set(atoms_list[delta_atom].variables()), cardinalities
        )
        sources = [
            SRC_OLD if index < delta_atom else SRC_NEW
            for index in range(len(atoms_list))
        ]
        sources[delta_atom] = SRC_DELTA
    ordered = [atoms_list[index] for index in order]

    atom_variables: Set[Variable] = set()
    for atom in ordered:
        atom_variables |= atom.variables()
    comparisons = [(eq, True) for eq in query.equalities] + [
        (ineq, False) for ineq in query.inequalities
    ]
    for comparison, _ in comparisons:
        if not comparison.variables() <= atom_variables:
            # A comparison variable never bound by any atom: the slot
            # executor cannot decide it — delegate to the naive oracle,
            # which surfaces the same KeyError behaviour for unsafe queries.
            return QueryPlan(
                atoms=(), num_slots=0, slot_variables=(), fallback=True
            )

    slot_of: Dict[Variable, int] = {}
    slot_variables: List[Variable] = []

    def slot(variable: Variable) -> int:
        index = slot_of.get(variable)
        if index is None:
            index = len(slot_variables)
            slot_of[variable] = index
            slot_variables.append(variable)
        return index

    # Constant-only comparisons are decidable at compile time.
    always_false = False
    pending: List[Tuple[object, bool]] = []
    for comparison, is_equality in comparisons:
        if not comparison.variables():
            compiled = _compile_comparison(comparison, slot_of, is_equality)
            if not compiled.holds([]):
                always_false = True
            continue
        pending.append((comparison, is_equality))

    ordered_sources = [sources[index] for index in order]
    compiled_atoms: List[CompiledAtom] = []
    bound_before: Set[Variable] = set()
    for atom, atom_source in zip(ordered, ordered_sources):
        ops: List[Tuple[int, int, object]] = []
        probes: List[Tuple[int, bool, object]] = []
        binds: List[int] = []
        bound_in_atom: Set[Variable] = set()
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                ops.append((_OP_CONST, position, term.value))
                probes.append((position, True, term.value))
            elif term in bound_before:
                index = slot_of[term]
                ops.append((_OP_CHECK, position, index))
                probes.append((position, False, index))
            elif term in bound_in_atom:
                ops.append((_OP_CHECK, position, slot_of[term]))
            else:
                index = slot(term)
                ops.append((_OP_BIND, position, index))
                binds.append(index)
                bound_in_atom.add(term)
        bound_before |= bound_in_atom
        # Comparisons whose variables are all bound once this atom matched.
        checks: List[CompiledComparison] = []
        still_pending: List[Tuple[object, bool]] = []
        for comparison, is_equality in pending:
            if comparison.variables() <= bound_before:
                checks.append(_compile_comparison(comparison, slot_of, is_equality))
            else:
                still_pending.append((comparison, is_equality))
        pending = still_pending
        compiled_atoms.append(
            CompiledAtom(
                relation=atom.relation,
                ops=tuple(ops),
                probes=tuple(probes),
                binds=tuple(binds),
                checks=tuple(checks),
                source=atom_source,
            )
        )
    assert not pending  # every comparison variable occurs in some atom

    return QueryPlan(
        atoms=tuple(compiled_atoms),
        num_slots=len(slot_variables),
        slot_variables=tuple(slot_variables),
        always_false=always_false,
    )


# ----------------------------------------------------------------------
# The LRU plan cache
# ----------------------------------------------------------------------
_PLAN_CACHE: "OrderedDict[object, QueryPlan]" = OrderedDict()
_PLAN_CACHE_MAX = 1024
_hits = 0
_misses = 0


#: Statistics-driven planning engages only on the persistent stores
#: (the shard facade and the SQL backend both *record* per-relation
#: cardinalities as O(1) statistics — ``getattr(instance,
#: "_sql_backend", False)`` keeps this module import-free of the SQL
#: backend) and only
#: once the instance holds enough facts for join order to matter; below
#: the threshold the signature stays ``None`` and the fast path costs
#: exactly what it did without statistics.
_STATS_MIN_COUNT = 64


def _stats_signature(
    query: ConjunctiveQuery, instance: "SnapshotInstance"
) -> Optional[Tuple[int, ...]]:
    """The bucketed cardinality signature driving statistics-aware plans.

    Per relation mentioned by the query, the recorded cardinality
    statistic (``Shard.count``) bucketed to its binary magnitude — so a
    growing instance re-plans only when a relation crosses a power of
    two, and equal signatures provably yield equal plans.  Queries for
    which statistics cannot change the ordering (fewer than two atoms, or
    all atoms over one relation) return ``None`` and skip the bookkeeping
    entirely.
    """
    rels = query.__dict__.get("_stat_relations", _UNSET)
    if rels is _UNSET:
        distinct = {atom.relation for atom in query.atoms}
        rels = (
            tuple(sorted(distinct))
            if len(query.atoms) >= 2 and len(distinct) >= 2
            else None
        )
        object.__setattr__(query, "_stat_relations", rels)
    if rels is None:
        return None
    return tuple(instance.relation_count(name).bit_length() for name in rels)


_UNSET = object()


def get_plan(query: ConjunctiveQuery, instance: Optional[Instance] = None) -> QueryPlan:
    """The compiled plan of *query*, memoised at two levels.

    * **Per-object fast path** — a small ``signature -> plan`` table is
      attached to the (frozen) query object itself, so the hot pattern
      "evaluate this exact guard query against thousands of
      configurations" costs one attribute lookup and one small-dict get
      plus (for multi-relation queries on large stores) a handful of O(1)
      statistics reads, not a recursive hash of the whole query.
    * **Value-keyed LRU** — distinct-but-equal query objects (e.g. the
      boolean versions rebuilt per ``holds`` call) share one compilation
      through an LRU keyed by ``(query, schema relation names,
      signature)``.  Plans contain no schema-specific data (the executor
      treats relations outside the instance's schema as empty at run
      time), so sharing a plan across instances of the same vocabulary is
      sound; the schema component of the key only keeps cache statistics
      honest when the same query value is evaluated over different
      vocabularies.

    Plans are *statistics-driven* on the persistent store: the cardinality
    statistics its shards record (see :func:`_stats_signature`) feed the
    atom ordering once the instance passes :data:`_STATS_MIN_COUNT` facts,
    and each signature bucket compiles (and caches) its own plan.  Small
    instances and the dict-backed ``Instance`` keep the statistics-free
    fast path (and its exact cost).
    """
    return _get_plan_memoized(query, instance, None)


def get_delta_plan(
    query: ConjunctiveQuery,
    delta_atom: int,
    instance: Optional[Instance] = None,
) -> QueryPlan:
    """The compiled semi-naive delta variant of *query* (see :func:`compile_plan`).

    Memoised exactly like :func:`get_plan` (the two share one
    implementation) — a per-object fast path keyed by ``(delta_atom,
    signature)`` plus the shared value-keyed LRU — so a Datalog
    fixedpoint that re-fires the same rules round after round compiles
    each of the k delta variants of a k-atom rule exactly once.
    """
    return _get_plan_memoized(query, instance, delta_atom)


def _get_plan_memoized(
    query: ConjunctiveQuery,
    instance: Optional[Instance],
    delta_atom: Optional[int],
) -> QueryPlan:
    """The shared two-level memoisation behind :func:`get_plan` /
    :func:`get_delta_plan` — one caching policy, so the plain and delta
    paths can never diverge on thresholds, eviction or the
    unhashable-constant fallback."""
    global _hits, _misses
    sig = (
        _stats_signature(query, instance)
        if (
            type(instance) is SnapshotInstance
            or getattr(instance, "_sql_backend", False)
        )
        and instance.size() >= _STATS_MIN_COUNT
        else None
    )
    # The per-object attach maps signature -> plan (delta variants use a
    # separate attribute keyed by ``(delta_atom, sig)``), so a query
    # evaluated against instances in different signature buckets (or
    # alternating between backends) keeps the fast path for every bucket
    # it has seen.
    if delta_atom is None:
        attach_attr = "_compiled_plan"
        attach_key: object = sig
    else:
        attach_attr = "_compiled_delta_plans"
        attach_key = (delta_atom, sig)
    entry = query.__dict__.get(attach_attr)
    if entry is not None:
        plan = entry.get(attach_key)
        if plan is not None:
            _hits += 1
            return plan
    cardinalities = (
        dict(zip(query.__dict__["_stat_relations"], sig)) if sig is not None else None
    )
    schema_key = instance.schema.names() if instance is not None else None

    def attach(plan: QueryPlan) -> None:
        if entry is not None:
            entry[attach_key] = plan
        else:
            object.__setattr__(query, attach_attr, {attach_key: plan})

    try:
        key = (
            (query, schema_key, sig)
            if delta_atom is None
            else (query, schema_key, sig, delta_atom)
        )
        plan = _PLAN_CACHE.get(key)
    except TypeError:
        # Unhashable constant somewhere in the query: the value-keyed LRU
        # cannot hold it, but the per-object attach (plain setattr) can.
        _misses += 1
        with _trace.trace_span("plan_cache.compile", delta=delta_atom is not None):
            plan = compile_plan(query, cardinalities, delta_atom=delta_atom)
        attach(plan)
        return plan
    if plan is not None:
        _hits += 1
        _PLAN_CACHE.move_to_end(key)
    else:
        _misses += 1
        with _trace.trace_span("plan_cache.compile", delta=delta_atom is not None):
            plan = compile_plan(query, cardinalities, delta_atom=delta_atom)
        _PLAN_CACHE[key] = plan
        if len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
            _PLAN_CACHE.popitem(last=False)
    attach(plan)
    return plan


def clear_plan_cache() -> None:
    """Empty the value-keyed LRU and reset the hit/miss statistics.

    Plans attached to query objects by the per-object fast path are *not*
    invalidated (they are reachable only through those objects and
    compilation is deterministic, so they can never be stale); after a
    clear, a previously seen query object still resolves through its
    attached plan and counts as a hit.  Callers measuring cold-compile
    cost must use freshly constructed query objects.
    """
    global _hits, _misses
    _PLAN_CACHE.clear()
    _hits = 0
    _misses = 0


def plan_cache_info() -> Dict[str, int]:
    """Cache statistics: size, hits, misses."""
    return {"size": len(_PLAN_CACHE), "hits": _hits, "misses": _misses}


# The cache's live statistics appear in every metrics snapshot
# (``repro stats``) without a second bookkeeping path.
_metrics.register_view("plan_cache", plan_cache_info)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
_EMPTY_DELTA: Mapping[str, Tuple[Tuple[object, ...], ...]] = {}


def execute_plan(
    plan: QueryPlan, query: ConjunctiveQuery, instance: Instance
) -> Iterator[Assignment]:
    """Enumerate the satisfying assignments of a compiled plan.

    Yields one dictionary per solution (mapping every body variable to its
    value); intermediate join states live in a single mutable slot array,
    so no per-extension dictionaries are allocated.  A plain plan is a
    delta plan whose atoms all read the current state, so this is the
    all-``SRC_NEW`` instantiation of :func:`execute_delta_plan` (one
    shared matcher — the path the engine-oracle property tests pin down).
    """
    return execute_delta_plan(plan, query, instance, instance, _EMPTY_DELTA)


def execute_delta_plan(
    plan: QueryPlan,
    query: ConjunctiveQuery,
    instance: Instance,
    old_instance: Instance,
    delta: Mapping[str, Iterable[Tuple[object, ...]]],
) -> Iterator[Assignment]:
    """Enumerate the satisfying assignments of a (delta-variant) plan.

    Per-atom source dispatch (:data:`SRC_NEW` / :data:`SRC_OLD` /
    :data:`SRC_DELTA`): new-side atoms probe *instance*, old-side atoms
    probe *old_instance* (the previous generation), and the delta-bound
    atom scans ``delta[relation]`` directly — the per-round fact set is
    small by construction, so a linear scan beats building any index for
    it.

    For non-delta atoms the most selective available index bucket is
    probed, falling back to a full scan only for atoms with no bound
    position; the chosen source is snapshotted before iteration (the
    cached frozenset for a full scan, a tuple copy for a bucket), so
    callers may mutate the instance while lazily consuming the generator
    — the same contract as the naive oracle.  The *delta* mapping itself
    must not be mutated mid-consumption (the Datalog evaluator
    materialises each round's derivations before mutating anything).
    """
    if plan.always_false:
        return
    atoms = plan.atoms
    num_atoms = len(atoms)
    slots: List[object] = [UNBOUND] * plan.num_slots
    slot_variables = plan.slot_variables

    def matches(index: int) -> Iterator[Assignment]:
        if index == num_atoms:
            yield dict(zip(slot_variables, slots))
            return
        compiled = atoms[index]
        source = compiled.source
        if source == SRC_DELTA:
            candidates = delta.get(compiled.relation)
            if not candidates:
                return
        else:
            side = instance if source == SRC_NEW else old_instance
            relation_tuples = side._data.get(compiled.relation)
            if relation_tuples is None or not relation_tuples:
                return
            bucket_size = len(relation_tuples)
            best_bucket = None
            for position, is_const, payload in compiled.probes:
                value = payload if is_const else slots[payload]
                bucket = side.index(compiled.relation, position, value)
                if len(bucket) < bucket_size:
                    bucket_size = len(bucket)
                    best_bucket = bucket
                    if not bucket:
                        return
            candidates = (
                side.tuples(compiled.relation)
                if best_bucket is None
                else tuple(best_bucket)
            )
        ops = compiled.ops
        binds = compiled.binds
        checks = compiled.checks
        for tup in candidates:
            ok = True
            for opcode, position, payload in ops:
                value = tup[position]
                if opcode == _OP_BIND:
                    slots[payload] = value
                elif opcode == _OP_CONST:
                    if value != payload:
                        ok = False
                        break
                else:  # _OP_CHECK
                    if value != slots[payload]:
                        ok = False
                        break
            if ok:
                for check in checks:
                    if not check.holds(slots):
                        ok = False
                        break
            if ok:
                yield from matches(index + 1)
            for bind in binds:
                slots[bind] = UNBOUND
        return

    yield from matches(0)
