"""Reduction tasks: the common currency of the unified decision layer.

The paper's three headline procedures — exact answerability via the
accessible part, long-term relevance of an access (Example 2.3), and CQ
containment under access patterns (Example 2.2) — are all *reductions* to
the same pair of back-ends: A-automaton emptiness (Theorem 4.6) and
bounded witness-path satisfiability (the reference model checker the
decision procedures are cross-validated against).  Before this layer each
module in :mod:`repro.access` re-implemented its own candidate
enumeration, instance branching and solver invocation, so none of them
could share the memoization or snapshot store built for the emptiness
pipeline.

A :class:`ReductionTask` normalises one decision request into

* a ``kind`` (which procedure is being reduced),
* a ``backend`` tag — :data:`EMPTINESS` or :data:`BOUNDED_CHECK` — naming
  the back-end the reduction bottoms out in,
* ``args`` — the executable payload.  Instances travel as store
  :class:`~repro.store.snapshot.Snapshot` tokens, which are canonical,
  exactly comparable and picklable by construction;
* ``key`` — the canonical fingerprint used for deduplication and
  cross-request memoization.  Content-addressed pieces (instances) key by
  their ``Snapshot.fingerprint()``; structural pieces (schemas, queries,
  formulas) by canonical tuples that ignore irrelevant identity such as
  query names.  ``key`` is ``None`` when a payload resists canonical
  hashing — such a task simply always computes.

Results come back as :class:`ReductionResult`, which wraps the
procedure's own result object together with provenance: whether the value
was computed, served from the cross-request memo, or deduplicated against
an identical task earlier in the same batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.queries.ucq import as_ucq
from repro.store.snapshot import Snapshot, SnapshotInstance

#: Back-end tag: the task bottoms out in A-automaton emptiness
#: (:func:`repro.automata.emptiness.automaton_emptiness`).
EMPTINESS = "emptiness"

#: Back-end tag: the task bottoms out in an explicit bounded witness
#: search (:func:`repro.core.bounded_check.bounded_satisfiability` or one
#: of the small-witness enumerations of :mod:`repro.access`).
BOUNDED_CHECK = "bounded_check"

#: Back-end tag: the task *is* its own decision procedure — a routed
#: front-door call (LTL tableau search, CTL model checking, Datalog/UCQ
#: containment) that the engine runs for its memo and dedup services
#: rather than reducing to another back-end.
DIRECT = "direct"


@dataclass(frozen=True)
class CachePolicy:
    """Per-workload cache configuration of a :class:`DecisionEngine`.

    Attributes
    ----------
    memoize_results:
        Cross-request memoization of task results keyed by the canonical
        task fingerprint.  On for explicitly constructed engines (matrix
        workloads are exactly where requests repeat); off for a workload
        that must compute every request cold.
    memo_capacity:
        LRU capacity of the in-memory memo tier; ``0`` is unbounded and
        ``None`` defers to the ``REPRO_MEMO_CAPACITY`` knob.
    persist_path:
        Directory of the crash-safe persistent verdict tier
        (:mod:`repro.store.verdict_cache`).  ``None`` defers to
        ``REPRO_MEMO_PERSIST_PATH``; an empty string disables
        persistence regardless of the environment.
    lock_timeout_s:
        Advisory-lock acquisition timeout for the persistent tier
        (``None``: the ``REPRO_MEMO_LOCK_TIMEOUT`` knob).
    compact_segments:
        Segment-file count above which the persistent tier compacts its
        append log (``None``: the ``REPRO_MEMO_COMPACT_SEGMENTS`` knob).
    """

    memoize_results: bool = True
    memo_capacity: Optional[int] = None
    persist_path: Optional[str] = None
    lock_timeout_s: Optional[float] = None
    compact_segments: Optional[int] = None


@dataclass(frozen=True, eq=False)
class ReductionTask:
    """One normalised decision request (see the module docstring)."""

    kind: str
    backend: str
    args: Tuple[object, ...]
    key: Optional[Tuple[object, ...]] = None

    def fingerprint(self) -> Optional[Tuple[object, ...]]:
        """The memo/dedup key, or ``None`` when the task is uncacheable."""
        if self.key is None:
            return None
        return (self.kind, self.key)


@dataclass(frozen=True, eq=False)
class ReductionResult:
    """A task's outcome plus provenance.

    ``value`` is the underlying procedure's own result object
    (:class:`~repro.access.relevance.RelevanceResult`,
    :class:`~repro.access.containment_ap.APContainmentResult`, a bool,
    :class:`~repro.automata.emptiness.EmptinessResult`, ...), so callers
    that only want the verdict unwrap one attribute.  ``provenance`` is
    ``"computed"`` (executed in this batch), ``"memo"`` (served from the
    engine's in-memory memo), ``"memo_disk"`` (served from its persistent
    verdict store), ``"dedup"`` (an identical task earlier in the
    same batch supplied the value) or ``"deadline"`` (the batch budget
    expired before this task ran — ``value`` is ``None``).
    """

    value: object
    kind: str
    backend: str
    provenance: str
    fingerprint: Optional[Tuple[object, ...]] = None


class Deduper:
    """Order-preserving duplicate detection on canonical fingerprints.

    Used by the engine's batch execution (identical tasks in one matrix
    compute once) and by the AP-containment candidate enumeration
    (distinct variable identifications frequently freeze to the *same*
    candidate instance, which previously re-solved).  ``register`` returns
    the value stored by the first holder of the key, or ``None`` for a
    first sighting; unkeyable entries (``key is None``) are never
    deduplicated.  Values must not be ``None``.  One ``setdefault``
    hashes the key once per registration.
    """

    __slots__ = ("_seen", "hits", "misses")

    def __init__(self) -> None:
        self._seen: Dict[object, object] = {}
        self.hits = 0
        self.misses = 0

    def register(self, key: Optional[object], value: object) -> Optional[object]:
        if key is None:
            self.misses += 1
            return None
        seen = self._seen
        size = len(seen)
        existing = seen.setdefault(key, value)
        if len(seen) == size:
            self.hits += 1
            return existing
        self.misses += 1
        return None

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


# ----------------------------------------------------------------------
# Canonical fingerprints of the payload pieces
# ----------------------------------------------------------------------
def schema_key(access_schema) -> Tuple[object, ...]:
    """Canonical fingerprint of an access schema (relations + methods)."""
    relations = tuple(
        (
            relation.name,
            relation.arity,
            tuple(t.name for t in relation.types),
            tuple(repr(d) for d in relation.domains),
        )
        for relation in access_schema.schema
    )
    methods = tuple(
        (
            method.name,
            method.relation,
            method.input_positions,
            method.exact,
            method.idempotent,
        )
        for method in sorted(access_schema, key=lambda m: m.name)
    )
    return (relations, methods)


def vocabulary_key(vocabulary) -> Tuple[object, ...]:
    """Canonical fingerprint of an access vocabulary.

    The combined pre/post/binding schema is a pure function of the access
    schema (:meth:`AccessVocabulary.of`), so the access schema fingerprint
    plus the combined relation signature identifies it exactly.
    """
    combined = tuple(
        (relation.name, relation.arity) for relation in vocabulary.schema
    )
    return (schema_key(vocabulary.access_schema), combined)


def query_key(query) -> Tuple[object, ...]:
    """Canonical, name-insensitive fingerprint of a CQ/UCQ.

    Disjunct order is preserved (the procedures' witnesses and
    counterexamples depend on it), but the cosmetic ``name`` field is
    dropped so a re-submitted query with a different label deduplicates.
    """
    ucq = as_ucq(query)
    return tuple(
        (disjunct.atoms, disjunct.head, disjunct.equalities, disjunct.inequalities)
        for disjunct in ucq.disjuncts
    )


def instance_key(instance) -> Optional[Snapshot]:
    """The ``Snapshot.fingerprint()`` content key of an instance.

    O(#relations) for stores (the snapshot is the fingerprint the store
    already maintains), O(n) once for dict-backed instances.  ``None``
    stays ``None`` (the procedures substitute an empty instance).
    """
    if instance is None:
        return None
    if isinstance(instance, Snapshot):
        return instance
    if isinstance(instance, SnapshotInstance):
        return instance.snapshot()
    if getattr(instance, "_sql_backend", False):
        # SQL-backed stores/views/snapshots: the MVCC generation token
        # hashes and compares equal to a memory Snapshot of the same
        # facts, so the memo carries across backends.
        return instance.fingerprint()
    return SnapshotInstance.from_instance(instance).snapshot()


def values_key(values) -> Tuple[object, ...]:
    """Canonical fingerprint of a set of seed values (order-insensitive)."""
    return tuple(sorted(values, key=repr))


def try_key(builder) -> Optional[Tuple[object, ...]]:
    """Run a key builder, degrading unhashable payloads to ``None``.

    Guard sentences may embed exotic constants; a payload that cannot be
    canonically hashed simply opts out of memoization instead of failing
    the request.
    """
    try:
        key = builder()
        hash(key)
        return key
    except TypeError:
        return None
