"""The store backend interface.

Two backends satisfy :class:`StoreBackend`:

- ``memory`` — :class:`~repro.store.snapshot.SnapshotInstance`: adaptive
  frozenset/HAMT shards, O(#relations) snapshot/restore *and* O(1)
  branching (``copy`` shares structure).  The default; fastest below the
  memory wall and the only sensible choice for deep branching searches.
- ``sqlite`` — :class:`~repro.store.sqlstore.SQLStoreInstance`: facts
  live in an embedded SQLite database (anonymous scratch file or a
  persistent path), snapshots are MVCC generation tokens, and large
  joins push down as parameterized SQL (see
  :mod:`repro.store.sqlcodegen`).  Instances bigger than RAM; branching
  (``copy``) is O(n).

Both expose the same facade surface (the ``_data`` mapping, the
``index``/``tuples``/``tuples_view`` probes, ``add``/``add_unchecked``/
``discard``, ``snapshot``/``restore``/``fingerprint``), so the compiled
plan executor, the Datalog evaluator and the decision engine are
backend-agnostic.  Cross-backend snapshots hash and compare equal on
equal facts — engine memo keys and the persistent verdict cache carry
across.

Call sites pick a backend by constructing the store themselves or, for a
Datalog fixedpoint, with ``evaluate_program(backend=...)``; the memory
store is the default.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.store.snapshot import SnapshotInstance
from repro.store.sqlstore import SQLStoreInstance

MEMORY_BACKEND = "memory"
SQLITE_BACKEND = "sqlite"

#: Every recognised ``backend=`` value.
BACKENDS = (MEMORY_BACKEND, SQLITE_BACKEND)


class StoreBackend(ABC):
    """The facade surface both store backends satisfy.

    An abstract interface (with virtual registration, so the concrete
    classes pay no MRO cost): the contract is the
    :class:`~repro.store.snapshot.SnapshotInstance` API — reads
    (``tuples``/``tuples_view``/``index``/``contains``/``size``/
    ``facts``/``freeze``), mutations (``add``/``add_unchecked``/
    ``discard``), set-based membership (``missing``), O(cheap) state
    tokens (``snapshot``/``restore``/``fingerprint``) whose hashes agree
    across backends on equal facts, and ``pin``, the uncommitted read view
    a fixedpoint round joins against.
    """

    @abstractmethod
    def snapshot(self):
        """The current state as an immutable, O(1)-hashable token."""

    @abstractmethod
    def restore(self, snap) -> None:
        """Return to a previously taken snapshot of this store."""

    @abstractmethod
    def pin(self):
        """A read view frozen at the current state (not a durability point).

        The previous-generation side of a semi-naive fixedpoint round.  On
        the memory backend it is ``snapshot().view()``; the SQLite backend
        pins a generation inside its open transaction without committing.
        """

    @abstractmethod
    def missing(self, relation_name, tuples):
        """The set of *tuples* the relation does not hold (one call per batch)."""

    @abstractmethod
    def fingerprint(self):
        """An exact content key: equal facts ⇒ equal key, across backends."""

    @abstractmethod
    def add_unchecked(self, relation_name, tup) -> bool:
        """Insert a validated tuple; True iff it was new."""

    @abstractmethod
    def discard(self, relation_name, tup) -> bool:
        """Remove a tuple if present; True iff it was removed."""

    @abstractmethod
    def tuples_view(self, relation_name):
        """The relation's current tuple set (empty for unknown names)."""

    @abstractmethod
    def index(self, relation_name, position, value):
        """The tuples whose *position*-th value equals *value*."""

    @abstractmethod
    def size(self) -> int:
        """Total fact count."""


StoreBackend.register(SnapshotInstance)
StoreBackend.register(SQLStoreInstance)
