"""Deterministic fault injection at the storage points (``REPRO_FAULT_INJECT``).

The storage layers promise that a failure never changes a verdict: a
torn write, a corrupt record or a failed commit degrades to a counted
recomputation or a clean error.  This module scripts faults at exact
points so the test suites can prove it.

## Spec format

A spec is a comma-separated list of ``action@point:index``:

* ``action`` — ``trip`` (apply the point's storage semantics) or
  ``kill`` (the process exits hard at the point, exit code
  :data:`KILL_EXIT_CODE`);
* ``point`` — one of :data:`STORAGE_POINTS` (below);
* ``index`` — fire on the *N*-th hit of that point (0-based, counted
  per process).

## Storage fault points

The verdict cache (:mod:`repro.store.verdict_cache`) consults its points
through :func:`storage_fault`, which *returns* the armed fault instead
of executing it — each point has storage semantics the cache implements
at the exact syscall boundary:

* ``torn_write`` — the atomic-write helper persists only a truncated
  prefix (``trip``), or dies mid-write with the tmp file on disk and the
  destination untouched (``kill``);
* ``corrupt_record`` — one record's value bytes are flipped before the
  segment is written, so its checksum fails on read;
* ``partial_read`` — a segment read returns a truncated byte string;
* ``lock_timeout`` — the advisory-lock acquisition reports an immediate
  timeout;
* ``disk_full`` — the atomic-write helper raises ``ENOSPC``.

The SQL store backend (:mod:`repro.store.sqlstore`) consults two more:

* ``sql_commit`` — the snapshot checkpoint fails before ``COMMIT``:
  ``trip`` rolls the transaction back (a torn transaction — the store
  resynchronises to the last committed snapshot and raises), ``kill``
  dies hard pre-commit so a reopened store proves SQLite's journal
  recovers the previous snapshot;
* ``sql_pushdown`` — the SQL join pushdown degrades to the in-memory
  executor over the same facade (counted in ``store.pushdown_fault``,
  verdict-identical).

``kill`` at ``torn_write`` or ``sql_commit`` scripts the process death
mid-write or before ``COMMIT``.  Example:
``trip@corrupt_record:0,trip@lock_timeout:1``.

## Activation

Tests install a parsed plan in-process (:func:`install` / :func:`clear`)
or set the :data:`FAULT_INJECT_ENV` environment variable, which a child
process inherits.  A malformed spec warns once and injects nothing.
With no plan the hot-path cost of :func:`storage_fault` is one module
attribute read and one ``dict.get`` on the environment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.obs import env as envknobs

#: Environment variable holding the fault spec (see the module docstring).
FAULT_INJECT_ENV = envknobs.FAULT_INJECT_ENV

_ACTIONS = ("kill", "trip")
#: Storage fault points consulted by :func:`storage_fault` (the verdict
#: cache implements each point's semantics at its own syscall boundary).
STORAGE_POINTS = (
    "torn_write",
    "corrupt_record",
    "partial_read",
    "lock_timeout",
    "disk_full",
    "sql_commit",
    "sql_pushdown",
)

#: Exit code of a scripted kill — distinctive in core-dump triage.
KILL_EXIT_CODE = 86


@dataclass(frozen=True)
class Fault:
    """One scripted fault: *action* at the *index*-th hit of *point*."""

    action: str
    point: str
    index: int


class FaultPlan:
    """A parsed spec plus per-point hit counters (process-local state)."""

    def __init__(self, faults: Tuple[Fault, ...]) -> None:
        self.faults = faults
        self._hits: Dict[str, int] = {}

    def next_fault(self, point: str) -> Optional[Fault]:
        """The fault armed for this hit of *point*, advancing the counter."""
        hit = self._hits.get(point, 0)
        self._hits[point] = hit + 1
        for fault in self.faults:
            if fault.point == point and fault.index == hit:
                return fault
        return None


def parse_fault_spec(text: str) -> Tuple[Fault, ...]:
    """Parse a spec string (raises ``ValueError`` on malformed entries)."""
    faults = []
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        try:
            action, rest = entry.split("@", 1)
            point, _, index_text = rest.partition(":")
            index = int(index_text)
        except ValueError:
            raise ValueError(
                f"malformed {FAULT_INJECT_ENV} entry {entry!r} "
                "(expected action@point:index)"
            ) from None
        if action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {action!r} (one of {_ACTIONS})"
            )
        if point not in STORAGE_POINTS:
            raise ValueError(
                f"unknown fault point {point!r} (one of {STORAGE_POINTS})"
            )
        if index < 0:
            raise ValueError(f"fault index must be >= 0, got {index}")
        faults.append(Fault(action, point, index))
    return tuple(faults)


# ----------------------------------------------------------------------
# Process-local plan state
# ----------------------------------------------------------------------
_INSTALLED: Optional[FaultPlan] = None
#: Cache of the environment-derived plan, keyed by the raw spec string so
#: tests that monkeypatch the variable get a fresh plan (and counters).
_ENV_PLAN: Optional[Tuple[str, FaultPlan]] = None


def install(spec) -> FaultPlan:
    """Install a plan in-process (test hook).  Accepts a spec string or plan."""
    global _INSTALLED
    plan = spec if isinstance(spec, FaultPlan) else FaultPlan(parse_fault_spec(spec))
    _INSTALLED = plan
    return plan


def clear() -> None:
    """Remove any installed plan and forget the cached environment plan."""
    global _INSTALLED, _ENV_PLAN
    _INSTALLED = None
    _ENV_PLAN = None


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, else one parsed from the environment, else ``None``."""
    global _ENV_PLAN
    if _INSTALLED is not None:
        return _INSTALLED
    raw = os.environ.get(FAULT_INJECT_ENV, "").strip()
    if not raw:
        return None
    if _ENV_PLAN is None or _ENV_PLAN[0] != raw:
        try:
            _ENV_PLAN = (raw, FaultPlan(parse_fault_spec(raw)))
        except ValueError:
            # A malformed spec injects nothing, and says so once.
            envknobs.warn_invalid_env(FAULT_INJECT_ENV, raw, "no faults")
            _ENV_PLAN = (raw, FaultPlan(()))
    return _ENV_PLAN[1]


def storage_fault(point: str) -> Optional[Fault]:
    """The fault armed for this hit of a storage *point*, if any.

    This never executes the fault: storage faults have point-specific
    semantics (a torn write, a short read, an immediate lock timeout)
    that only the store's own syscall boundaries can realise, so the
    caller receives the armed :class:`Fault` and acts on it in place.  With no active plan the hot-path cost is one module
    attribute read.
    """
    plan = active_plan()
    if plan is None:
        return None
    return plan.next_fault(point)
