"""Deterministic fault injection for the pool paths (``REPRO_FAULT_INJECT``).

The robustness guarantees of the parallel modes — verdicts never change
when workers die, stall or return garbage — are only worth stating if
they are *provable*.  This module scripts faults at exact points so the
determinism suites can kill a worker on the third engine task, delay a
chain result past its timeout, or corrupt a result pickle, and then
assert field-by-field agreement with the sequential oracle.

## Spec format

A spec is a comma-separated list of ``action@point:index[:arg]``:

* ``action`` — ``kill`` (the worker process exits hard, breaking the
  pool), ``delay`` (the worker sleeps ``arg`` seconds before computing —
  pair with ``REPRO_POOL_ITEM_TIMEOUT`` to exercise the timeout path),
  ``corrupt`` (the worker raises :class:`pickle.UnpicklingError`,
  modelling a result blob that cannot be decoded — the coordinator's
  fail-fast payload-error path), or ``raise`` (a generic transient
  ``RuntimeError`` — the retry path).
* ``point`` — which worker entry the fault arms: ``chain`` (one
  whole-chain emptiness task) or ``task`` (one pooled engine reduction
  task).
* ``index`` — fire on the *N*-th hit of that point (0-based).  Counters
  are per process: a single-worker pool makes indices exact; with more
  workers each counts its own stream.

Example: ``kill@task:2,delay@chain:0:0.2``.

## Storage fault points

The verdict cache (:mod:`repro.store.verdict_cache`) consults a second
family of points through :func:`storage_fault`, which *returns* the armed
fault instead of executing it — each point has storage semantics the
cache implements at the exact syscall boundary:

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

The canonical action for storage points is ``trip`` (apply the point's
storage semantics); ``kill`` at ``torn_write`` scripts the mid-write
process death.  Example: ``trip@corrupt_record:0,trip@lock_timeout:1``.

## Activation

Tests install a parsed plan in-process (:func:`install` / :func:`clear`)
or set the :data:`FAULT_INJECT_ENV` environment variable before creating
the pool — forked workers inherit the environment, so scripted faults
fire inside real worker processes.  Production code never calls
:func:`fire` unless a plan is active; the hot-path cost of the hook is
one module attribute read and one ``dict.get`` on the environment.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Environment variable holding the fault spec (see the module docstring).
FAULT_INJECT_ENV = "REPRO_FAULT_INJECT"

_ACTIONS = ("kill", "delay", "corrupt", "raise", "trip")
_POINTS = ("chain", "task")
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

#: Exit code of a scripted worker kill — distinctive in core-dump triage.
KILL_EXIT_CODE = 86


@dataclass(frozen=True)
class Fault:
    """One scripted fault: *action* at the *index*-th hit of *point*."""

    action: str
    point: str
    index: int
    arg: float = 0.0


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
            point, _, tail = rest.partition(":")
            index_text, _, arg_text = tail.partition(":")
            index = int(index_text)
            arg = float(arg_text) if arg_text else 0.0
        except ValueError:
            raise ValueError(
                f"malformed {FAULT_INJECT_ENV} entry {entry!r} "
                "(expected action@point:index[:arg])"
            ) from None
        if action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {action!r} (one of {_ACTIONS})"
            )
        if point not in _POINTS and point not in STORAGE_POINTS:
            raise ValueError(
                f"unknown fault point {point!r} "
                f"(one of {_POINTS + STORAGE_POINTS})"
            )
        if index < 0:
            raise ValueError(f"fault index must be >= 0, got {index}")
        faults.append(Fault(action, point, index, arg))
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
            # A malformed spec must not take the pool down; the env-var
            # warning machinery (store.workqueue) reports it.
            _ENV_PLAN = (raw, FaultPlan(()))
    return _ENV_PLAN[1]


def fire(point: str) -> None:
    """Apply the fault scripted for this hit of *point*, if any.

    Called at the worker entry points.  ``kill`` exits the process hard
    (``os._exit`` — no cleanup, exactly like a crashed worker), ``delay``
    sleeps, ``corrupt`` raises :class:`pickle.UnpicklingError` and
    ``raise`` a ``RuntimeError``; with no active plan this is a no-op.
    """
    plan = active_plan()
    if plan is None:
        return
    fault = plan.next_fault(point)
    if fault is None:
        return
    if fault.action == "kill":
        os._exit(KILL_EXIT_CODE)
    elif fault.action == "delay":
        time.sleep(fault.arg)
    elif fault.action == "corrupt":
        raise pickle.UnpicklingError(
            f"{FAULT_INJECT_ENV}: scripted corrupt result at {point}:{fault.index}"
        )
    elif fault.action == "raise":
        raise RuntimeError(
            f"{FAULT_INJECT_ENV}: scripted transient failure at {point}:{fault.index}"
        )


def storage_fault(point: str) -> Optional[Fault]:
    """The fault armed for this hit of a storage *point*, if any.

    Unlike :func:`fire`, this never executes the fault: storage faults
    have point-specific semantics (a torn write, a short read, an
    immediate lock timeout) that only the cache's own syscall boundaries
    can realise, so the caller receives the armed :class:`Fault` and acts
    on it in place.  With no active plan the hot-path cost is one module
    attribute read.
    """
    plan = active_plan()
    if plan is None:
        return None
    return plan.next_fault(point)
