"""Central registry of the ``REPRO_*`` environment knobs.

Every environment variable the library consults is declared here — name,
type, default, and the exact parsing semantics its call site always had —
so ``repro env`` can list each knob with its current value and source,
and so a new knob cannot be added without a type and a default.  Every
consumer reads its knob through the parsers below, which warn once
(:func:`warn_invalid_env`) about a malformed value and fall back to the
default.

This module must stay dependency-free within the package: it is imported
by :mod:`repro.obs.trace` and :mod:`repro.store.faults`, which initialise
very early.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

# ----------------------------------------------------------------------
# Knob names and defaults (the canonical definitions; the consuming
# modules re-export them under their historical names)
# ----------------------------------------------------------------------
#: Scripted fault plan for the storage points (see :mod:`repro.store.faults`).
FAULT_INJECT_ENV = "REPRO_FAULT_INJECT"
#: Strict flag: enable the tracing layer (see :mod:`repro.obs.trace`).
TRACE_ENV = "REPRO_TRACE"
#: Capacity of the engine's in-memory verdict memo (0 = unbounded).
MEMO_CAPACITY_ENV = "REPRO_MEMO_CAPACITY"
#: Directory of the persistent verdict store (unset/empty = memory only).
MEMO_PERSIST_PATH_ENV = "REPRO_MEMO_PERSIST_PATH"
#: Advisory-lock acquisition timeout for the persistent verdict store.
MEMO_LOCK_TIMEOUT_ENV = "REPRO_MEMO_LOCK_TIMEOUT"
#: Segment count above which the persistent verdict store compacts.
MEMO_COMPACT_SEGMENTS_ENV = "REPRO_MEMO_COMPACT_SEGMENTS"
#: Default store backend for backend-agnostic call sites ("memory"/"sqlite").
STORE_BACKEND_ENV = "REPRO_STORE_BACKEND"
#: Relation-cardinality floor above which SQL-backed plans push down as SQL joins.
SQL_PUSHDOWN_MIN_ROWS_ENV = "REPRO_SQL_PUSHDOWN_MIN_ROWS"

DEFAULT_MEMO_CAPACITY = 0
DEFAULT_MEMO_LOCK_TIMEOUT = 1.0
DEFAULT_MEMO_COMPACT_SEGMENTS = 8
DEFAULT_STORE_BACKEND = "memory"
DEFAULT_SQL_PUSHDOWN_MIN_ROWS = 512

#: The values :func:`choice` accepts for ``REPRO_STORE_BACKEND``.
STORE_BACKEND_CHOICES = ("memory", "sqlite")


# ----------------------------------------------------------------------
# Parsing (with loud, one-time fallback warnings)
# ----------------------------------------------------------------------
_ENV_WARNED: Set[str] = set()


def warn_invalid_env(name: str, raw: str, default: object) -> None:
    """Warn (once per variable per process) about an ignored env value.

    The silent ``except ValueError: pass`` fallbacks these parsers used
    to have made a typo'd knob indistinguishable from an unset one; the
    warning names the variable, the rejected value and the default that
    is used instead.
    """
    if name in _ENV_WARNED:
        return
    _ENV_WARNED.add(name)
    warnings.warn(
        f"ignoring invalid value {raw!r} for {name}; using default {default!r}",
        RuntimeWarning,
        stacklevel=3,
    )


_FALSEY = ("", "0", "false", "no", "off")
_TRUTHY = ("1", "true", "yes", "on")


def flag_strict(name: str) -> bool:
    """Strict boolean: unknown values warn once and fall back to off."""
    raw = os.environ.get(name, "")
    flag = raw.strip().lower()
    if flag in _FALSEY:
        return False
    if flag in _TRUTHY:
        return True
    warn_invalid_env(name, raw, "off")
    return False


def positive_int(name: str, default: int) -> int:
    """``int > 0`` or *default* (warning on present-but-invalid values)."""
    raw = os.environ.get(name, "").strip()
    if raw:
        try:
            value: Optional[int] = int(raw)
        except ValueError:
            value = None
        if value is not None and value > 0:
            return value
        warn_invalid_env(name, raw, default)
    return default


def non_negative_int(name: str, default: int) -> int:
    """``int >= 0`` or *default* (warning on present-but-invalid values)."""
    raw = os.environ.get(name, "").strip()
    if raw:
        try:
            value: Optional[int] = int(raw)
        except ValueError:
            value = None
        if value is not None and value >= 0:
            return value
        warn_invalid_env(name, raw, default)
    return default


def positive_float(name: str, default: Optional[float] = None) -> Optional[float]:
    """``float > 0`` or *default* (warning on present-but-invalid values)."""
    raw = os.environ.get(name, "").strip()
    if raw:
        try:
            value: Optional[float] = float(raw)
        except ValueError:
            value = None
        if value is not None and value > 0:
            return value
        warn_invalid_env(name, raw, default)
    return default


def raw_string(name: str, default: str = "") -> str:
    """The variable's raw value (free-form specs parse at their call site)."""
    return os.environ.get(name, default)


def choice(name: str, choices: "tuple", default: str) -> str:
    """One of *choices* (case-insensitive) or *default* (warning otherwise)."""
    raw = os.environ.get(name, "")
    value = raw.strip().lower()
    if not value:
        return default
    if value in choices:
        return value
    warn_invalid_env(name, raw, default)
    return default


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EnvKnob:
    """One declared environment knob: typed, defaulted, introspectable."""

    name: str
    kind: str  # "flag(strict)" | "int" | "float" | "str"
    default: object
    description: str
    read: Callable[[], object]

    def current(self) -> Dict[str, object]:
        """Current effective value plus where it came from."""
        raw = os.environ.get(self.name)
        return {
            "name": self.name,
            "kind": self.kind,
            "default": self.default,
            "value": self.read(),
            "raw": raw,
            "source": "env" if raw is not None and raw.strip() else "default",
        }


KNOBS: Dict[str, EnvKnob] = {}


def _register(
    name: str,
    kind: str,
    default: object,
    description: str,
    read: Callable[[], object],
) -> EnvKnob:
    knob = EnvKnob(name, kind, default, description, read)
    KNOBS[name] = knob
    return knob


_register(
    FAULT_INJECT_ENV,
    "str",
    "",
    "scripted fault plan action@point:index[:arg],... for the storage fault points",
    lambda: raw_string(FAULT_INJECT_ENV, ""),
)
_register(
    TRACE_ENV,
    "flag(strict)",
    False,
    "enable span tracing across the engine and the searches (repro.obs.trace)",
    lambda: flag_strict(TRACE_ENV),
)
_register(
    MEMO_CAPACITY_ENV,
    "int",
    DEFAULT_MEMO_CAPACITY,
    "LRU capacity of the engine's in-memory verdict memo (0: unbounded)",
    lambda: non_negative_int(MEMO_CAPACITY_ENV, DEFAULT_MEMO_CAPACITY),
)
_register(
    MEMO_PERSIST_PATH_ENV,
    "str",
    "",
    "directory of the crash-safe persistent verdict store (empty: memory-only memo)",
    lambda: raw_string(MEMO_PERSIST_PATH_ENV, ""),
)
_register(
    MEMO_LOCK_TIMEOUT_ENV,
    "float",
    DEFAULT_MEMO_LOCK_TIMEOUT,
    "seconds to wait for the verdict store's advisory lock before degrading",
    lambda: positive_float(MEMO_LOCK_TIMEOUT_ENV, DEFAULT_MEMO_LOCK_TIMEOUT),
)
_register(
    MEMO_COMPACT_SEGMENTS_ENV,
    "int",
    DEFAULT_MEMO_COMPACT_SEGMENTS,
    "segment-file count above which the verdict store compacts its append log",
    lambda: positive_int(MEMO_COMPACT_SEGMENTS_ENV, DEFAULT_MEMO_COMPACT_SEGMENTS),
)
_register(
    STORE_BACKEND_ENV,
    "str",
    DEFAULT_STORE_BACKEND,
    "store backend for backend-agnostic call sites: memory (shards) or sqlite (disk)",
    lambda: choice(STORE_BACKEND_ENV, STORE_BACKEND_CHOICES, DEFAULT_STORE_BACKEND),
)
_register(
    SQL_PUSHDOWN_MIN_ROWS_ENV,
    "int",
    DEFAULT_SQL_PUSHDOWN_MIN_ROWS,
    "largest-relation row count at which SQL-backed plans push down as SQL joins",
    lambda: positive_int(SQL_PUSHDOWN_MIN_ROWS_ENV, DEFAULT_SQL_PUSHDOWN_MIN_ROWS),
)


def all_knobs() -> List[EnvKnob]:
    """Every declared knob, sorted by name."""
    return [KNOBS[name] for name in sorted(KNOBS)]


def knob(name: str) -> EnvKnob:
    """The declared knob called *name* (``KeyError`` if undeclared)."""
    return KNOBS[name]
