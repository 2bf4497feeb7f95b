"""A stored hash for the frozen AST classes.

A frozen dataclass hashes the tuple of its fields on every call, so a
dict lookup keyed by a formula, query or guard re-hashes the whole tree
below it — and the searches key their memos, engine fingerprints and
tableau states on such trees over and over.  :func:`cached_hash`
computes the hash on first use and stores it on the instance.

The stored value *is* the dataclass-generated one, so set iteration
order, search order and every work count are unchanged.  It lives in the
instance ``__dict__``, not in a dataclass field: ``fields()``, equality,
``repr`` and :func:`repro.store.verdict_cache.encode_key` bytes do not
see it.  Pickling drops it (string hashes differ between interpreters
with different ``PYTHONHASHSEED``), so a pool or spawn-started worker
recomputes it under its own seed; ``copy`` goes through the same
``__getstate__`` and recomputes it too.

A class may memoise other derived values the same way: an instance
attribute named ``_cached_<what>`` (class default ``None``, set with
``object.__setattr__``) follows the same contract — outside the
fields, dropped from pickles and copies.
"""

from __future__ import annotations

from typing import Type, TypeVar

T = TypeVar("T")

#: Instance attribute holding the stored hash (``None`` on the class).
_ATTR = "_cached_hash"
#: Prefix of every memoised instance attribute ``__getstate__`` drops.
_MEMO_PREFIX = "_cached_"

_set = object.__setattr__


def cached_hash(cls: Type[T]) -> Type[T]:
    """Store the hash of each *cls* instance after its first computation.

    Apply it above ``@dataclass(frozen=True)``: it wraps the generated
    ``__hash__``, so the class must be frozen and compare by value.  The
    classes it is applied to are immutable trees; the mutable containers
    built from them (``AAutomaton``, ``AccessSchema``) are not hashable
    and do not use it.
    """
    generated = cls.__dict__.get("__hash__")
    if generated is None:
        raise TypeError(f"{cls.__qualname__} has no generated __hash__ to cache")

    def __hash__(self) -> int:
        value = self._cached_hash
        if value is None:
            value = generated(self)
            _set(self, _ATTR, value)
        return value

    memo = (_ATTR,) + tuple(
        name for name in vars(cls) if name.startswith(_MEMO_PREFIX) and name != _ATTR
    )

    def __getstate__(self) -> dict:
        state = self.__dict__
        for name in memo:
            if name in state:
                return {key: value for key, value in state.items() if key not in memo}
        return state

    __hash__.__qualname__ = f"{cls.__qualname__}.__hash__"
    __getstate__.__qualname__ = f"{cls.__qualname__}.__getstate__"
    setattr(cls, _ATTR, None)
    cls.__hash__ = __hash__  # type: ignore[assignment]
    cls.__getstate__ = __getstate__  # type: ignore[attr-defined]
    return cls
