"""A persistent hash array mapped trie (HAMT) map.

This is the structural-sharing substrate of the fact store
(:mod:`repro.store.snapshot`): an immutable mapping with O(log32 n)
``set``/``delete``/``get`` where every update returns a *new* map sharing
all untouched subtrees with the old one.  Taking a snapshot of a store
built on these maps is therefore O(1) — the snapshot simply retains the
current roots — and restoring a snapshot is equally O(1).

Design notes
------------

* **Node kinds.**  ``_Leaf`` holds one ``(hash, key, value)`` entry;
  ``_Bitmap`` is the classic 32-way bitmap-indexed branch node;
  ``_Collision`` holds the (rare) entries whose masked hashes are fully
  equal.  The empty map has root ``None``.

* **Canonical shape.**  For a fixed hash function the shape of the trie
  depends only on the *set* of keys, not on the insertion order: inserts
  place entries by hash bits alone, and deletes collapse branch nodes
  back to leaves whenever a single non-branch entry remains.  Structural
  equality (:meth:`PMap.__eq__`) exploits this — it walks both tries in
  lockstep with an identity short-circuit, so comparing two snapshots
  that share most of their structure touches only the differing subtrees.

* **Hash stability across processes.**  The trie layout depends on
  ``hash()``, which for strings is randomized per process.  A pickled
  map therefore never ships its nodes: :meth:`PMap.__reduce__`
  serialises the items and the receiving process rebuilds the trie with
  its own hash seed.  This is what makes snapshots safely picklable into
  worker processes (see :mod:`repro.store.workqueue`) even under the
  ``spawn`` start method.

The map is deliberately minimal: exactly the operations the fact store
needs, nothing speculative.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

_BITS = 5
_MASK = (1 << _BITS) - 1
# Hashes are masked to 60 bits (12 levels of 5 bits) so that negative
# Python hashes index correctly and the trie has a fixed maximal depth.
_HASH_BITS = 60
_HASH_MASK = (1 << _HASH_BITS) - 1


class _Leaf:
    __slots__ = ("h", "key", "value")

    def __init__(self, h: int, key: object, value: object) -> None:
        self.h = h
        self.key = key
        self.value = value


class _Collision:
    """Entries whose 60-bit hashes are fully equal (pathological case)."""

    __slots__ = ("h", "pairs")

    def __init__(self, h: int, pairs: Tuple[Tuple[object, object], ...]) -> None:
        self.h = h
        self.pairs = pairs


class _Bitmap:
    __slots__ = ("bitmap", "items")

    def __init__(self, bitmap: int, items: Tuple[object, ...]) -> None:
        self.bitmap = bitmap
        self.items = items


def _key_hash(key: object) -> int:
    return hash(key) & _HASH_MASK


def _merge(shift: int, a: object, b: object) -> _Bitmap:
    """A branch holding two subtrees with distinct hashes (``a.h != b.h``)."""
    index_a = (a.h >> shift) & _MASK  # type: ignore[attr-defined]
    index_b = (b.h >> shift) & _MASK  # type: ignore[attr-defined]
    if index_a == index_b:
        return _Bitmap(1 << index_a, (_merge(shift + _BITS, a, b),))
    if index_a < index_b:
        return _Bitmap((1 << index_a) | (1 << index_b), (a, b))
    return _Bitmap((1 << index_a) | (1 << index_b), (b, a))


def _assoc(node: object, shift: int, h: int, key: object, value: object):
    """Insert/replace ``key``; returns ``(new_node, grew)``."""
    if node is None:
        return _Leaf(h, key, value), True
    if type(node) is _Leaf:
        if node.h == h:
            if node.key == key:
                return _Leaf(h, key, value), False
            return _Collision(h, ((node.key, node.value), (key, value))), True
        return _merge(shift, node, _Leaf(h, key, value)), True
    if type(node) is _Collision:
        if node.h == h:
            for position, (existing, _) in enumerate(node.pairs):
                if existing == key:
                    pairs = (
                        node.pairs[:position]
                        + ((key, value),)
                        + node.pairs[position + 1 :]
                    )
                    return _Collision(h, pairs), False
            return _Collision(h, node.pairs + ((key, value),)), True
        return _merge(shift, node, _Leaf(h, key, value)), True
    # _Bitmap
    index = (h >> shift) & _MASK
    bit = 1 << index
    slot = (node.bitmap & (bit - 1)).bit_count()
    if node.bitmap & bit:
        child, grew = _assoc(node.items[slot], shift + _BITS, h, key, value)
        items = node.items[:slot] + (child,) + node.items[slot + 1 :]
        return _Bitmap(node.bitmap, items), grew
    items = node.items[:slot] + (_Leaf(h, key, value),) + node.items[slot:]
    return _Bitmap(node.bitmap | bit, items), True


def _dissoc(node: object, shift: int, h: int, key: object):
    """Remove ``key``; returns ``(new_node_or_None, removed)``."""
    if node is None:
        return None, False
    if type(node) is _Leaf:
        if node.h == h and node.key == key:
            return None, True
        return node, False
    if type(node) is _Collision:
        if node.h != h:
            return node, False
        for position, (existing, existing_value) in enumerate(node.pairs):
            if existing == key:
                pairs = node.pairs[:position] + node.pairs[position + 1 :]
                if len(pairs) == 1:
                    return _Leaf(h, pairs[0][0], pairs[0][1]), True
                return _Collision(h, pairs), True
        return node, False
    # _Bitmap
    index = (h >> shift) & _MASK
    bit = 1 << index
    if not (node.bitmap & bit):
        return node, False
    slot = (node.bitmap & (bit - 1)).bit_count()
    child, removed = _dissoc(node.items[slot], shift + _BITS, h, key)
    if not removed:
        return node, False
    if child is None:
        bitmap = node.bitmap & ~bit
        items = node.items[:slot] + node.items[slot + 1 :]
        if not items:
            return None, True
        if len(items) == 1 and type(items[0]) is not _Bitmap:
            return items[0], True  # collapse: keeps the shape canonical
        return _Bitmap(bitmap, items), True
    items = node.items[:slot] + (child,) + node.items[slot + 1 :]
    if len(items) == 1 and type(child) is not _Bitmap:
        return child, True
    return _Bitmap(node.bitmap, items), True


def _get(node: object, h: int, key: object, default: object) -> object:
    shift = 0
    while node is not None:
        kind = type(node)
        if kind is _Leaf:
            if node.h == h and node.key == key:
                return node.value
            return default
        if kind is _Collision:
            if node.h == h:
                for existing, value in node.pairs:
                    if existing == key:
                        return value
            return default
        bit = 1 << ((h >> shift) & _MASK)
        if not (node.bitmap & bit):
            return default
        node = node.items[(node.bitmap & (bit - 1)).bit_count()]
        shift += _BITS
    return default


def _iter_items(node: object) -> Iterator[Tuple[object, object]]:
    if node is None:
        return
    stack = [node]
    while stack:
        current = stack.pop()
        kind = type(current)
        if kind is _Leaf:
            yield current.key, current.value
        elif kind is _Collision:
            yield from current.pairs
        else:
            stack.extend(current.items)


def _node_eq(a: object, b: object) -> bool:
    """Structural equality with identity short-circuits.

    Because the shape of a trie is canonical for its key set, equal maps
    have equal shapes (up to the order of collision pairs), so a lockstep
    walk decides equality without materialising either side.
    """
    if a is b:
        return True
    if a is None or b is None:
        return False
    kind = type(a)
    if kind is not type(b):
        return False
    if kind is _Leaf:
        return a.h == b.h and a.key == b.key and a.value == b.value
    if kind is _Collision:
        if a.h != b.h or len(a.pairs) != len(b.pairs):
            return False
        remaining = list(b.pairs)
        for pair in a.pairs:
            try:
                remaining.remove(pair)
            except ValueError:
                return False
        return True
    if a.bitmap != b.bitmap or len(a.items) != len(b.items):
        return False
    return all(_node_eq(x, y) for x, y in zip(a.items, b.items))


class PMap:
    """An immutable, structurally shared mapping.

    Every mutating operation returns a new :class:`PMap`; the receiver is
    never changed.  Iteration order is unspecified (it follows the hash
    layout) — callers needing a stable order must sort.
    """

    __slots__ = ("_root", "_size")

    def __init__(self, items: Optional[Iterable[Tuple[object, object]]] = None) -> None:
        self._root: object = None
        self._size = 0
        if items:
            root = None
            size = 0
            for key, value in items:
                root, grew = _assoc(root, 0, _key_hash(key), key, value)
                if grew:
                    size += 1
            self._root = root
            self._size = size

    @classmethod
    def _from_root(cls, root: object, size: int) -> "PMap":
        new = cls.__new__(cls)
        new._root = root
        new._size = size
        return new

    def set(self, key: object, value: object) -> "PMap":
        """A map with ``key`` bound to ``value``."""
        root, grew = _assoc(self._root, 0, _key_hash(key), key, value)
        return PMap._from_root(root, self._size + (1 if grew else 0))

    def delete(self, key: object) -> "PMap":
        """A map without ``key``; returns ``self`` when the key is absent."""
        root, removed = _dissoc(self._root, 0, _key_hash(key), key)
        if not removed:
            return self
        return PMap._from_root(root, self._size - 1)

    def get(self, key: object, default: object = None) -> object:
        return _get(self._root, _key_hash(key), key, default)

    def __contains__(self, key: object) -> bool:
        sentinel = _ABSENT
        return _get(self._root, _key_hash(key), key, sentinel) is not sentinel

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self) -> Iterator[object]:
        for key, _ in _iter_items(self._root):
            yield key

    def keys(self) -> Iterator[object]:
        return iter(self)

    def items(self) -> Iterator[Tuple[object, object]]:
        return _iter_items(self._root)

    def values(self) -> Iterator[object]:
        for _, value in _iter_items(self._root):
            yield value

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PMap):
            return NotImplemented
        if self._size != other._size:
            return False
        return _node_eq(self._root, other._root)

    __hash__ = None  # mutable-by-convention containers as values; keep unhashable

    def __reduce__(self):
        # Never pickle nodes: their layout depends on this process's hash
        # seed.  Ship the items and rebuild on the receiving side.
        return (PMap, (tuple(self.items()),))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        preview = ", ".join(f"{k!r}: {v!r}" for k, v in list(self.items())[:8])
        suffix = ", ..." if self._size > 8 else ""
        return f"PMap({{{preview}{suffix}}})"


class _Absent:
    __slots__ = ()


_ABSENT = _Absent()

EMPTY_PMAP = PMap()
