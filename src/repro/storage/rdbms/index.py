"""Secondary indexes: hash (equality) and sorted (range) indexes.

Indexes map a column value to the set of row IDs holding it.  The engine
maintains them on insert/update/delete; the SQL layer consults them for
equality and range predicates.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from copy import copy
from operator import itemgetter
from typing import Any, Iterable, Iterator

#: One row's change as an index sees it: ``(old value, new value, rid)``,
#: the two different, None standing for "no entry" (the row was not there,
#: or holds NULL).
Move = tuple[Any, Any, int]


def _outgrown(changed: int, base: int) -> bool:
    """Whether an overlay of ``changed`` entries is to be folded into the
    ``base`` under it, anew: O(base) once per base / 4 changes."""
    return changed * 4 > base


class Index(ABC):
    """Common index interface."""

    def __init__(self, table: str, column: str) -> None:
        self.table = table
        self.column = column

    @abstractmethod
    def insert(self, value: Any, rid: int) -> None:
        """Register ``rid`` under ``value`` (None values are not indexed)."""

    @abstractmethod
    def remove(self, value: Any, rid: int) -> None:
        """Unregister; silently ignores unknown pairs."""

    @abstractmethod
    def lookup(self, value: Any) -> list[int]:
        """Row IDs with exactly ``value``."""

    def update(self, old_value: Any, new_value: Any, rid: int) -> None:
        """Move a rid from one key to another."""
        if old_value == new_value:
            return
        self.remove(old_value, rid)
        self.insert(new_value, rid)

    def bulk_load(self, pairs: "Iterable[tuple[Any, int]]") -> None:
        """Load many (value, rid) pairs into an empty index at once.

        Subclasses override with a sort-once fast path; per-pair
        :meth:`insert` into a large sorted structure is quadratic.
        """
        for value, rid in pairs:
            self.insert(value, rid)

    @abstractmethod
    def carry(self, moves: "Iterable[Move]") -> "Index":
        """A new index holding what this one holds after ``moves``, in
        O(rows moved): it shares this one's base and keeps what changed
        since in an overlay, folded in once :func:`_outgrown`.  This index
        stays as it is: a snapshot still reads it."""


class HashIndex(Index):
    """Dict-backed equality index.

    Buckets are rid lists kept sorted on mutation (binary-search insert
    and remove), so :meth:`lookup` returns the deterministic ascending
    order with an O(k) copy instead of an O(k log k) sort per call —
    lookups vastly outnumber mutations on the facts table's hot paths.
    """

    def __init__(self, table: str, column: str) -> None:
        super().__init__(table, column)
        self._buckets: dict[Any, list[int]] = {}
        #: :meth:`carry`'s overlay: value -> the bucket that stands in for
        #: the base's (an empty one: the value is gone)
        self._changed: dict[Any, list[int]] = {}

    def insert(self, value: Any, rid: int) -> None:
        if value is None:
            return
        bucket = self._buckets.setdefault(value, [])
        pos = bisect.bisect_left(bucket, rid)
        if pos == len(bucket) or bucket[pos] != rid:
            bucket.insert(pos, rid)

    def remove(self, value: Any, rid: int) -> None:
        if value is None:
            return
        bucket = self._buckets.get(value)
        if bucket is None:
            return
        pos = bisect.bisect_left(bucket, rid)
        if pos < len(bucket) and bucket[pos] == rid:
            bucket.pop(pos)
            if not bucket:
                del self._buckets[value]

    def lookup(self, value: Any) -> list[int]:
        bucket = self._changed.get(value) if self._changed else None
        if bucket is None:
            bucket = self._buckets.get(value, ())
        return list(bucket)

    def bulk_load(self, pairs: Iterable[tuple[Any, int]]) -> None:
        buckets = self._buckets
        for value, rid in pairs:
            if value is None:
                continue
            buckets.setdefault(value, []).append(rid)
        for bucket in buckets.values():
            bucket.sort()

    def carry(self, moves: Iterable[Move]) -> "HashIndex":
        new = copy(self)
        changed = new._changed = dict(self._changed)
        copied: set[Any] = set()  # values whose bucket this call may write
        for old, value, rid in moves:
            # out of the old value's bucket, into the new value's
            for key, enters in ((old, False), (value, True)):
                if key is None:
                    continue
                if key not in copied:
                    copied.add(key)
                    changed[key] = list(changed[key] if key in changed
                                        else self._buckets.get(key, ()))
                bucket = changed[key]
                pos = bisect.bisect_left(bucket, rid)
                if (pos < len(bucket) and bucket[pos] == rid) != enters:
                    bucket.insert(pos, rid) if enters else bucket.pop(pos)
        if _outgrown(len(changed), len(self._buckets)):
            new._buckets, new._changed = new._live(), {}
        return new

    def _live(self) -> dict[Any, list[int]]:
        """Every non-empty bucket: the base under its overlay."""
        if not self._changed:
            return self._buckets
        return {value: bucket for value, bucket
                in {**self._buckets, **self._changed}.items() if bucket}

    def __len__(self) -> int:
        return sum(len(b) for b in self._live().values())


class SortedIndex(Index):
    """Sorted-list index supporting range scans.

    Keeps parallel sorted arrays of (value, rid) pairs; lookups and range
    scans use :mod:`bisect`.  Values must be mutually comparable.
    """

    def __init__(self, table: str, column: str) -> None:
        super().__init__(table, column)
        self._pairs: list[tuple[Any, int]] = []
        #: :meth:`carry`'s overlay: pairs added to (sorted) and taken out
        #: of ``_pairs``
        self._added: list[tuple[Any, int]] = []
        self._removed: set[tuple[Any, int]] = set()

    def insert(self, value: Any, rid: int) -> None:
        if value is None:
            return
        bisect.insort(self._pairs, (value, rid))

    def remove(self, value: Any, rid: int) -> None:
        if value is None:
            return
        pos = bisect.bisect_left(self._pairs, (value, rid))
        if pos < len(self._pairs) and self._pairs[pos] == (value, rid):
            self._pairs.pop(pos)

    def bulk_load(self, pairs: Iterable[tuple[Any, int]]) -> None:
        self._pairs.extend((v, r) for v, r in pairs if v is not None)
        self._pairs.sort()

    def carry(self, moves: Iterable[Move]) -> "SortedIndex":
        new = copy(self)
        added = new._added = list(self._added)
        removed = new._removed = set(self._removed)
        for old, value, rid in moves:
            if old is not None:
                pos = bisect.bisect_left(added, (old, rid))
                if pos < len(added) and added[pos] == (old, rid):
                    added.pop(pos)
                else:
                    removed.add((old, rid))
            if value is not None:
                if (value, rid) in removed:
                    removed.discard((value, rid))
                else:
                    bisect.insort(added, (value, rid))
        if _outgrown(len(added) + len(removed), len(self._pairs)):
            new._pairs, new._added, new._removed = new._live(), [], set()
        return new

    def _live(self) -> list[tuple[Any, int]]:
        """Every pair, sorted: the base under its overlay."""
        if not (self._added or self._removed):
            return self._pairs
        return sorted([pair for pair in self._pairs
                       if pair not in self._removed] + self._added)

    def lookup(self, value: Any) -> list[int]:
        return [] if value is None else sorted(self.range(value, value))

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[int]:
        """Yield row IDs whose value lies in the given (optional) bounds."""
        removed = self._removed
        for pairs in (self._pairs, self._added):
            start, stop = 0, len(pairs)
            if low is not None:
                start = bisect.bisect_left(pairs, (low, -1)) if include_low \
                    else bisect.bisect_right(pairs, (low, float("inf")))
            if high is not None:
                stop = bisect.bisect_right(pairs, (high, float("inf"))) \
                    if include_high else bisect.bisect_left(pairs, (high, -1))
            if removed:
                yield from (pair[1] for pair in pairs[start:stop]
                            if pair not in removed)
            else:
                yield from map(itemgetter(1), pairs[start:stop])

    def min_value(self) -> Any:
        """Smallest indexed value, or None if empty."""
        pairs = self._live()
        return pairs[0][0] if pairs else None

    def max_value(self) -> Any:
        """Largest indexed value, or None if empty."""
        pairs = self._live()
        return pairs[-1][0] if pairs else None

    def __len__(self) -> int:
        return len(self._pairs) + len(self._added) - len(self._removed)


class UniqueMap:
    """A primary key's ``value -> rid`` map as a snapshot reads it: loaded
    once, then carried as an :class:`Index` is."""

    def __init__(self, table: str, column: str) -> None:
        self._rids: dict[Any, int] = {}
        #: :meth:`carry`'s overlay: value -> its rid now, None once gone
        self._changed: dict[Any, int | None] = {}

    def bulk_load(self, pairs: Iterable[tuple[Any, int]]) -> None:
        self._rids = dict(pairs)

    def get(self, value: Any) -> int | None:
        changed = self._changed
        return changed[value] if value in changed else self._rids.get(value)

    def carry(self, moves: Iterable[Move]) -> "UniqueMap":
        new = copy(self)
        changed = new._changed = dict(self._changed)
        for old, value, rid in moves:  # gone from the old key, at the new one
            changed[old], changed[value] = None, rid
        changed.pop(None, None)  # the row was not there / is there no more
        if _outgrown(len(changed), len(self._rids)):
            new._rids = {value: rid for value, rid
                         in {**self._rids, **changed}.items()
                         if rid is not None}
            new._changed = {}
        return new
