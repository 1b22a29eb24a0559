"""Secondary indexes: hash (equality) and sorted (range) indexes.

Indexes map a column value to the set of row IDs holding it.  The engine
maintains them on insert/update/delete; the SQL layer consults them for
equality and range predicates.  There is one index per indexed column,
the live one: a locked transaction probes it as it is, a snapshot probes
it and corrects the answer by the rows written since the snapshot
(:mod:`repro.storage.rdbms.mvcc`).  A checkpoint stores an index's
contents (:meth:`Index.image`), so reopen loads it instead of rebuilding
it from the rows — and keeps it as that image until its first use.
"""

from __future__ import annotations

import bisect
import threading
from abc import ABC, abstractmethod
from array import array
from itertools import accumulate, chain, groupby
from operator import itemgetter
from typing import Any, Iterable, Iterator

from repro.storage.rdbms.segments import from_base64, to_base64


class Index(ABC):
    """Common index interface.

    An index loaded from a checkpoint image (:meth:`from_image`) leaves
    its contents attribute (:attr:`_CONTENTS`) unset and holds the image
    until the first use reads it (:meth:`__getattr__`).
    """

    #: the attribute that holds a subclass's contents
    _CONTENTS = ""
    #: the checkpoint image of an index not yet taken in
    _image: dict[str, Any] | None = None

    def __init__(self, table: str, column: str) -> None:
        self.table = table
        self.column = column

    def __getattr__(self, name: str) -> Any:
        """The contents of an index loaded from an image, taken in on
        first use (only an unset attribute gets here) under the index's
        own lock, so a writer's first insert and a reader's first probe
        take in one copy."""
        if name != self._CONTENTS:
            raise AttributeError(name)
        if self._image is not None:
            with self._lock:
                image = self._image
                if image is not None:
                    rids, bounds = from_base64(image["rids"], "q").tolist(), \
                        image["bounds"]
                    self._load_runs(zip(image["keys"], map(
                        rids.__getitem__, map(slice, bounds, bounds[1:]))))
                    self._image = None
        try:  # (taken in by now: here, or by another first use)
            return self.__dict__[name]
        except KeyError:
            raise AttributeError(name) from None

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
    def runs(self) -> Iterable[tuple[Any, list[int]]]:
        """``(key, ascending rids)`` per key, in index order."""

    @abstractmethod
    def _load_runs(self, runs: Iterable[tuple[Any, list[int]]]) -> None:
        """Take in what :meth:`runs` gave, into an empty index."""

    def image(self) -> dict[str, Any]:
        """What a checkpoint stores of this index: its keys in index
        order, ``bounds`` (key ``i``'s rids are ``rids[bounds[i]:bounds[i
        + 1]]``) and the rids as base64 of one little-endian int64
        buffer — the image a loaded index came from, while it still
        holds it."""
        image = self._image
        if image is not None:
            return {name: image[name] for name in ("keys", "bounds", "rids")}
        keys, rids = [], []
        for key, held in self.runs():
            keys.append(key)
            rids.append(held)
        return {"keys": keys,
                "bounds": list(accumulate(map(len, rids), initial=0)),
                "rids": to_base64(array("q", chain.from_iterable(rids)))}

    @classmethod
    def from_image(cls, table: str, column: str,
                   image: dict[str, Any]) -> "Index":
        """The index :meth:`image` made ``image`` of, kept as that image
        until its first use: no row is read."""
        index = cls(table, column)
        delattr(index, cls._CONTENTS)
        index._lock = threading.Lock()
        index._image = image
        return index


class HashIndex(Index):
    """Dict-backed equality index.

    Buckets are rid lists kept sorted on mutation (binary-search insert
    and remove), so :meth:`lookup` returns the deterministic ascending
    order with an O(k) copy instead of an O(k log k) sort per call —
    lookups vastly outnumber mutations on the facts table's hot paths.
    """

    _CONTENTS = "_buckets"

    def __init__(self, table: str, column: str) -> None:
        super().__init__(table, column)
        self._buckets: dict[Any, list[int]] = {}

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
        return list(self._buckets.get(value, ()))

    def bulk_load(self, pairs: Iterable[tuple[Any, int]]) -> None:
        buckets = self._buckets
        for value, rid in pairs:
            if value is None:
                continue
            buckets.setdefault(value, []).append(rid)
        for bucket in buckets.values():
            bucket.sort()

    def runs(self) -> Iterable[tuple[Any, list[int]]]:
        return self._buckets.items()

    def _load_runs(self, runs: Iterable[tuple[Any, list[int]]]) -> None:
        self._buckets = dict(runs)

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values())


class SortedIndex(Index):
    """Sorted-list index supporting range scans.

    Keeps parallel sorted arrays of (value, rid) pairs; lookups and range
    scans use :mod:`bisect`.  Values must be mutually comparable.
    """

    _CONTENTS = "_pairs"

    def __init__(self, table: str, column: str) -> None:
        super().__init__(table, column)
        self._pairs: list[tuple[Any, int]] = []

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

    def runs(self) -> Iterable[tuple[Any, list[int]]]:
        # (a run of equal values is one key: -0.0 joins 0.0, each NaN
        # is a key of its own)
        return ((key, [rid for _, rid in pairs])
                for key, pairs in groupby(self._pairs, key=itemgetter(0)))

    def _load_runs(self, runs: Iterable[tuple[Any, list[int]]]) -> None:
        self._pairs = [(key, rid) for key, rids in runs for rid in rids]

    def lookup(self, value: Any) -> list[int]:
        # equal values sort by rid: the stretch is in ascending rid order
        return [] if value is None else list(self.range(value, value))

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[int]:
        """Row IDs whose value lies in the given (optional) bounds."""
        pairs = self._pairs
        start, stop = 0, len(pairs)
        if low is not None:
            start = bisect.bisect_left(pairs, (low, -1)) if include_low \
                else bisect.bisect_right(pairs, (low, float("inf")))
        if high is not None:
            stop = bisect.bisect_right(pairs, (high, float("inf"))) \
                if include_high else bisect.bisect_left(pairs, (high, -1))
        return map(itemgetter(1), pairs[start:stop])

    def __len__(self) -> int:
        return len(self._pairs)
