"""Versioned snapshot stores for crawled corpora.

The paper: *"if the unstructured data is retrieved daily from a collection of
Web sites, then the daily snapshots will overlap a lot, and hence may be best
stored in a device such as Subversion, which only stores the 'diff' across
the snapshots, to save space."*

:class:`SnapshotStore` implements exactly that: per document it keeps a chain
of line-level deltas with periodic full keyframes (so checkout cost stays
bounded) in one append-only log; an unchanged page stores nothing.
:class:`FullCopyStore` is the naive comparator that stores every snapshot in
full; experiment E5 measures the space ratio between the two.

Both stores persist to a directory so that on-disk size is a real,
measurable quantity; ``SnapshotStore(None)`` keeps its log in memory.
"""

from __future__ import annotations

import difflib
import json
import os
import threading
from dataclasses import dataclass
from typing import Iterator

from repro.docmodel.corpus import Corpus
from repro.docmodel.document import Document, DocumentMetadata
from repro.storage.filestore import Record, RecordFileStore

_OP_EQUAL = "="
_OP_INSERT = "+"
_OP_DELETE = "-"


@dataclass(frozen=True)
class SnapshotInfo:
    """Metadata about one stored version of one document."""

    doc_id: str
    version: int
    is_keyframe: bool
    byte_size: int


def compute_delta(old_lines: list[str], new_lines: list[str]) -> list[list]:
    """Line-level delta transforming ``old_lines`` into ``new_lines``.

    The delta is a list of ops: ``["=", n]`` copies n lines from the old
    version, ``["-", n]`` skips n old lines, ``["+", [lines...]]`` inserts
    new lines.  This is the minimal structure needed to replay the chain.
    """
    matcher = difflib.SequenceMatcher(a=old_lines, b=new_lines, autojunk=False)
    delta: list[list] = []
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            delta.append([_OP_EQUAL, i2 - i1])
        elif tag == "delete":
            delta.append([_OP_DELETE, i2 - i1])
        elif tag == "insert":
            delta.append([_OP_INSERT, new_lines[j1:j2]])
        elif tag == "replace":
            delta.append([_OP_DELETE, i2 - i1])
            delta.append([_OP_INSERT, new_lines[j1:j2]])
    return delta


def apply_delta(old_lines: list[str], delta: list[list]) -> list[str]:
    """Apply a delta produced by :func:`compute_delta`.

    Raises:
        ValueError: if the delta does not fit the old version (corruption).
    """
    out: list[str] = []
    cursor = 0
    for op in delta:
        kind = op[0]
        if kind == _OP_EQUAL:
            count = op[1]
            if cursor + count > len(old_lines):
                raise ValueError("delta copies past end of base version")
            out.extend(old_lines[cursor : cursor + count])
            cursor += count
        elif kind == _OP_DELETE:
            count = op[1]
            if cursor + count > len(old_lines):
                raise ValueError("delta deletes past end of base version")
            cursor += count
        elif kind == _OP_INSERT:
            out.extend(op[1])
        else:
            raise ValueError(f"unknown delta op {kind!r}")
    if cursor != len(old_lines):
        raise ValueError("delta does not consume the whole base version")
    return out


class SnapshotStore(Corpus):
    """Diff-based versioned document store with periodic keyframes.

    One version of a page is one record of a ``RecordFileStore`` log:
    ``{"doc", "v", "hash"}`` then ``"lines"`` (every ``keyframe_every``-th
    version) or a ``"delta"``.  The head map (page -> record ids, latest
    hash) is one pass over the log on first use.  The system's corpus: the
    latest version of each page, in first-commit order, checked out as
    iteration reaches it.  Threads may share a handle; handles may commit
    in turn, not at the same instant; readers follow :meth:`changes_since`.
    """

    def __init__(self, root: str | None, keyframe_every: int = 20) -> None:
        if keyframe_every < 1:
            raise ValueError("keyframe_every must be >= 1")
        if root is not None and os.path.isdir(root) \
                and any(e.is_dir() for e in os.scandir(root)):
            raise ValueError(f"{root} holds one directory per page, an older "
                             "layout: ingest the pages into a new workspace")
        self._log = RecordFileStore(root)
        self._keyframe_every = keyframe_every
        self._lock = threading.RLock()
        self._chains: dict[str, list[int]] | None = None
        self._hashes: dict[str, str] = {}
        self._pages: list[str] = []  # by record id (ids run 0, 1, 2, ...)

    # ------------------------------------------------------------------ API

    def commit(self, doc: Document) -> int:
        """Store ``doc`` as a new version unless its text equals the latest
        stored one; returns the version that holds the text.  Takes in
        what other handles have appended first."""
        digest = doc.content_hash()
        with self._lock:
            version = len(self._take_in().get(doc.doc_id, ()))
            if version and self._hashes[doc.doc_id] == digest:
                return version - 1
            record: dict = {"doc": doc.doc_id, "v": version, "hash": digest}
            if version % self._keyframe_every == 0:
                record["lines"] = doc.lines()
            else:
                record["delta"] = compute_delta(
                    self._materialize(doc.doc_id, version - 1), doc.lines())
            self._fold(Record(self._log.append(record), record))
            return version

    def checkout(self, doc_id: str, version: int | None = None) -> Document:
        """Reconstruct a document at ``version`` (default: latest).

        Raises:
            KeyError: unknown document or version.
        """
        latest = self.latest_version(doc_id)
        if latest is None:
            raise KeyError(doc_id)
        version = latest if version is None else version
        if not 0 <= version <= latest:
            raise KeyError(f"{doc_id}@{version}")
        return Document(doc_id=doc_id,
                        text="".join(self._materialize(doc_id, version)),
                        metadata=DocumentMetadata(source=f"snapshot:{doc_id}@{version}"))

    get = checkout

    def latest_version(self, doc_id: str) -> int | None:
        """Highest stored version number, or None if the doc is unknown."""
        chain = self._heads().get(doc_id)
        return None if chain is None else len(chain) - 1

    def __iter__(self) -> Iterator[Document]:
        return map(self.checkout, self.doc_ids())

    def __len__(self) -> int:
        return len(self._take_in())

    def doc_ids(self) -> list[str]:
        """IDs of all stored documents, in first-commit order."""
        with self._lock:
            return list(self._take_in())

    def history(self, doc_id: str) -> Iterator[SnapshotInfo]:
        """Yield per-version storage info, oldest first."""
        with self._lock:
            records = self._log.get(self._heads().get(doc_id, []))
        for record in records:
            yield SnapshotInfo(
                doc_id=doc_id,
                version=record.payload["v"],
                is_keyframe="lines" in record.payload,
                byte_size=len(json.dumps(
                    {"id": record.record_id, **record.payload})) + 1,
            )

    def total_bytes(self) -> int:
        """Total size of all stored versions (E5's metric)."""
        return self._log.total_bytes()

    def close(self) -> None:
        self._log.close()

    def changes_since(self, cursor: int) -> tuple[list[str], list[str], int]:
        """The corpus delta since record id ``cursor``: ``(added, changed,
        next cursor)`` — pages first stored since, older pages with a
        version written since, and the cursor to pass next.  Takes in what
        other handles have appended; costs the records written since."""
        with self._lock:
            chains = self._take_in()
            since = set(self._pages[max(cursor, 0):])
            return (sorted(d for d in since if chains[d][0] >= cursor),
                    sorted(d for d in since if chains[d][0] < cursor),
                    len(self._pages))

    # ------------------------------------------------------------ internals

    def _heads(self) -> dict[str, list[int]]:
        with self._lock:
            return self._take_in() if self._chains is None else self._chains

    def _take_in(self) -> dict[str, list[int]]:
        """The head map, with the log's records beyond it folded in; a
        failed pass is forgotten (the next one re-reads the log from its
        start), so a log this store cannot read raises on every use."""
        with self._lock:
            if self._chains is None:
                self._chains, self._pages = {}, []
            try:
                for record in self._log.follow():
                    self._fold(record)
            except BaseException:
                self._chains = None
                self._log.rewind()
                raise
            return self._chains

    def _fold(self, record: Record) -> None:
        """Make ``record`` the latest version of its page in the head map."""
        page = record.payload
        chain = self._chains.setdefault(page["doc"], [])
        if page["v"] != len(chain) or record.record_id != len(self._pages):
            raise ValueError(f"raw log record {record.record_id} stores "
                             f"{page['doc']}@{page['v']} after version "
                             f"{len(chain) - 1}, record {len(self._pages) - 1}")
        chain.append(record.record_id)
        self._hashes[page["doc"]] = page["hash"]
        self._pages.append(page["doc"])

    def _materialize(self, doc_id: str, version: int) -> list[str]:
        first = version - version % self._keyframe_every
        with self._lock:
            records = self._log.get(self._chains[doc_id][first:version + 1])
        keyframe = records[0].payload
        if "lines" not in keyframe:
            raise ValueError(f"expected keyframe at {doc_id}@{first}")
        lines: list[str] = keyframe["lines"]
        for record in records[1:]:
            lines = apply_delta(lines, record.payload["delta"])
        return lines


class FullCopyStore:
    """Naive comparator: stores every snapshot in full.

    Same API subset as :class:`SnapshotStore` (commit / checkout /
    total_bytes) so E5 can swap the two.  ``<root>/<doc_id>/v<NNNN>.txt``:
    a doc id that is not a valid file name raises ``ValueError``.
    """

    def __init__(self, root: str) -> None:
        self._root = root
        os.makedirs(root, exist_ok=True)

    def commit(self, doc: Document) -> int:
        os.makedirs(self._path(doc.doc_id), exist_ok=True)
        version = self._versions(doc.doc_id)
        with open(self._path(doc.doc_id, version), "w", encoding="utf-8") as f:
            f.write(doc.text)
        return version

    def checkout(self, doc_id: str, version: int | None = None) -> Document:
        count = self._versions(doc_id)
        version = count - 1 if version is None else version
        if not 0 <= version < count:
            raise KeyError(f"{doc_id}@{version}")
        with open(self._path(doc_id, version), "r", encoding="utf-8") as f:
            text = f.read()
        return Document(doc_id=doc_id, text=text,
                        metadata=DocumentMetadata(source=f"fullcopy:{doc_id}@{version}"))

    def total_bytes(self) -> int:
        return sum(os.path.getsize(os.path.join(dirpath, name))
                   for dirpath, _, names in os.walk(self._root)
                   for name in names)

    def _versions(self, doc_id: str) -> int:
        doc_dir = self._path(doc_id)
        return len(os.listdir(doc_dir)) if os.path.isdir(doc_dir) else 0

    def _path(self, doc_id: str, version: int | None = None) -> str:
        if os.sep in doc_id or doc_id in {"", ".", ".."}:
            raise ValueError(f"doc_id {doc_id!r} is not a valid file name")
        doc_dir = os.path.join(self._root, doc_id)
        return doc_dir if version is None else os.path.join(
            doc_dir, f"v{version:04d}.txt")
