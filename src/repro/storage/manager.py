"""Storage manager: routes each data form to its device.

The paper's storage layer holds four forms of data; the manager gives each
its recommended device (all rooted under one workspace directory):

* raw unstructured snapshots → :class:`SnapshotStore` (``raw/``),
* intermediate structured data → :class:`RecordFileStore` (``intermediate/``),
* final structured data → :class:`Database` (``final/``),
* user contributions → :class:`Database` table space too (they need the
  same concurrency control as the final structure).
"""

from __future__ import annotations

import os

from repro.storage.filestore import RecordFileStore
from repro.storage.rdbms.engine import Database
from repro.storage.snapshots import SnapshotStore


class StorageManager:
    """One-stop factory for the storage layer, rooted at a directory
    (``None``: every device in memory, the database without a WAL).

    Attributes:
        raw: versioned store for crawled/unstructured snapshots.
        intermediate: sequential record store for extraction intermediates
            (the system keeps one lineage record per stored fact here).
        final: transactional relational store for the derived structure
            and for user contributions.
    """

    def __init__(self, root: str | None) -> None:
        self.root = root
        self.raw = SnapshotStore(self.path("raw"))
        self.intermediate = RecordFileStore(self.path("intermediate"))
        self.final = Database(self.path("final"))

    def path(self, name: str) -> str | None:
        """``<root>/<name>``, or None (in memory) without a root."""
        return None if self.root is None else os.path.join(self.root, name)

    def close(self) -> None:
        """Release file handles (each log's open segment)."""
        self.raw.close()
        self.intermediate.close()
        self.final.close()

    def disk_usage(self) -> dict[str, int]:
        """Bytes used per device (raw / intermediate / final WAL)."""
        return {
            "raw": self.raw.total_bytes(),
            "intermediate": self.intermediate.total_bytes(),
            "final_wal": self.final.wal_size_bytes(),
        }
