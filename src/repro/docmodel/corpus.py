"""Corpus containers.

A corpus is the unit the system ingests: an ordered collection of documents
with stable IDs.  Two implementations: an in-memory corpus (tests, synthetic
data) and a directory-backed corpus (one ``.txt`` file per document) for
workflows that stage crawled data on the file system, as the paper's storage
layer discussion envisions.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import Iterable, Iterator

from repro.docmodel.document import Document, DocumentMetadata


class Corpus(ABC):
    """Abstract ordered collection of documents with stable IDs."""

    @abstractmethod
    def __iter__(self) -> Iterator[Document]:
        """Iterate documents in a stable order."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of documents."""

    @abstractmethod
    def get(self, doc_id: str) -> Document:
        """Fetch a document by ID.

        Raises:
            KeyError: if no document has that ID.
        """

    def doc_ids(self) -> list[str]:
        """All document IDs, in iteration order."""
        return [doc.doc_id for doc in self]

    def __contains__(self, doc_id: str) -> bool:
        try:
            self.get(doc_id)
        except KeyError:
            return False
        return True


class InMemoryCorpus(Corpus):
    """Corpus held entirely in memory; insertion-ordered."""

    def __init__(self, documents: Iterable[Document] = ()) -> None:
        self._docs: dict[str, Document] = {}
        for doc in documents:
            self.add(doc)

    def add(self, doc: Document) -> None:
        """Add or replace a document (same ID replaces in place)."""
        self._docs[doc.doc_id] = doc

    def remove(self, doc_id: str) -> None:
        """Remove a document.

        Raises:
            KeyError: if absent.
        """
        del self._docs[doc_id]

    def __iter__(self) -> Iterator[Document]:
        return iter(self._docs.values())

    def __len__(self) -> int:
        return len(self._docs)

    def get(self, doc_id: str) -> Document:
        return self._docs[doc_id]


class DirectoryCorpus(Corpus):
    """Corpus backed by a directory of ``<doc_id>.txt`` files.

    Documents are read lazily; writing is supported via :meth:`add`.  File
    names are the document IDs (IDs therefore must be valid file names).
    """

    def __init__(self, root: str) -> None:
        self._root = root
        os.makedirs(root, exist_ok=True)

    def add(self, doc: Document) -> None:
        """Persist a document as ``<root>/<doc_id>.txt``."""
        path = self._path(doc.doc_id)
        with open(path, "w", encoding="utf-8") as f:
            f.write(doc.text)

    def __iter__(self) -> Iterator[Document]:
        for name in sorted(os.listdir(self._root)):
            if name.endswith(".txt"):
                yield self.get(name[: -len(".txt")])

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self._root) if name.endswith(".txt"))

    def get(self, doc_id: str) -> Document:
        path = self._path(doc_id)
        if not os.path.exists(path):
            raise KeyError(doc_id)
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
        return Document(
            doc_id=doc_id,
            text=text,
            metadata=DocumentMetadata(source=path, timestamp=os.path.getmtime(path)),
        )

    def _path(self, doc_id: str) -> str:
        if os.sep in doc_id or doc_id in {".", ".."}:
            raise ValueError(f"doc_id {doc_id!r} is not a valid file name")
        return os.path.join(self._root, doc_id + ".txt")
