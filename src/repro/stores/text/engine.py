"""The text/document data-processing engine.

Stores free-text documents (clinical notes in the MIMIC workload) with
metadata, indexes them in an inverted index, and answers boolean and ranked
searches.  It also extracts simple keyword features, which the heterogeneous
MIMIC program joins into its per-patient feature vector.
"""

from __future__ import annotations

from typing import Any

from repro.exceptions import StorageError
from repro.stores.base import DataModel, Engine
from repro.stores.changelog import docs_scope
from repro.stores.text.inverted_index import InvertedIndex


class TextEngine(Engine):
    """A document store with an inverted index and TF-IDF search."""

    data_model = DataModel.DOCUMENT

    def __init__(self, name: str = "text") -> None:
        super().__init__(name)
        self._documents: dict[str, dict[str, Any]] = {}
        self._index = InvertedIndex()

    # -- writes -----------------------------------------------------------------

    def add_document(self, doc_id: str, text: str,
                     metadata: dict[str, Any] | None = None) -> None:
        """Add or replace a document."""
        previous = self._documents.get(doc_id)
        self._documents[doc_id] = {"text": text, "metadata": dict(metadata or {})}
        self._index.add(doc_id, text)
        entries: list[tuple[Any, int]] = []
        if previous is not None:
            entries.append(((doc_id, previous["text"]), -1))
        entries.append(((doc_id, text), 1))
        self.mark_data_changed(
            docs_scope(), entries=entries,
            op=("add_document", {"doc_id": doc_id, "text": text,
                                 "metadata": dict(metadata or {})}))

    def add_documents(self, documents: list[dict[str, Any]]) -> int:
        """Bulk-add documents of the form ``{"doc_id", "text", "metadata"?}``."""
        for doc in documents:
            self.add_document(str(doc["doc_id"]), str(doc.get("text", "")),
                              doc.get("metadata"))
        return len(documents)

    def remove_document(self, doc_id: str) -> None:
        """Remove a document."""
        if doc_id not in self._documents:
            raise StorageError(f"document {doc_id!r} does not exist")
        removed = self._documents.pop(doc_id)
        self._index.remove(doc_id)
        self.mark_data_changed(docs_scope(),
                               entries=[((doc_id, removed["text"]), -1)],
                               op=("remove_document", {"doc_id": doc_id}))

    # -- reads --------------------------------------------------------------------

    def get(self, doc_id: str) -> dict[str, Any]:
        """Text and metadata for one document."""
        try:
            return dict(self._documents[doc_id])
        except KeyError as exc:
            raise StorageError(f"document {doc_id!r} does not exist") from exc

    def has_document(self, doc_id: str) -> bool:
        """Whether a document exists."""
        return doc_id in self._documents

    def search(self, query: str, *, top_k: int = 10) -> list[tuple[str, float]]:
        """TF-IDF ranked search over all documents."""
        return self._index.tfidf_search(query, top_k=top_k)

    def boolean_search(self, terms: list[str], *, mode: str = "and") -> set[str]:
        """Boolean AND/OR search over all documents."""
        return self._index.boolean_search(terms, mode=mode)

    def keyword_features(self, doc_id: str, keywords: list[str]) -> dict[str, float]:
        """Per-keyword term frequencies for one document.

        The MIMIC workload uses this to turn a clinical note into numeric
        features (e.g. counts of "sepsis", "ventilator", "stable").
        """
        self.get(doc_id)  # an unknown document raises StorageError
        return {k: float(self._index.term_frequency(k, doc_id)) for k in keywords}

    def keyword_counts(self, keywords: list[str], *, doc_prefix: str | None = None,
                       doc_ids: list[str] | None = None) -> tuple[list[str], list[list[float]]]:
        """Candidate doc ids (all sorted, or ``doc_ids``' known ones in order) under
        ``doc_prefix``, and per keyword its count in each, from the postings."""
        candidates = sorted(self._documents) if doc_ids is None else \
            [doc_id for doc_id in doc_ids if doc_id in self._documents]
        if doc_prefix is not None:
            candidates = [doc_id for doc_id in candidates if doc_id.startswith(doc_prefix)]
        return candidates, [[float(postings.get(doc_id, 0)) for doc_id in candidates]
                            for postings in map(self._index.postings, keywords)]

    def documents_matching(self, metadata_filter: dict[str, Any]) -> list[str]:
        """Doc ids whose metadata matches every ``key == value`` pair."""
        return sorted(
            doc_id for doc_id, doc in self._documents.items()
            if all(doc["metadata"].get(k) == v for k, v in metadata_filter.items())
        )

    def vocabulary_size(self) -> int:
        """Number of distinct indexed terms."""
        return self._index.num_terms

    def statistics(self) -> dict[str, Any]:
        """Engine statistics for the catalog."""
        return {
            "documents": len(self._documents),
            "terms": self._index.num_terms,
            "tokens": self._index.num_tokens,
        }
