"""Inverted index with TF-IDF ranking for the text store."""

from __future__ import annotations

import math
from collections import Counter
from types import MappingProxyType

from repro.stores.text.tokenizer import tokenize


class InvertedIndex:
    """Maps each term to the documents containing it, with term frequencies."""

    def __init__(self) -> None:
        self._postings: dict[str, dict[str, int]] = {}
        self._doc_lengths: dict[str, int] = {}
        self._texts: dict[str, str] = {}  # a removal visits only its text's terms

    def add(self, doc_id: str, text: str) -> None:
        """Index one document (re-adding replaces its previous postings)."""
        if doc_id in self._doc_lengths:
            self.remove(doc_id)
        counts = Counter(tokenize(text))
        for term, count in counts.items():
            self._postings.setdefault(term, {})[doc_id] = count
        self._doc_lengths[doc_id] = sum(counts.values())
        self._texts[doc_id] = text

    def remove(self, doc_id: str) -> None:
        """Remove a document from the index; a term no document holds goes."""
        self._doc_lengths.pop(doc_id, None)
        for term in set(tokenize(self._texts.pop(doc_id, ""))):
            postings = self._postings[term]
            del postings[doc_id]
            if not postings:
                del self._postings[term]

    def postings(self, term: str) -> MappingProxyType[str, int]:
        """Read-only ``doc_id -> occurrences of term`` over the documents holding it."""
        return MappingProxyType(self._postings.get(term.lower(), {}))

    def documents_with(self, term: str) -> set[str]:
        """Documents containing ``term``."""
        return set(self.postings(term))

    def term_frequency(self, term: str, doc_id: str) -> int:
        """Occurrences of ``term`` in ``doc_id``."""
        return self.postings(term).get(doc_id, 0)

    def document_frequency(self, term: str) -> int:
        """Number of documents containing ``term``."""
        return len(self.postings(term))

    @property
    def num_documents(self) -> int:
        """Number of indexed documents."""
        return len(self._doc_lengths)

    @property
    def num_terms(self) -> int:
        """Number of distinct terms."""
        return len(self._postings)

    @property
    def num_tokens(self) -> int:
        """Number of indexed tokens, summed over every document."""
        return sum(self._doc_lengths.values())

    def boolean_search(self, terms: list[str], *, mode: str = "and") -> set[str]:
        """Documents containing all (``and``) or any (``or``) of ``terms``."""
        if not terms:
            return set()
        sets = [self.documents_with(term) for term in terms]
        if mode == "and":
            result = sets[0]
            for s in sets[1:]:
                result &= s
            return result
        if mode == "or":
            result = set()
            for s in sets:
                result |= s
            return result
        raise ValueError(f"unknown boolean mode {mode!r}")

    def tfidf_search(self, query: str, *, top_k: int = 10) -> list[tuple[str, float]]:
        """Documents ranked by TF-IDF similarity to ``query``."""
        query_terms = tokenize(query)
        if not query_terms or not self._doc_lengths:
            return []
        n_docs = self.num_documents
        scores: dict[str, float] = {}
        for term in query_terms:
            postings = self._postings.get(term)
            if not postings:
                continue
            idf = math.log((1 + n_docs) / (1 + len(postings))) + 1.0
            for doc_id, tf in postings.items():
                length = max(1, self._doc_lengths[doc_id])
                scores[doc_id] = scores.get(doc_id, 0.0) + (tf / length) * idf
        ranked = sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))
        return ranked[:top_k]
