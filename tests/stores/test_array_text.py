"""Tests for the array store and the text store."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import StorageError
from repro.stores.array import ArrayEngine, ChunkedArray
from repro.stores.text import TextEngine, tokenize
from repro.stores.text.inverted_index import InvertedIndex
from repro.stores.text.tokenizer import ngrams, term_frequencies


class TestChunkedArray:
    def test_roundtrip(self):
        data = np.arange(30.0).reshape(5, 6)
        chunked = ChunkedArray.from_numpy(data, chunk_shape=(2, 3))
        assert np.array_equal(chunked.to_numpy(), data)
        assert chunked.num_chunks == 6

    def test_slice_reads_only_overlapping_chunks(self):
        data = np.arange(100.0).reshape(10, 10)
        chunked = ChunkedArray.from_numpy(data, chunk_shape=(5, 5))
        before = chunked.chunk_reads
        window = chunked.slice(0, 3, 0, 3)
        assert np.array_equal(window, data[:3, :3])
        assert chunked.chunk_reads - before == 1

    def test_empty_slice(self):
        chunked = ChunkedArray.from_numpy(np.ones((4, 4)))
        assert chunked.slice(3, 3, 0, 2).size == 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 20), st.integers(1, 7), st.integers(1, 7))
    def test_property_roundtrip_any_shape(self, rows, cols, chunk_rows, chunk_cols):
        data = np.random.default_rng(0).normal(size=(rows, cols))
        chunked = ChunkedArray.from_numpy(data, chunk_shape=(chunk_rows, chunk_cols))
        assert np.allclose(chunked.to_numpy(), data)


class TestArrayEngine:
    def test_store_and_matmul(self):
        engine = ArrayEngine()
        engine.store("a", np.eye(4) * 2.0)
        engine.store("b", np.ones((4, 3)))
        result = engine.matmul("a", "b", store_as="c")
        assert result.shape == (4, 3)
        assert engine.exists("c")
        assert np.allclose(engine.load("c"), 2.0)

    def test_matmul_shape_mismatch(self):
        engine = ArrayEngine()
        engine.store("a", np.ones((2, 3)))
        with pytest.raises(StorageError):
            engine.matmul("a", np.ones((2, 2)))

    def test_duplicate_store_requires_replace(self):
        engine = ArrayEngine()
        engine.store("a", np.ones((2, 2)))
        with pytest.raises(StorageError):
            engine.store("a", np.zeros((2, 2)))
        engine.store("a", np.zeros((2, 2)), replace=True)
        assert engine.load("a").sum() == 0.0

    def test_reduce_and_elementwise(self):
        engine = ArrayEngine()
        engine.store("a", np.arange(6.0).reshape(2, 3))
        assert engine.reduce("a", reduction="sum") == 15.0
        doubled = engine.elementwise("a", lambda x: x * 2)
        assert doubled.max() == 10.0

    def test_slice(self):
        engine = ArrayEngine(chunk_shape=(2, 2))
        engine.store("a", np.arange(16.0).reshape(4, 4))
        assert np.array_equal(engine.slice("a", 1, 3, 1, 3),
                              np.array([[5.0, 6.0], [9.0, 10.0]]))

    def test_missing_array(self):
        with pytest.raises(StorageError):
            ArrayEngine().load("ghost")

    def test_shape_listing_and_statistics(self):
        engine = ArrayEngine(chunk_shape=(2, 2))
        engine.store("b", np.ones((3, 3)))
        engine.store("a", np.zeros((2, 4)))
        assert engine.list_arrays() == ["a", "b"]
        assert engine.shape("b") == (3, 3)
        stats = engine.statistics()
        assert stats["arrays"] == 2
        assert stats["total_bytes"] == (9 + 8) * 8
        assert stats["total_chunks"] == 4 + 2


class TestTokenizer:
    def test_tokenize_removes_stopwords_and_punctuation(self):
        tokens = tokenize("The patient IS stable, and resting.")
        assert tokens == ["patient", "stable", "resting"]

    def test_term_frequencies(self):
        counts = term_frequencies("sepsis sepsis ventilator")
        assert counts["sepsis"] == 2

    def test_ngrams(self):
        assert ngrams(["a", "b", "c"], 2) == ["a_b", "b_c"]


class TestInvertedIndex:
    def test_boolean_and_or(self):
        index = InvertedIndex()
        index.add("d1", "sepsis ventilator")
        index.add("d2", "stable recovery")
        index.add("d3", "sepsis stable")
        assert index.boolean_search(["sepsis", "stable"], mode="and") == {"d3"}
        assert index.boolean_search(["ventilator", "recovery"], mode="or") == {"d1", "d2"}

    def test_reindex_replaces_postings(self):
        index = InvertedIndex()
        index.add("d1", "old words here")
        index.add("d1", "completely new")
        assert index.documents_with("old") == set()
        assert index.documents_with("new") == {"d1"}

    def test_tfidf_ranks_matching_doc_first(self):
        index = InvertedIndex()
        index.add("d1", "sepsis sepsis sepsis")
        index.add("d2", "sepsis once in a long stable note about recovery")
        ranked = index.tfidf_search("sepsis")
        assert ranked[0][0] == "d1"

    def test_term_and_document_frequency(self):
        index = InvertedIndex()
        index.add("d1", "sepsis sepsis ventilator")
        index.add("d2", "Sepsis resolved")
        assert index.term_frequency("sepsis", "d1") == 2
        assert index.term_frequency("SEPSIS", "d2") == 1
        assert index.term_frequency("ventilator", "d2") == 0
        assert index.document_frequency("sepsis") == 2
        assert index.document_frequency("absent") == 0


class TestTextEngine:
    def test_add_search_and_features(self):
        engine = TextEngine()
        engine.add_documents([
            {"doc_id": "note/1", "text": "patient stable after treatment",
             "metadata": {"pid": 1}},
            {"doc_id": "note/2", "text": "sepsis workup, ventilator support started",
             "metadata": {"pid": 2}},
        ])
        assert engine.search("ventilator")[0][0] == "note/2"
        features = engine.keyword_features("note/2", ["sepsis", "stable"])
        assert features == {"sepsis": 1.0, "stable": 0.0}
        assert engine.documents_matching({"pid": 1}) == ["note/1"]
        assert engine.vocabulary_size() > 0

    def test_boolean_search(self):
        engine = TextEngine()
        engine.add_document("d1", "sepsis ventilator")
        engine.add_document("d2", "stable recovery")
        engine.add_document("d3", "sepsis stable")
        assert engine.boolean_search(["sepsis", "stable"]) == {"d3"}
        assert engine.boolean_search(["ventilator", "recovery"], mode="or") == {"d1", "d2"}
        assert engine.boolean_search([]) == set()

    def test_remove_document(self):
        engine = TextEngine()
        engine.add_document("d", "hello world")
        engine.remove_document("d")
        assert not engine.has_document("d")
        with pytest.raises(StorageError):
            engine.get("d")

    def test_statistics(self):
        engine = TextEngine()
        engine.add_document("d", "alpha beta gamma")
        stats = engine.statistics()
        assert stats["documents"] == 1 and stats["tokens"] == 3
