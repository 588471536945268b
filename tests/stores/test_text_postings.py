"""The text leaf reads keyword counts from the inverted index's postings.

``keyword_features`` is checked against the rule it was first written as:
``Counter(tokenize(text))`` per document, rows built as dicts and typed by
``Table.from_dicts``.  Hypothesis draws notes (stopwords, mixed case, digits,
punctuation), keyword lists (repeats, upper case, stopwords, keywords that
are no token), adds, replacements and removals, a ``doc_prefix`` or none and
a pushed-down ``doc_ids`` or none.  Each draw is read through the adapter of
one engine and of a durable engine closed and reopened; rows (in order) and
schema must be the reference's.
"""

from __future__ import annotations

import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataflowProgram, PolystorePlusPlus, dataset
from repro.core import build_cpu_polystore
from repro.datamodel import Column, DataType, Schema, Table
from repro.exceptions import StorageError
from repro.ir.nodes import Operator
from repro.middleware.adapters.nosql_adapters import TextAdapter
from repro.stores import TextEngine
from repro.stores.text import inverted_index, tokenizer
from repro.stores.text.inverted_index import InvertedIndex
from repro.stores.text.tokenizer import tokenize

DOC_IDS = ["note/1", "note/2", "note/07", "note/x", "note/-3", "other/4", "5", "zeta"]
WORDS = ["sepsis", "Sepsis", "SEPSIS", "stable", "ventilator", "the", "The", "and",
         "a1", "42", "sepsis!", "x", "é"]
note = st.lists(st.sampled_from(WORDS) | st.text("aBs1e9 .,!-", max_size=6),
                max_size=8).map(" ".join)
keywords = st.lists(st.sampled_from(WORDS) | st.text("abS1!", min_size=1, max_size=3),
                    min_size=1, max_size=5)
write = st.tuples(st.sampled_from(DOC_IDS), note | note | st.none())  # None: remove


def _coerce(entity: str):
    try:
        return int(entity)
    except ValueError:
        return entity


def _reference(docs: dict[str, str], words: list[str], prefix: str | None,
               doc_ids: list[str] | None, id_column: str = "pid") -> Table:
    """The leaf's table as the re-tokenizing adapter built it."""
    candidates = sorted(docs) if doc_ids is None else [d for d in doc_ids if d in docs]
    rows = []
    for doc_id in candidates:
        if prefix is not None and not doc_id.startswith(prefix):
            continue
        counts = Counter(tokenize(docs[doc_id]))
        row = {id_column: _coerce(doc_id[len(prefix):] if prefix else doc_id)}
        row.update({f"kw_{w}": float(counts.get(w.lower(), 0)) for w in words})
        rows.append(row)
    if rows:
        return Table.from_dicts(rows)
    return Table(Schema([Column(id_column, DataType.STRING),
                         *(Column(f"kw_{w}", DataType.FLOAT)
                           for w in dict.fromkeys(words))]), [])


def _node(words, prefix, doc_ids) -> Operator:
    params = {"keywords": words, "id_column": "pid"}
    if prefix is not None:
        params["doc_prefix"] = prefix
    if doc_ids is not None:
        params["doc_ids"] = doc_ids
    return Operator("keyword_features", params, engine="notes")


def _assert_same(table: Table, expected: Table) -> None:
    assert table.schema == expected.schema
    assert table.rows == expected.rows
    assert [list(map(type, row)) for row in table.rows] == \
        [list(map(type, row)) for row in expected.rows]


def _apply(writes, add, remove) -> dict[str, str]:
    docs: dict[str, str] = {}
    for doc_id, text in writes:
        if text is not None:
            add(doc_id, text)
            docs[doc_id] = text
        elif doc_id in docs:
            remove(doc_id)
            del docs[doc_id]
    return docs


@settings(max_examples=100, deadline=None)
@given(writes=st.lists(write, max_size=12), words=keywords,
       prefix=st.sampled_from([None, "note/", ""]), data=st.data())
def test_the_keyword_leaf_is_the_tokenizing_rule_on_every_route(writes, words, prefix, data):
    # Pushed-down ids: written ones (repeats likely) and one never written.
    doc_ids = data.draw(st.none() | st.lists(
        st.sampled_from([doc_id for doc_id, _ in writes] + ["note/9"]), max_size=6))
    node = _node(words, prefix, doc_ids)
    engine = TextEngine("notes")
    docs = _apply(writes, engine.add_document, engine.remove_document)
    _assert_same(TextAdapter(engine).execute(node, []),
                 _reference(docs, words, prefix, doc_ids))
    # The postings are those of an index built over the final texts alone.
    fresh = InvertedIndex()
    for doc_id, text in docs.items():
        fresh.add(doc_id, text)
    assert engine._index._postings == fresh._postings
    assert engine.statistics()["tokens"] == sum(map(len, map(tokenize, docs.values())))

    with tempfile.TemporaryDirectory() as data_dir:
        system = PolystorePlusPlus(data_dir=data_dir)
        durable = system.register_engine(TextEngine("notes"))
        _apply(writes, durable.add_document, durable.remove_document)
        system.close()
        reborn = PolystorePlusPlus(data_dir=data_dir)
        reopened = reborn.register_engine(TextEngine("notes"))
        _assert_same(TextAdapter(reopened).execute(node, []),
                     _reference(docs, words, prefix, doc_ids))
        reborn.close()


def test_a_keyword_read_tokenizes_nothing(monkeypatch):
    system = build_cpu_polystore([TextEngine("notes")])
    engine = system.catalog.engine("notes")
    engine.add_document("note/1", "Sepsis suspected; sepsis workup, ventilator")
    engine.add_document("note/2", "stable and resting")

    def refuse(*args, **kwargs):
        raise AssertionError("tokenize called on the read path")

    for module in (tokenizer, inverted_index):
        monkeypatch.setattr(module, "tokenize", refuse)
    program = DataflowProgram("notes")
    program.output("features", dataset("notes").text().keyword_features(
        ["sepsis", "ventilator", "stable"], doc_prefix="note/", id_column="pid"))
    assert system.execute(program).output("features").rows == [
        (1, 2.0, 1.0, 0.0), (2, 0.0, 0.0, 1.0)]
    assert engine.keyword_features("note/1", ["SEPSIS", "the"]) == {
        "SEPSIS": 2.0, "the": 0.0}


def test_removing_a_document_drops_the_terms_no_document_holds():
    engine = TextEngine()
    engine.add_document("d", "hello world")
    engine.remove_document("d")
    assert engine.vocabulary_size() == 0
    assert engine.statistics() == {"documents": 0, "terms": 0, "tokens": 0}


def test_a_replaced_document_leaves_the_postings_of_its_final_text():
    index = InvertedIndex()
    index.add("d1", "sepsis sepsis ventilator")
    index.add("d2", "ventilator weaned")
    index.add("d1", "stable, resting")
    fresh = InvertedIndex()
    fresh.add("d1", "stable, resting")
    fresh.add("d2", "ventilator weaned")
    assert index._postings == fresh._postings
    assert index.num_terms == 4 and index.num_tokens == 4


def test_the_keyword_api_still_refuses_an_unknown_document():
    with pytest.raises(StorageError):
        TextEngine().keyword_features("missing", ["sepsis"])
