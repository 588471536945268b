"""A view defined over a frozen program's output stays durable.

A frozen node's params are a read-only mapping, which pickle refuses; the
node pickles as a plain ``DataflowNode`` with dict params instead, so
``DurabilityManager.save_view`` does not skip it.
"""

from __future__ import annotations

import pickle

from repro import PolystorePlusPlus, col
from repro.compiler.pipeline import CompilerOptions
from repro.core.system import SystemConfig
from repro.datamodel import DataType, Table, make_schema
from repro.eide.dataflow import DataflowNode, DataflowProgram, Dataset, dataset
from repro.stores import RelationalEngine

SCHEMA = make_schema(("order_id", DataType.INT), ("customer", DataType.STRING),
                     ("amount", DataType.FLOAT))
ROWS = [(i, f"c{i % 4}", float(i % 7)) for i in range(50)]


def _spend() -> Dataset:
    return (dataset("salesdb").table("orders", ["customer", "amount"])
            .filter(col("amount") > 1.0)
            .aggregate(["customer"], total=("sum", "amount")))


def _frozen_spend() -> DataflowProgram:
    program = DataflowProgram("spend")
    program.output("spend", _spend())
    return program.freeze()


def _rows(table) -> list[tuple]:
    return sorted(tuple(sorted(row.items())) for row in table.to_dicts())


def _engine() -> RelationalEngine:
    engine = RelationalEngine("salesdb")
    engine.load_table("orders", Table(SCHEMA, ROWS))
    return engine


def test_a_frozen_node_pickles_as_a_plain_node_with_dict_params():
    (_, root), = _frozen_spend().output_items()
    payload = pickle.dumps(root)
    assert b"_FrozenNode" not in payload
    restored = pickle.loads(payload)
    for node in restored.walk():
        assert type(node) is DataflowNode
        assert type(node.params) is dict
    assert restored.canonical() == root.canonical()
    restored.label = "editable again"


def test_a_view_over_a_frozen_output_persists_and_restores(tmp_path):
    config = SystemConfig(data_dir=str(tmp_path), durability_sync="always")
    system = PolystorePlusPlus(config)
    system.register_engine(_engine())
    (_, root), = _frozen_spend().output_items()
    system.create_view("spend", Dataset(root), policy="manual")
    assert system.describe()["durability"]["unpersisted_views"] == []
    expected = _rows(system.view("spend").read()[0])
    system.close()

    reborn = PolystorePlusPlus(data_dir=str(tmp_path))
    reborn.register_engine(RelationalEngine("salesdb"))
    assert reborn.views.names() == ["spend"]
    assert _rows(reborn.view("spend").read()[0]) == expected
    baseline = DataflowProgram("baseline")
    baseline.output("spend", _spend())
    result = reborn.execute(baseline, options=CompilerOptions(use_views=False))
    assert _rows(result.output("spend")) == expected
    reborn.close()


def test_a_view_rewrite_rebuilds_frozen_nodes_with_dict_params():
    system = PolystorePlusPlus()
    system.register_engine(_engine())
    system.create_view("spend", _spend(), policy="manual")
    program = DataflowProgram("ranked")
    program.output("ranked", _spend().sort("total"))
    rewritten = system.views.rewrite(program.freeze())
    (_, root), = rewritten.output_items()
    assert root.inputs[0].kind == "view_read"
    assert type(root.params) is dict
    assert pickle.loads(pickle.dumps(root)).canonical() == root.canonical()
