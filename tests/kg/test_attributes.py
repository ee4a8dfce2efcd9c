"""Tests for repro.kg.attributes."""

import numpy as np
import pytest

from repro.kg.attributes import AttributeTable
from repro.kg.graph import KnowledgeGraph
from repro.kg.io import load_attributes, save_attributes


def test_set_and_get():
    table = AttributeTable()
    table.set("year", 3, 1995)
    assert table.get("year", 3) == 1995.0
    assert isinstance(table.get("year", 3), float)


def test_absent_is_none_not_zero():
    table = AttributeTable()
    table.set("year", 1, 0.0)
    assert table.get("year", 1) == 0.0
    assert table.get("year", 2) is None
    assert table.get("quality", 1) is None


def test_has():
    table = AttributeTable()
    table.set("q", 7, 4.5)
    assert table.has("q", 7)
    assert not table.has("q", 8)
    assert not table.has("zzz", 7)


def test_set_many_and_column():
    table = AttributeTable()
    table.set_many("pop", {1: 10, 2: 20})
    assert table.column("pop") == {1: 10.0, 2: 20.0}
    # column() returns a copy
    table.column("pop")[1] = 99
    assert table.get("pop", 1) == 10.0


def test_values_for_drops_missing():
    table = AttributeTable()
    table.set_many("year", {1: 1990, 3: 2000})
    values = table.values_for("year", [1, 2, 3])
    assert values.tolist() == [1990.0, 2000.0]
    assert values.dtype == np.float64


def test_attribute_names_sorted():
    table = AttributeTable()
    table.set("b", 0, 1)
    table.set("a", 0, 1)
    assert table.attribute_names() == ["a", "b"]
    assert "a" in table
    assert "c" not in table


def test_overwrite():
    table = AttributeTable()
    table.set("x", 0, 1.0)
    table.set("x", 0, 2.0)
    assert table.get("x", 0) == 2.0


def test_set_after_a_dense_read_is_visible():
    table = AttributeTable()
    table.set_many("year", {0: 1990.0, 2: 0.0})
    values, present = table.dense("year", 3)
    assert present.tolist() == [True, False, True]
    assert values[2] == 0.0 and present[2]  # a stored 0.0 is present
    table.set("year", 1, 2001.0)
    values, present = table.dense("year", 3)
    assert present.tolist() == [True, True, True]
    assert values.tolist() == [1990.0, 2001.0, 0.0]
    table.set("year", 40, 1970.0)  # grows the column
    values, present = table.dense("year", 3)
    assert present[:3].all() and values[1] == 2001.0
    assert table.get("year", 40) == 1970.0


def test_ids_past_the_column_end_read_as_absent():
    table = AttributeTable()
    table.set_many("year", {0: 1990.0, 1: 1991.0})
    assert table.get("year", 5) is None
    assert not table.has("year", 5)
    assert table.get("year", -1) is None
    values, present = table.dense("year", 8)
    assert len(values) == len(present) == 8
    assert present.tolist() == [True, True] + [False] * 6
    values, present = table.dense("missing", 4)
    assert not present.any() and len(values) == 4


def test_column_is_a_detached_dict_of_floats():
    table = AttributeTable()
    table.set_many("pop", {3: 1, 0: 2.5})
    column = table.column("pop")
    assert column == {0: 2.5, 3: 1.0}
    assert all(type(k) is int and type(v) is float for k, v in column.items())
    column[0] = 99.0
    column[7] = 1.0
    assert table.get("pop", 0) == 2.5
    assert not table.has("pop", 7)
    assert table.column("absent") == {}


def test_values_for_keeps_order_and_drops_missing_and_out_of_range():
    table = AttributeTable()
    table.set_many("year", {1: 1990, 3: 2000, 4: 0.0})
    values = table.values_for("year", [4, 2, 3, 99, 1])
    assert values.tolist() == [0.0, 2000.0, 1990.0]
    assert table.values_for("other", [1, 3]).tolist() == []


def test_negative_ids_are_rejected():
    table = AttributeTable()
    with pytest.raises(ValueError):
        table.set("year", -1, 1.0)
    with pytest.raises(ValueError):
        table.set_many("year", {2: 1.0, -3: 2.0})


def test_save_load_roundtrip_keeps_every_column(tmp_path):
    graph = KnowledgeGraph()
    for name in ("a", "b", "c", "d"):
        graph.add_entity(name)
    graph.attributes.set_many("year", {1: 1999.0, 3: 0.0})
    graph.attributes.set_many("score", {0: -2.5, 1: 1e-300, 2: 1 / 3})
    path = tmp_path / "attributes.tsv"
    assert save_attributes(graph, path) == 5
    fresh = KnowledgeGraph()
    for name in ("a", "b", "c", "d"):
        fresh.add_entity(name)
    assert load_attributes(fresh, path) == 5
    for attribute in ("year", "score"):
        assert fresh.attributes.column(attribute) == graph.attributes.column(attribute)
    assert fresh.attributes.get("year", 0) is None
    assert fresh.attributes.get("year", 3) == 0.0
