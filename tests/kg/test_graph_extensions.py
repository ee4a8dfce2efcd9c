"""Tests for graph mutation (remove_triple), entity types, and relation
cardinality profiles."""

import pytest

from repro.errors import GraphError
from repro.kg.graph import KnowledgeGraph
from repro.kg.stats import relation_profiles


@pytest.fixture
def graph():
    g = KnowledgeGraph(name="mut")
    g.add_fact("a", "r", "b")
    g.add_fact("a", "r", "c")
    g.add_fact("d", "r", "b")
    g.add_fact("a", "s", "d")
    return g


class TestRemoveTriple:
    def test_remove_updates_everything(self, graph):
        a = graph.entities.id_of("a")
        r = graph.relations.id_of("r")
        b = graph.entities.id_of("b")
        degree_before = graph.degree(a)
        assert graph.remove_triple(a, r, b)
        assert not graph.has_triple(a, r, b)
        assert b not in graph.tails(a, r)
        assert a not in graph.heads(b, r)
        assert graph.degree(a) == degree_before - 1
        assert graph.num_triples == 3

    def test_remove_missing_returns_false(self, graph):
        assert graph.remove_triple(0, 0, 0) is False

    def test_remove_then_readd(self, graph):
        a = graph.entities.id_of("a")
        r = graph.relations.id_of("r")
        b = graph.entities.id_of("b")
        graph.remove_triple(a, r, b)
        assert graph.add_triple(a, r, b)
        assert graph.has_triple(a, r, b)

    def test_triples_iteration_consistent_after_removal(self, graph):
        a = graph.entities.id_of("a")
        r = graph.relations.id_of("r")
        c = graph.entities.id_of("c")
        graph.remove_triple(a, r, c)
        listed = {t.as_tuple() for t in graph.triples()}
        assert (a, r, c) not in listed
        assert len(listed) == graph.num_triples


class TestEntityTypes:
    def test_set_and_get(self, graph):
        a = graph.entities.id_of("a")
        graph.set_entity_type(a, "person")
        assert graph.entity_type(a) == "person"
        assert graph.entity_type(graph.entities.id_of("b")) is None

    def test_entities_of_type(self, graph):
        for name in ("a", "d"):
            graph.set_entity_type(graph.entities.id_of(name), "person")
        graph.set_entity_type(graph.entities.id_of("b"), "place")
        people = graph.entities_of_type("person")
        assert people == {
            graph.entities.id_of("a"),
            graph.entities.id_of("d"),
        }
        assert graph.entities_of_type("robot") == frozenset()

    def test_type_cache_follows_set_entity_type(self, graph):
        a, b, d = (graph.entities.id_of(name) for name in ("a", "b", "d"))
        graph.set_entity_type(a, "person")
        assert graph.entities_of_type("person") == {a}
        assert graph.type_rows("person").tolist() == [a]
        graph.set_entity_type(d, "person")
        assert graph.entities_of_type("person") == {a, d}
        assert graph.type_rows("person").tolist() == sorted([a, d])
        # Retagging moves the entity out of its old type's cached rows.
        graph.set_entity_type(a, "place")
        assert graph.entities_of_type("person") == {d}
        assert graph.entities_of_type("place") == {a}
        assert b not in graph.entities_of_type("place")

    def test_type_rows_are_read_only(self, graph):
        graph.set_entity_type(graph.entities.id_of("a"), "person")
        with pytest.raises(ValueError):
            graph.type_rows("person")[0] = 0

    def test_type_of_unknown_entity_raises(self, graph):
        with pytest.raises(GraphError):
            graph.set_entity_type(999, "ghost")


class TestRelationProfiles:
    def test_profiles_cover_all_relations(self, graph):
        profiles = relation_profiles(graph)
        assert [p.name for p in profiles] == ["r", "s"]
        r = profiles[0]
        assert r.num_edges == 3
        # 'a' has 2 tails, 'd' has 1 -> 3 edges / 2 heads = 1.5
        assert r.tails_per_head == pytest.approx(1.5)
        # 'b' has 2 heads, 'c' has 1 -> 3 edges / 2 tails = 1.5
        assert r.heads_per_tail == pytest.approx(1.5)

    def test_category_classification(self):
        g = KnowledgeGraph()
        # 1-N: one head, many tails.
        for i in range(4):
            g.add_fact("hub", "one-to-n", f"t{i}")
        # N-1: many heads, one tail.
        for i in range(4):
            g.add_fact(f"h{i}", "n-to-one", "sink")
        # 1-1 chain.
        g.add_fact("x", "one-one", "y")
        by_name = {p.name: p for p in relation_profiles(g)}
        assert by_name["one-to-n"].category == "1-N"
        assert by_name["n-to-one"].category == "N-1"
        assert by_name["one-one"].category == "1-1"

    def test_nn_category(self):
        g = KnowledgeGraph()
        for h in range(3):
            for t in range(3):
                g.add_fact(f"u{h}", "rates", f"m{t}")
        profile = relation_profiles(g)[0]
        assert profile.category == "N-N"

    def test_empty_graph(self):
        assert relation_profiles(KnowledgeGraph()) == []
