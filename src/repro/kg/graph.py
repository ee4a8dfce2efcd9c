"""The knowledge-graph triple store.

A :class:`KnowledgeGraph` holds ``(head, relation, tail)`` triples over
integer-id vocabularies, with the adjacency structures the rest of the
library needs:

- per-``(h, r)`` known tail sets and per-``(t, r)`` known head sets, used
  by query processing to *skip* edges already in ``E`` (the paper's
  default semantics answers over the predicted edge set ``E'`` only);
- per-entity degree counts, used for the ``popularity`` attribute and for
  filtered ranking during embedding evaluation.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.kg.attributes import AttributeTable
from repro.kg.vocab import Vocabulary


@dataclass(frozen=True, slots=True)
class Triple:
    """One ``(head, relation, tail)`` fact, by integer ids."""

    head: int
    relation: int
    tail: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.head, self.relation, self.tail)


class KnowledgeGraph:
    """A directed multigraph of subject-property-object triples.

    Parameters
    ----------
    entities, relations:
        Vocabularies mapping names to ids. New names may be registered
        via :meth:`add_entity` / :meth:`add_relation` before adding
        triples that use them.
    name:
        Human-readable dataset name, used in reports.
    """

    def __init__(
        self,
        entities: Vocabulary | None = None,
        relations: Vocabulary | None = None,
        name: str = "kg",
    ) -> None:
        self.name = name
        self.entities = entities if entities is not None else Vocabulary()
        self.relations = relations if relations is not None else Vocabulary()
        self._triples: list[Triple] = []
        self._triple_set: set[tuple[int, int, int]] = set()
        self._tails_of: dict[tuple[int, int], set[int]] = {}
        self._heads_of: dict[tuple[int, int], set[int]] = {}
        self._out_degree: dict[int, int] = {}
        self._in_degree: dict[int, int] = {}
        self._entity_type: dict[int, str] = {}
        # Per-type member sets and sorted id rows, built on first use and
        # dropped by set_entity_type for the types it touches. The lock
        # keeps a build racing a retag from caching the stale members.
        self._type_members: dict[str, tuple[frozenset[int], np.ndarray]] = {}
        self._type_lock = threading.Lock()
        self.attributes = AttributeTable()

    # -- construction -------------------------------------------------

    def add_entity(self, name: str) -> int:
        """Register an entity name and return its id."""
        return self.entities.add(name)

    def add_relation(self, name: str) -> int:
        """Register a relation-type name and return its id."""
        return self.relations.add(name)

    def add_triple(self, head: int, relation: int, tail: int) -> bool:
        """Add a triple by ids. Returns False if it was already present."""
        if not (0 <= head < len(self.entities)):
            raise GraphError(f"head id {head} out of range")
        if not (0 <= tail < len(self.entities)):
            raise GraphError(f"tail id {tail} out of range")
        if not (0 <= relation < len(self.relations)):
            raise GraphError(f"relation id {relation} out of range")
        key = (head, relation, tail)
        if key in self._triple_set:
            return False
        self._triple_set.add(key)
        self._triples.append(Triple(head, relation, tail))
        self._tails_of.setdefault((head, relation), set()).add(tail)
        self._heads_of.setdefault((tail, relation), set()).add(head)
        self._out_degree[head] = self._out_degree.get(head, 0) + 1
        self._in_degree[tail] = self._in_degree.get(tail, 0) + 1
        return True

    def add_fact(self, head_name: str, relation_name: str, tail_name: str) -> bool:
        """Add a triple by names, registering unseen names on the fly."""
        h = self.entities.add(head_name)
        r = self.relations.add(relation_name)
        t = self.entities.add(tail_name)
        return self.add_triple(h, r, t)

    def remove_triple(self, head: int, relation: int, tail: int) -> bool:
        """Remove a triple; returns False if it was not present.

        Supports the dynamic-update extension (the paper's future work):
        vocabulary entries are never removed, only the edge.
        """
        key = (head, relation, tail)
        if key not in self._triple_set:
            return False
        self._triple_set.remove(key)
        self._triples.remove(Triple(head, relation, tail))
        self._tails_of[(head, relation)].discard(tail)
        self._heads_of[(tail, relation)].discard(head)
        self._out_degree[head] -= 1
        self._in_degree[tail] -= 1
        return True

    # -- entity types ----------------------------------------------------

    def set_entity_type(self, entity: int, type_name: str) -> None:
        """Tag an entity with a type (user / movie / product / ...).

        Types are optional metadata used by type-filtered queries; the
        core query semantics (Section II) do not require them.
        """
        if not 0 <= entity < len(self.entities):
            raise GraphError(f"entity id {entity} out of range")
        with self._type_lock:
            previous = self._entity_type.get(entity)
            self._entity_type[entity] = type_name
            self._type_members.pop(type_name, None)
            if previous is not None:
                self._type_members.pop(previous, None)

    def entity_type(self, entity: int) -> str | None:
        """The entity's type tag, or None if untagged."""
        return self._entity_type.get(entity)

    def entities_of_type(self, type_name: str) -> frozenset[int]:
        """All entities tagged with ``type_name``."""
        return self._members_of_type(type_name)[0]

    def type_rows(self, type_name: str) -> np.ndarray:
        """The ids of :meth:`entities_of_type` as a sorted, read-only
        ``int64`` array (the row indices typed queries rank over)."""
        return self._members_of_type(type_name)[1]

    def _members_of_type(self, type_name: str) -> tuple[frozenset[int], np.ndarray]:
        cached = self._type_members.get(type_name)
        if cached is not None:
            return cached
        with self._type_lock:
            members = frozenset(
                e for e, t in self._entity_type.items() if t == type_name
            )
            rows = np.array(sorted(members), dtype=np.int64)
            rows.flags.writeable = False
            cached = self._type_members[type_name] = (members, rows)
        return cached

    # -- inspection ---------------------------------------------------

    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    @property
    def num_triples(self) -> int:
        return len(self._triples)

    def triples(self) -> Iterator[Triple]:
        """Iterate over all triples in insertion order."""
        return iter(self._triples)

    def triple_array(self) -> np.ndarray:
        """All triples as an ``(n, 3) int64`` array of ``(h, r, t)`` rows."""
        if not self._triples:
            return np.empty((0, 3), dtype=np.int64)
        return np.array([t.as_tuple() for t in self._triples], dtype=np.int64)

    def has_triple(self, head: int, relation: int, tail: int) -> bool:
        return (head, relation, tail) in self._triple_set

    def tails(self, head: int, relation: int) -> frozenset[int]:
        """Known tail entities of ``(head, relation, ?)`` in ``E``."""
        return frozenset(self._tails_of.get((head, relation), frozenset()))

    def heads(self, tail: int, relation: int) -> frozenset[int]:
        """Known head entities of ``(?, relation, tail)`` in ``E``."""
        return frozenset(self._heads_of.get((tail, relation), frozenset()))

    def degree(self, entity: int) -> int:
        """In-degree plus out-degree (the paper's ``popularity``)."""
        return self._out_degree.get(entity, 0) + self._in_degree.get(entity, 0)

    def out_degree(self, entity: int) -> int:
        return self._out_degree.get(entity, 0)

    def in_degree(self, entity: int) -> int:
        return self._in_degree.get(entity, 0)

    def subgraph_without(self, removed: Iterable[Triple]) -> "KnowledgeGraph":
        """A copy of this graph with ``removed`` triples absent.

        Vocabularies and attributes are shared (they are append-only /
        read-mostly); only the triple store is rebuilt. Used to mask test
        edges before embedding training.
        """
        removed_keys = {t.as_tuple() for t in removed}
        other = KnowledgeGraph(self.entities, self.relations, name=self.name)
        other.attributes = self.attributes
        for triple in self._triples:
            if triple.as_tuple() not in removed_keys:
                other.add_triple(triple.head, triple.relation, triple.tail)
        return other

    def __len__(self) -> int:
        return len(self._triples)

    def __repr__(self) -> str:
        return (
            f"KnowledgeGraph(name={self.name!r}, entities={self.num_entities}, "
            f"relations={self.num_relations}, triples={self.num_triples})"
        )
