"""Shared machinery of the R-tree family (bulk-loaded, cracking, A*).

This module implements the top-down chunked construction of
``BULKLOADCHUNK`` (Algorithm 1) in an *incremental* form: every tree
position is either an expanded node or a :class:`FrontierEntry`
(unexpanded partition on the contour), and :meth:`RTreeBase.refine`
expands exactly the positions a query region needs, honouring the
stopping condition of Section IV-C:

    stop at element e  iff  Q ∩ e = ∅
                        or  ceil(|Q ∩ e| / N) == ceil(|e| / N)

Concrete subclasses differ only in how a partition's next binary split
is chosen (:meth:`RTreeBase._partition_into`): the greedy single choice
(:class:`~repro.index.cracking.CrackingRTree`), the A* top-k choice
search (:class:`~repro.index.topk_splits.TopKSplitsRTree`), or the
offline full expansion (:class:`~repro.index.bulkload.BulkLoadedRTree`,
which passes ``query=None`` so nothing ever stops).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import IndexError_
from repro.index.geometry import Rect, row_distances
from repro.index.node import FrontierEntry, InternalNode, LeafNode, TreeEntry
from repro.index.partition import Partition
from repro.index.stats import AccessCounters, IndexStats, StatsAccumulator
from repro.index.store import PointStore
from repro.obs import trace


class RTreeBase:
    """Common base of the R-tree index variants.

    Parameters
    ----------
    store:
        The S2 point store to index (ids are row indices).
    leaf_capacity:
        ``N`` — max data points per leaf page.
    fanout:
        ``M`` — max children per internal node.
    beta:
        Overlap-cost height weight (``beta >= 1``; overlaps higher in the
        tree cost more, Section IV-B1).
    ids:
        Optional id subset to index (defaults to every row of the
        store). Shard trees index disjoint subsets of one shared store;
        tree height is sized to the subset, not the store.
    """

    def __init__(
        self,
        store: PointStore,
        leaf_capacity: int = 32,
        fanout: int = 8,
        beta: float = 1.5,
        ids: np.ndarray | None = None,
    ) -> None:
        if leaf_capacity < 1:
            raise IndexError_("leaf_capacity must be >= 1")
        if fanout < 2:
            raise IndexError_("fanout must be >= 2")
        if beta < 1.0:
            raise IndexError_("beta must be >= 1")
        self.store = store
        self.leaf_capacity = leaf_capacity
        self.fanout = fanout
        self.beta = beta
        self.counters = AccessCounters()
        self._splits_performed = 0
        self._overlap_cost_total = 0.0
        if ids is None:
            all_ids = np.arange(store.size)
        else:
            all_ids = np.asarray(ids, dtype=np.int64)
            if len(all_ids) == 0:
                raise IndexError_("cannot index an empty id subset")
        root_partition = Partition.from_ids(store, all_ids)
        self._height = self._tree_height(len(all_ids))
        self.root: TreeEntry = FrontierEntry(
            root_partition, height=self._height, chunk_root=True
        )

    # -- derived parameters ------------------------------------------------

    def _tree_height(self, num_points: int) -> int:
        """Height needed so that ``N * M^h >= num_points``."""
        pages = math.ceil(num_points / self.leaf_capacity)
        if pages <= 1:
            return 0
        return math.ceil(math.log(pages, self.fanout))

    @property
    def height(self) -> int:
        return self._height

    @property
    def splits_performed(self) -> int:
        return self._splits_performed

    @property
    def overlap_cost_total(self) -> float:
        """Accumulated ``c_O`` over all splits performed so far."""
        return self._overlap_cost_total

    # -- public operations ----------------------------------------------------

    def refine(self, query: Rect | None) -> None:
        """Incrementally expand the tree where ``query`` needs it.

        ``query=None`` expands everything (offline full bulk load).

        With tracing enabled the expansion is wrapped in an
        ``index.refine`` span recording the splits performed for this
        call; disabled, the only cost is one global load.
        """
        if not trace.enabled():
            self.root = self._refine_entry(self.root, query)
            return
        splits_before = self._splits_performed
        with trace.span("index.refine") as span:
            self.root = self._refine_entry(self.root, query)
            span.set_attribute("splits", self._splits_performed - splits_before)

    def search(self, query: Rect) -> np.ndarray:
        """Ids of all indexed points inside ``query`` (read-only).

        Traced as an ``index.search`` span carrying the node-access
        deltas attributable to this call (internal/leaf/partition
        elements touched, points examined, matches returned).
        """
        if not trace.enabled():
            return self._search(query)
        before = self.counters.snapshot()
        with trace.span("index.search") as span:
            result = self._search(query)
            after = self.counters
            span.set_attribute(
                "internal_accesses", after.internal_accesses - before.internal_accesses
            )
            span.set_attribute("leaf_accesses", after.leaf_accesses - before.leaf_accesses)
            span.set_attribute(
                "partition_accesses",
                after.partition_accesses - before.partition_accesses,
            )
            span.set_attribute(
                "points_examined", after.points_examined - before.points_examined
            )
            span.set_attribute("matches", int(len(result)))
        return result

    def _search(self, query: Rect) -> np.ndarray:
        found: list[np.ndarray] = []
        stack: list[TreeEntry] = [self.root]
        while stack:
            entry = stack.pop()
            if not query.intersects(entry.mbr):
                continue
            if query.contains_rect(entry.mbr):
                # Fully covered subtree: every point qualifies, no
                # per-point filtering or further descent needed.
                if isinstance(entry, InternalNode):
                    self.counters.internal_accesses += 1
                elif isinstance(entry, LeafNode):
                    self.counters.leaf_accesses += 1
                else:
                    self.counters.partition_accesses += 1
                found.append(self._ids_under(entry))
                continue
            if isinstance(entry, InternalNode):
                self.counters.internal_accesses += 1
                stack.extend(entry.entries)
            elif isinstance(entry, LeafNode):
                self.counters.leaf_accesses += 1
                self.counters.points_examined += entry.size
                found.append(self.store.ids_in_rect(entry.ids, query))
            else:  # FrontierEntry
                self.counters.partition_accesses += 1
                self.counters.points_examined += entry.size
                found.append(entry.partition.ids_in(query))
        if not found:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(found)

    def probe(self, point: np.ndarray, k: int) -> np.ndarray:
        """The paper's index probe (Algorithm 3, line 2): descend to the
        smallest element containing ``point`` and return ~k seed ids by a
        cheap one-sort-order proximity walk.

        Falls back to enclosing scopes when the innermost element holds
        fewer than ``k`` points.
        """
        if k < 1:
            raise IndexError_("k must be >= 1")
        if not trace.enabled():
            return self._probe(point, k)
        before = self.counters.snapshot()
        with trace.span("index.probe", k=k) as span:
            result = self._probe(point, k)
            after = self.counters
            span.set_attribute(
                "internal_accesses", after.internal_accesses - before.internal_accesses
            )
            span.set_attribute("seeds", int(len(result)))
        return result

    def _probe(self, point: np.ndarray, k: int) -> np.ndarray:
        point = np.asarray(point, dtype=np.float64)
        scopes: list[TreeEntry] = []
        entry: TreeEntry = self.root
        while True:
            scopes.append(entry)
            if isinstance(entry, InternalNode):
                self.counters.internal_accesses += 1
                containing = [
                    c for c in entry.entries if c.mbr.contains_point(point)
                ]
                if containing:
                    entry = min(containing, key=lambda c: c.mbr.volume())
                    continue
            break
        for scope in reversed(scopes):
            ids = self._ids_under(scope)
            if len(ids) >= k or scope is self.root:
                return self._nearest_by_sort_order(ids, point, k)
        return np.empty(0, dtype=np.int64)  # pragma: no cover

    def stats(self) -> IndexStats:
        """Structural statistics (node counts, byte size) of the tree."""
        acc = StatsAccumulator(dim=self.store.dim)
        stack: list[TreeEntry] = [self.root]
        while stack:
            entry = stack.pop()
            if isinstance(entry, InternalNode):
                acc.add_internal(len(entry.entries))
                stack.extend(entry.entries)
            elif isinstance(entry, LeafNode):
                acc.add_leaf(entry.size)
            else:
                acc.add_frontier()
        return acc.finish(self._splits_performed, self._height)

    def contour(self) -> list[TreeEntry]:
        """The current contour: frontier partitions plus terminal leaves
        (Definition 2)."""
        elements: list[TreeEntry] = []
        stack: list[TreeEntry] = [self.root]
        while stack:
            entry = stack.pop()
            if isinstance(entry, InternalNode):
                stack.extend(entry.entries)
            else:
                elements.append(entry)
        return elements

    # -- dynamic updates ------------------------------------------------------

    def insert(self, ident: int) -> None:
        """Insert a point id into the tree (dynamic-update extension).

        The point descends to the child whose MBR needs least volume
        enlargement. Landing in a frontier partition re-sorts it in; a
        leaf that overflows its capacity is *uncracked* back into a
        frontier partition, which the next query's cracking re-splits —
        the natural update policy for a cracking index.
        """
        point = self.store.points_of(np.array([ident]))[0]
        self.root = self._insert_into(self.root, ident, point)

    def _insert_into(self, entry: TreeEntry, ident: int, point: np.ndarray) -> TreeEntry:
        if isinstance(entry, FrontierEntry):
            return FrontierEntry(
                entry.partition.with_id_added(ident),
                height=entry.height,
                chunk_root=entry.chunk_root,
            )
        if isinstance(entry, LeafNode):
            ids = np.append(entry.ids, ident)
            if len(ids) <= self.leaf_capacity:
                return LeafNode(ids=ids, mbr=self.store.mbr_of(ids))
            # Overflow: uncrack into a frontier partition (height 1 so a
            # future expansion can split it into child pages).
            return FrontierEntry(
                Partition.from_ids(self.store, ids), height=1, chunk_root=True
            )
        # InternalNode: classic least-enlargement descent.
        best_index = 0
        best_cost = (math.inf, math.inf)
        for i, child in enumerate(entry.entries):
            enlarged = child.mbr.union(Rect(point, point))
            cost = (enlarged.volume() - child.mbr.volume(), child.mbr.volume())
            if cost < best_cost:
                best_cost = cost
                best_index = i
        child = entry.entries[best_index]
        replacement = self._insert_into(child, ident, point)
        entry.entries[best_index] = replacement
        entry.mbr = entry.mbr.union(Rect(point, point))
        # A leaf overflow anywhere below uncracks into a frontier; the
        # "no frontier beneath" memo must be invalidated all the way up,
        # not just on the overflowing leaf's direct parent.
        if isinstance(replacement, FrontierEntry) or (
            isinstance(replacement, InternalNode) and not replacement.complete
        ):
            entry.complete = False
        return entry

    def delete(self, ident: int) -> bool:
        """Remove a point id from the tree; returns False if absent."""
        point = self.store.points_of(np.array([ident]))[0]
        removed, replacement = self._delete_from(self.root, ident, point)
        if removed and replacement is not None:
            self.root = replacement
        return removed

    def _delete_from(
        self, entry: TreeEntry, ident: int, point: np.ndarray
    ) -> tuple[bool, TreeEntry | None]:
        """Returns (removed, replacement-or-None-if-entry-emptied)."""
        if isinstance(entry, FrontierEntry):
            if ident not in set(entry.partition.ids.tolist()):
                return False, entry
            shrunk = entry.partition.with_id_removed(ident)
            if shrunk is None:
                return True, None
            return True, FrontierEntry(shrunk, entry.height, entry.chunk_root)
        if isinstance(entry, LeafNode):
            mask = entry.ids != ident
            if mask.all():
                return False, entry
            ids = entry.ids[mask]
            if len(ids) == 0:
                return True, None
            return True, LeafNode(ids=ids, mbr=self.store.mbr_of(ids))
        for i, child in enumerate(entry.entries):
            if not child.mbr.contains_point(point):
                continue
            removed, replacement = self._delete_from(child, ident, point)
            if not removed:
                continue
            if replacement is None:
                entry.entries.pop(i)
            else:
                entry.entries[i] = replacement
            if not entry.entries:
                return True, None
            return True, entry
        return False, entry

    # -- refinement machinery ---------------------------------------------

    def _refine_entry(self, entry: TreeEntry, query: Rect | None) -> TreeEntry:
        if isinstance(entry, LeafNode):
            return entry
        if isinstance(entry, InternalNode):
            if entry.complete:
                return entry
            new_entries: list[TreeEntry] = []
            for child in entry.entries:
                if query is not None and not query.intersects(child.mbr):
                    new_entries.append(child)
                elif isinstance(child, FrontierEntry) and not child.chunk_root:
                    if self._stop(child.partition, query):
                        new_entries.append(child)
                    else:
                        self._partition_into(
                            entry, child.partition, query, new_entries
                        )
                else:
                    new_entries.append(self._refine_entry(child, query))
            entry.entries = new_entries
            entry.complete = all(
                isinstance(c, LeafNode)
                or (isinstance(c, InternalNode) and c.complete)
                for c in new_entries
            )
            return entry
        # FrontierEntry at a chunk-root position.
        partition = entry.partition
        if query is not None and not query.intersects(partition.mbr):
            return entry
        if self._stop(partition, query):
            return entry
        return self._expand_chunk(entry, query)

    def _expand_chunk(self, entry: FrontierEntry, query: Rect | None) -> TreeEntry:
        """Turn a chunk-root frontier partition into a node (leaf or
        internal), continuing refinement toward ``query``."""
        partition = entry.partition
        if partition.size <= self.leaf_capacity or entry.height <= 0:
            return LeafNode(ids=partition.ids.copy(), mbr=partition.mbr)
        part_size = math.ceil(partition.size / self.fanout)
        node = InternalNode(
            height=entry.height,
            part_size=part_size,
            mbr=partition.mbr,
            entries=[],
        )
        self._partition_into(node, partition, query, node.entries)
        node.complete = all(
            isinstance(c, LeafNode)
            or (isinstance(c, InternalNode) and c.complete)
            for c in node.entries
        )
        return node

    def _partition_into(
        self,
        node: InternalNode,
        partition: Partition,
        query: Rect | None,
        out_entries: list[TreeEntry],
    ) -> None:
        """PARTITION (Algorithm 1) with the incremental stopping condition,
        greedy split choice. Subclasses may override the whole strategy."""
        work = [partition]
        while work:
            part = work.pop()
            if part.size <= node.part_size:
                child = FrontierEntry(
                    part, height=node.height - 1, chunk_root=True
                )
                out_entries.append(self._refine_entry(child, query))
                continue
            if self._stop(part, query):
                out_entries.append(
                    FrontierEntry(part, height=node.height, chunk_root=False)
                )
                continue
            choice = self._select_split(part, node.part_size, query, node.height)
            low, high = part.apply_split(choice)
            self._record_split(choice.c_o)
            work.append(low)
            work.append(high)

    def _select_split(self, part, part_size, query, height):
        """Greedy: the single cheapest (c_Q, c_O) split choice."""
        choices = part.best_splits(
            part_size,
            query,
            self.leaf_capacity,
            self.beta,
            height,
            top_k=1,
        )
        if not choices:  # pragma: no cover - sizes guarantee a position
            raise IndexError_("no split positions available")
        return choices[0]

    def _record_split(self, overlap_cost: float) -> None:
        self._splits_performed += 1
        self._overlap_cost_total += overlap_cost
        self.counters.splits += 1

    def _stop(self, partition: Partition, query: Rect | None) -> bool:
        """The Section IV-C stopping condition (never stops offline)."""
        if query is None:
            return False
        if partition.size <= self.leaf_capacity:
            # One page either way: pages_q is 0 (disjoint -> stop) or 1
            # (== pages_all -> stop); no counting needed.
            return True
        if not query.intersects(partition.mbr):
            return True  # Q cap e is empty
        if query.contains_rect(partition.mbr):
            return True  # every point of e is in Q: pages_q == pages_all
        in_q = partition.count_in(query)
        if in_q == 0:
            return True
        pages_q = math.ceil(in_q / self.leaf_capacity)
        pages_all = math.ceil(partition.size / self.leaf_capacity)
        return pages_q == pages_all

    # -- probe helpers ----------------------------------------------------

    def _ids_under(self, entry: TreeEntry) -> np.ndarray:
        if isinstance(entry, LeafNode):
            return entry.ids
        if isinstance(entry, FrontierEntry):
            return entry.partition.ids
        parts = [self._ids_under(child) for child in entry.entries]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    def _nearest_by_sort_order(
        self, ids: np.ndarray, point: np.ndarray, k: int
    ) -> np.ndarray:
        """Seed selection: the k ids nearest to ``point`` in S2 within the
        probed element (cheap — the element is small and S2 is
        low-dimensional; tighter seeds shrink Algorithm 3's initial
        radius and with it the examined region)."""
        if len(ids) == 0:
            return ids
        offsets = row_distances(self.store.coords, ids, point)
        take = min(k, len(ids))
        nearest = np.argpartition(offsets, take - 1)[:take]
        self.counters.points_examined += take
        return ids[nearest]
