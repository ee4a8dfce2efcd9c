"""One runner per table/figure of the paper's evaluation (Section VI).

Each runner returns structured rows and prints them via
:mod:`repro.bench.reporting`, so ``python -m repro.bench --figure fig3``
(or the corresponding ``benchmarks/bench_*.py``) regenerates the same
rows/series the paper reports. Absolute times differ from the paper's
testbed (see EXPERIMENTS.md); the *shape* — who wins and by roughly what
factor — is the reproduction target.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.bench.datasets import (
    BenchDataset,
    amazon_dataset,
    freebase_dataset,
    movie_dataset,
)
from repro.bench.methods import H2ALSHMethod, RTreeMethod, make_method
from repro.bench.metrics import precision_at_k, relative_accuracy
from repro.bench.reporting import print_table
from repro.bench.timing import Timer
from repro.bench.workloads import Query, make_workload
from repro.query.spec import QuerySpec

#: Queries whose individual latency the paper reports in Figs 3/5/7.
PROBE_QUERIES = (1, 6, 11, 16)


@dataclass
class MethodTiming:
    """One bar group of Figures 3/5/7.

    ``warm_worst_seconds`` records the worst single warm query — the
    tail matters for methods whose cost is query-dependent (H2-ALSH's
    early termination can make its *mean* look good while low-norm
    queries still scan every bucket).
    """

    method: str
    build_seconds: float
    probe_seconds: dict[int, float]
    warm_avg_seconds: float
    warm_worst_seconds: float = 0.0

    def as_row(self) -> list:
        return [
            self.method,
            self.build_seconds,
            *(self.probe_seconds[q] for q in PROBE_QUERIES),
            self.warm_avg_seconds,
            self.warm_worst_seconds,
        ]


@dataclass
class AccuracyRow:
    """One bar of Figures 4/6/8."""

    method: str
    precision: float


@dataclass
class SizeRow:
    """One series point of Figures 9/10/11."""

    queries_seen: int
    crack_nodes: int
    crack_bytes: int
    bulk_nodes: int
    bulk_bytes: int


@dataclass
class AggregateRow:
    """One series point of Figures 12-16."""

    access_fraction: float
    mean_accessed: float
    mean_seconds: float
    mean_accuracy: float


# --------------------------------------------------------------------------
# Table I
# --------------------------------------------------------------------------


def run_table1(scale: float = 1.0) -> list[tuple]:
    """Table I: statistics of the (scaled synthetic) datasets."""
    from repro.kg.stats import compute_stats

    rows = []
    for dataset in (freebase_dataset(scale), movie_dataset(scale), amazon_dataset(scale)):
        stats = compute_stats(dataset.graph)
        rows.append(stats.as_row())
    print_table(
        "Table I: dataset statistics (scaled synthetic analogs)",
        ["Dataset", "Entities", "Relationship types", "Edges"],
        rows,
    )
    return rows


# --------------------------------------------------------------------------
# Figures 3 / 5 / 7: method vs elapsed time
# --------------------------------------------------------------------------


def run_method_vs_time(
    dataset: BenchDataset,
    methods: list[str],
    k: int = 5,
    num_warm: int = 100,
    seed: int = 0,
    alpha: int = 3,
    relations: list[int] | None = None,
    directions: tuple[str, ...] = ("tail", "head"),
    title: str = "Method vs elapsed time",
    method_kwargs: dict[str, dict] | None = None,
) -> list[MethodTiming]:
    """Shared engine of Figures 3/5/7.

    Measures each method's offline build time, the latency of queries
    1/6/11/16 (the cracking indices' warm-up curve), and the mean
    latency of ``num_warm`` subsequent queries.
    """
    method_kwargs = method_kwargs or {}
    workload = make_workload(
        dataset.graph,
        max(PROBE_QUERIES) + num_warm,
        seed=seed,
        relations=relations,
        directions=directions,
    )
    results: list[MethodTiming] = []
    for name in methods:
        method = make_method(
            name, dataset, alpha=alpha, **method_kwargs.get(name, {})
        )
        probe: dict[int, float] = {}
        warm: list[float] = []
        for i, query in enumerate(workload, start=1):
            start = time.perf_counter()
            method.query(query, k)
            elapsed = time.perf_counter() - start
            if i in PROBE_QUERIES:
                probe[i] = elapsed
            elif i > max(PROBE_QUERIES):
                warm.append(elapsed)
        results.append(
            MethodTiming(
                method=method.name,
                build_seconds=method.build_seconds,
                probe_seconds=probe,
                warm_avg_seconds=float(np.mean(warm)) if warm else 0.0,
                warm_worst_seconds=float(np.max(warm)) if warm else 0.0,
            )
        )
    print_table(
        title,
        [
            "Method", "build(s)", "Q1(s)", "Q6(s)", "Q11(s)", "Q16(s)",
            "avg(s)", "worst(s)",
        ],
        [r.as_row() for r in results],
    )
    return results


def run_fig3(scale: float = 1.0, num_warm: int = 100) -> list[MethodTiming]:
    """Fig 3: method vs elapsed time on the Freebase-like dataset."""
    return run_method_vs_time(
        freebase_dataset(scale),
        ["no-index", "ph-tree", "bulk", "cracking", "topk2", "topk4"],
        num_warm=num_warm,
        title="Fig 3: method vs elapsed time (freebase-like)",
    )


def run_fig5(scale: float = 1.0, num_warm: int = 60) -> list[MethodTiming]:
    """Fig 5: movie dataset, alpha=3 vs alpha=6, plus H2-ALSH.

    H2-ALSH handles only the single 'likes' relation in the head->tail
    direction, so the workload is restricted accordingly for every
    method (the paper's fair-comparison setup)."""
    dataset = movie_dataset(scale)
    likes = dataset.graph.relations.id_of("likes")
    rows: list[MethodTiming] = []
    for alpha in (3, 6):
        rows.extend(
            run_method_vs_time(
                dataset,
                ["bulk", "cracking", "topk2"],
                alpha=alpha,
                num_warm=num_warm,
                relations=[likes],
                directions=("tail",),
                title=f"Fig 5 (part): movie-like, alpha={alpha}",
            )
        )
    rows.extend(
        run_method_vs_time(
            dataset,
            ["h2-alsh"],
            num_warm=num_warm,
            relations=[likes],
            directions=("tail",),
            title="Fig 5 (part): movie-like, H2-ALSH",
        )
    )
    return rows


def run_fig7(scale: float = 1.0, num_warm: int = 60) -> list[MethodTiming]:
    """Fig 7: amazon dataset; H2-ALSH and ours at k=2 vs k=10."""
    dataset = amazon_dataset(scale)
    likes = dataset.graph.relations.id_of("likes")
    rows: list[MethodTiming] = []
    for k in (2, 10):
        for name in ("cracking", "bulk", "h2-alsh"):
            timing = run_method_vs_time(
                dataset,
                [name],
                k=k,
                num_warm=num_warm,
                relations=[likes],
                directions=("tail",),
                title=f"Fig 7 (part): amazon-like, {name}, k={k}",
            )[0]
            timing.method = f"{timing.method}:k={k}"
            rows.append(timing)
    return rows


# --------------------------------------------------------------------------
# Figures 4 / 6 / 8: precision@K against the no-index ground truth
# --------------------------------------------------------------------------


def run_precision(
    dataset: BenchDataset,
    methods: list[str],
    k: int = 5,
    num_queries: int = 40,
    seed: int = 1,
    alpha: int = 3,
    relations: list[int] | None = None,
    directions: tuple[str, ...] = ("tail", "head"),
    title: str = "precision@K",
    method_kwargs: dict[str, dict] | None = None,
) -> list[AccuracyRow]:
    """Shared engine of Figures 4/6/8: precision@K of each method's
    top-k versus the exhaustive no-index ranking."""
    method_kwargs = method_kwargs or {}
    workload = make_workload(
        dataset.graph, num_queries, seed=seed, relations=relations, directions=directions
    )
    truth_method = make_method("no-index", dataset)
    rows: list[AccuracyRow] = []
    for name in methods:
        method = make_method(name, dataset, alpha=alpha, **method_kwargs.get(name, {}))
        precisions = []
        for query in workload:
            if isinstance(method, H2ALSHMethod):
                truth = method.exact_topk(query, k)
            else:
                truth = truth_method.query(query, k)
            got = method.query(query, k)
            precisions.append(precision_at_k(truth, got))
        rows.append(AccuracyRow(method.name, float(np.mean(precisions))))
    print_table(title, ["Method", "precision@K"], [[r.method, r.precision] for r in rows])
    return rows


def run_fig4(scale: float = 1.0, num_queries: int = 40) -> list[AccuracyRow]:
    """Fig 4: accuracy on the Freebase-like dataset."""
    return run_precision(
        freebase_dataset(scale),
        ["ph-tree", "bulk", "cracking", "topk2", "topk4"],
        num_queries=num_queries,
        title="Fig 4: precision@K vs no-index (freebase-like)",
    )


def run_fig6(scale: float = 1.0, num_queries: int = 40) -> list[AccuracyRow]:
    """Fig 6: accuracy on the movie dataset (alpha=3 vs 6, + H2-ALSH)."""
    dataset = movie_dataset(scale)
    likes = dataset.graph.relations.id_of("likes")
    rows: list[AccuracyRow] = []
    for alpha in (3, 6):
        part = run_precision(
            dataset,
            ["bulk", "cracking"],
            alpha=alpha,
            num_queries=num_queries,
            relations=[likes],
            directions=("tail",),
            title=f"Fig 6 (part): movie-like precision@K, alpha={alpha}",
        )
        for row in part:
            row.method = f"{row.method}(a={alpha})" if "a=" not in row.method else row.method
        rows.extend(part)
    rows.extend(
        run_precision(
            dataset,
            ["h2-alsh"],
            num_queries=num_queries,
            relations=[likes],
            directions=("tail",),
            title="Fig 6 (part): movie-like precision@K, H2-ALSH",
        )
    )
    return rows


def run_fig8(scale: float = 1.0, num_queries: int = 40) -> list[AccuracyRow]:
    """Fig 8: accuracy on the amazon dataset."""
    dataset = amazon_dataset(scale)
    likes = dataset.graph.relations.id_of("likes")
    return run_precision(
        dataset,
        ["bulk", "cracking", "topk2", "h2-alsh"],
        num_queries=num_queries,
        relations=[likes],
        directions=("tail",),
        title="Fig 8: precision@K (amazon-like)",
    )


# --------------------------------------------------------------------------
# Figures 9 / 10 / 11: index node counts and sizes over queries
# --------------------------------------------------------------------------


def run_index_growth(
    dataset: BenchDataset,
    checkpoints: tuple[int, ...] = (0, 1, 6, 11, 16, 31),
    seed: int = 2,
    title: str = "index growth",
) -> list[SizeRow]:
    """Shared engine of Figures 9-11: cracking index node count / byte
    size after q queries, against the full bulk-loaded index."""
    crack = RTreeMethod(dataset, "cracking")
    bulk = RTreeMethod(dataset, "bulk")
    bulk_stats = bulk.index.stats()
    workload = make_workload(dataset.graph, max(checkpoints), seed=seed)
    rows: list[SizeRow] = []
    seen = 0
    for checkpoint in checkpoints:
        while seen < checkpoint:
            crack.query(workload[seen], 5)
            seen += 1
        stats = crack.index.stats()
        rows.append(
            SizeRow(
                queries_seen=checkpoint,
                crack_nodes=stats.node_count,
                crack_bytes=stats.byte_size,
                bulk_nodes=bulk_stats.node_count,
                bulk_bytes=bulk_stats.byte_size,
            )
        )
    print_table(
        title,
        ["#queries", "crack nodes", "crack bytes", "bulk nodes", "bulk bytes"],
        [
            [r.queries_seen, r.crack_nodes, r.crack_bytes, r.bulk_nodes, r.bulk_bytes]
            for r in rows
        ],
    )
    return rows


def run_fig9(scale: float = 1.0) -> list[SizeRow]:
    """Fig 9: index node counts (freebase-like)."""
    return run_index_growth(
        freebase_dataset(scale), title="Fig 9: #index nodes (freebase-like)"
    )


def run_fig10(scale: float = 1.0) -> list[SizeRow]:
    """Fig 10: index size (movie-like)."""
    return run_index_growth(
        movie_dataset(scale), title="Fig 10: index size (movie-like)"
    )


def run_fig11(scale: float = 1.0) -> list[SizeRow]:
    """Fig 11: index size (amazon-like)."""
    return run_index_growth(
        amazon_dataset(scale), title="Fig 11: index size (amazon-like)"
    )


# --------------------------------------------------------------------------
# Figures 12-16: aggregate queries, accuracy vs time
# --------------------------------------------------------------------------

_ACCESS_FRACTIONS = (0.05, 0.1, 0.2, 0.4, 0.7, 1.0)


def run_aggregate_tradeoff(
    dataset: BenchDataset,
    kind: str,
    attribute: str | None,
    relation_name: str,
    direction: str = "tail",
    p_tau: float = 0.25,
    num_queries: int = 20,
    seed: int = 3,
    title: str = "aggregate tradeoff",
) -> list[AggregateRow]:
    """Shared engine of Figures 12-16: estimate accuracy (vs full access)
    as a function of the number of accessed data points / elapsed time."""
    relation = dataset.graph.relations.id_of(relation_name)
    workload = make_workload(
        dataset.graph, num_queries, seed=seed, relations=[relation], directions=(direction,)
    )
    engine_method = RTreeMethod(dataset, "cracking")
    engine = engine_method.engine

    def estimate(query: Query, fraction: float):
        spec = QuerySpec(
            entity=query.entity, relation=query.relation, direction=query.direction,
            mode="aggregate", agg=kind, attribute=attribute, p_tau=p_tau,
            access_fraction=fraction,
        )
        return engine.execute(spec).aggregate

    # Ground truth: full access of the ball (the paper's reference is
    # "accessing all data points up to a probability threshold").
    truths = {}
    for query in workload:
        truths[query] = estimate(query, 1.0).value

    rows: list[AggregateRow] = []
    for fraction in _ACCESS_FRACTIONS:
        accuracies, seconds, accessed = [], [], []
        for query in workload:
            with Timer() as t:
                result = estimate(query, fraction)
            seconds.append(t.seconds)
            accessed.append(result.accessed)
            accuracies.append(relative_accuracy(result.value, truths[query]))
        rows.append(
            AggregateRow(
                access_fraction=fraction,
                mean_accessed=float(np.mean(accessed)),
                mean_seconds=float(np.mean(seconds)),
                mean_accuracy=float(np.mean(accuracies)),
            )
        )
    print_table(
        title,
        ["access fraction", "mean accessed", "mean time(s)", "accuracy"],
        [
            [r.access_fraction, r.mean_accessed, r.mean_seconds, r.mean_accuracy]
            for r in rows
        ],
    )
    return rows


def run_fig12(scale: float = 1.0, num_queries: int = 20) -> list[AggregateRow]:
    """Fig 12: COUNT queries (freebase-like)."""
    dataset = freebase_dataset(scale)
    relation = dataset.graph.relations.name_of(0)
    return run_aggregate_tradeoff(
        dataset,
        "count",
        None,
        relation,
        num_queries=num_queries,
        title="Fig 12: COUNT accuracy vs time (freebase-like)",
    )


def run_fig13(scale: float = 1.0, num_queries: int = 20) -> list[AggregateRow]:
    """Fig 13: AVG(year) queries (movie-like)."""
    return run_aggregate_tradeoff(
        movie_dataset(scale),
        "avg",
        "year",
        "likes",
        num_queries=num_queries,
        title="Fig 13: AVG(year) accuracy vs time (movie-like)",
    )


def run_fig14(scale: float = 1.0, num_queries: int = 20) -> list[AggregateRow]:
    """Fig 14: AVG(quality) queries (amazon-like)."""
    return run_aggregate_tradeoff(
        amazon_dataset(scale),
        "avg",
        "quality",
        "likes",
        num_queries=num_queries,
        title="Fig 14: AVG(quality) accuracy vs time (amazon-like)",
    )


def run_fig15(scale: float = 1.0, num_queries: int = 20) -> list[AggregateRow]:
    """Fig 15: MAX(popularity) queries (freebase-like)."""
    dataset = freebase_dataset(scale)
    relation = dataset.graph.relations.name_of(0)
    return run_aggregate_tradeoff(
        dataset,
        "max",
        "popularity",
        relation,
        num_queries=num_queries,
        title="Fig 15: MAX(popularity) accuracy vs time (freebase-like)",
    )


def run_fig16(scale: float = 1.0, num_queries: int = 20) -> list[AggregateRow]:
    """Fig 16: MIN(year) queries (movie-like)."""
    return run_aggregate_tradeoff(
        movie_dataset(scale),
        "min",
        "year",
        "likes",
        num_queries=num_queries,
        title="Fig 16: MIN(year) accuracy vs time (movie-like)",
    )


ALL_RUNNERS = {
    "table1": run_table1,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "fig14": run_fig14,
    "fig15": run_fig15,
    "fig16": run_fig16,
}
