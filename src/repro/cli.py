"""Command-line interface: ``python -m repro <command>``.

Commands
--------
generate   write a synthetic dataset (triples + attributes TSV)
stats      print Table-I-style statistics for a triple file
train      train an embedding on a triple file and save an engine artifact
query      top-k predictive query against a saved artifact
aggregate  aggregate query against a saved artifact
serve      run the concurrent query service (JSON HTTP API)
replay     fire a synthetic workload at a service and report latency
trace      replay one query with tracing on and print the span tree
recover    replay an artifact's write-ahead log after a crash
bench      alias for ``python -m repro.bench``

Example session::

    python -m repro generate --dataset movie --out data/
    python -m repro stats --triples data/graph.tsv
    python -m repro train --triples data/graph.tsv \
        --attributes data/attributes.tsv --out artifact/ --epochs 40
    python -m repro query --artifact artifact/ --head user:3 \
        --relation likes -k 5
    python -m repro aggregate --artifact artifact/ --head user:3 \
        --relation likes --kind avg --attribute year
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.bench.reporting import print_table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("--dataset", choices=["freebase", "movie", "amazon"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("stats", help="Table-I statistics for a triple file")
    p.add_argument("--triples", required=True)

    p = sub.add_parser("train", help="train an embedding, save an engine artifact")
    p.add_argument("--triples", required=True)
    p.add_argument("--attributes")
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=int, default=50)
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--alpha", type=int, default=3)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--index", default="cracking")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("query", help="top-k predictive query")
    p.add_argument("--artifact", required=True)
    p.add_argument("--head")
    p.add_argument("--tail")
    p.add_argument("--relation", required=True)
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--explain", action="store_true")

    p = sub.add_parser("aggregate", help="aggregate query")
    p.add_argument("--artifact", required=True)
    p.add_argument("--head")
    p.add_argument("--tail")
    p.add_argument("--relation", required=True)
    p.add_argument("--kind", required=True, choices=["count", "sum", "avg", "max", "min"])
    p.add_argument("--attribute")
    p.add_argument("--p-tau", type=float, default=0.25)
    p.add_argument("--access-fraction", type=float, default=1.0)

    p = sub.add_parser("serve", help="run the concurrent query service")
    p.add_argument("--artifact", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--max-queue", type=int, default=128)
    p.add_argument("--cache-size", type=int, default=2048)
    p.add_argument("--cache-ttl", type=float, default=None)
    p.add_argument("--timeout", type=float, default=None,
                   help="default per-request deadline in seconds")
    p.add_argument("--trace", action="store_true",
                   help="enable request tracing and the /debug/traces endpoint")
    p.add_argument("--trace-threshold", type=float, default=0.05,
                   help="flight-recorder latency threshold in seconds")
    p.add_argument("--trace-capacity", type=int, default=64,
                   help="flight-recorder ring size")
    p.add_argument("--shards", type=int, default=1,
                   help="partition the index into N shard trees (scatter-gather)")
    p.add_argument("--shard-scheme", choices=["hash", "kd"], default="hash")
    p.add_argument("--shard-backend", choices=["thread", "fork"], default="thread",
                   help="fork runs shards as processes (static top-k only)")

    p = sub.add_parser(
        "trace", help="replay one query with tracing on and print the span tree"
    )
    p.add_argument("--artifact", required=True)
    p.add_argument("--head")
    p.add_argument("--tail")
    p.add_argument("--relation", required=True)
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--json", action="store_true",
                   help="print the raw trace record as JSON")
    p.add_argument("--profile", action="store_true",
                   help="also run the query under cProfile and print hot functions")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("replay", help="replay a synthetic workload at a service")
    p.add_argument("--artifact", required=True)
    p.add_argument("--queries", type=int, default=500)
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--qps", type=float, default=None,
                   help="target submission rate (default: closed loop)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--skew", type=float, default=0.0)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--cache-size", type=int, default=2048)
    p.add_argument("--shards", type=int, default=1,
                   help="replay against a sharded engine with N shard trees")
    p.add_argument("--shard-scheme", choices=["hash", "kd"], default="hash")
    p.add_argument("--shard-backend", choices=["thread", "fork"], default="thread")

    p = sub.add_parser(
        "recover", help="recover an artifact: load the snapshot, replay its WAL"
    )
    p.add_argument("--artifact", required=True)
    p.add_argument("--compact", action="store_true",
                   help="write a fresh snapshot and truncate the WAL afterwards")
    p.add_argument("--shards", type=int, default=1,
                   help="re-shard the snapshot before WAL replay")
    p.add_argument("--shard-scheme", choices=["hash", "kd"], default="hash")

    p = sub.add_parser("bench", help="run the benchmark harness")
    p.add_argument("--figure", default="all")
    p.add_argument("--scale", type=float, default=1.0)

    args = parser.parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "stats": _cmd_stats,
        "train": _cmd_train,
        "query": _cmd_query,
        "aggregate": _cmd_aggregate,
        "serve": _cmd_serve,
        "trace": _cmd_trace,
        "replay": _cmd_replay,
        "recover": _cmd_recover,
        "bench": _cmd_bench,
    }[args.command]
    return handler(args)


def _cmd_generate(args) -> int:
    from repro.kg.generators import amazon_like, freebase_like, movielens_like
    from repro.kg.io import save_attributes, save_triples

    makers = {
        "freebase": lambda: freebase_like(
            num_entities=int(4000 * args.scale),
            num_edges=int(16000 * args.scale),
            seed=args.seed,
        ),
        "movie": lambda: movielens_like(
            num_users=int(700 * args.scale),
            num_movies=int(1500 * args.scale),
            num_ratings=int(14000 * args.scale),
            seed=args.seed,
        ),
        "amazon": lambda: amazon_like(
            num_users=int(1500 * args.scale),
            num_products=int(2600 * args.scale),
            num_ratings=int(16000 * args.scale),
            seed=args.seed,
        ),
    }
    graph, _ = makers[args.dataset]()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n_triples = save_triples(graph, out / "graph.tsv")
    n_attrs = save_attributes(graph, out / "attributes.tsv")
    print(f"wrote {n_triples} triples and {n_attrs} attribute rows to {out}")
    return 0


def _cmd_stats(args) -> int:
    from repro.kg.io import load_triples
    from repro.kg.stats import compute_stats, powerlaw_tail_fraction

    graph = load_triples(args.triples)
    stats = compute_stats(graph)
    print_table(
        "Dataset statistics",
        ["Dataset", "Entities", "Relationship types", "Edges"],
        [stats.as_row()],
    )
    print(f"mean degree {stats.mean_degree:.2f}, max degree {stats.max_degree}, "
          f"top-10% edge share {powerlaw_tail_fraction(graph):.2f}")
    return 0


def _cmd_train(args) -> int:
    from repro.embedding.trainer import TrainConfig, train_model
    from repro.kg.io import load_attributes, load_triples
    from repro.persistence import save_engine
    from repro.query.engine import EngineConfig, QueryEngine

    graph = load_triples(args.triples)
    if args.attributes:
        load_attributes(graph, args.attributes)
    result = train_model(
        graph,
        TrainConfig(dim=args.dim, epochs=args.epochs, seed=args.seed),
    )
    print(f"trained TransE: final mean hinge loss {result.final_loss:.4f}")
    engine = QueryEngine.from_graph(
        graph,
        EngineConfig(
            alpha=args.alpha,
            epsilon=args.epsilon,
            index=args.index,
            seed=args.seed,
        ),
        model=result.model,
    )
    save_engine(engine, args.out)
    print(f"saved artifact to {args.out}")
    return 0


def _load_vkg(artifact: str):
    from repro.persistence import load_engine
    from repro.query.vkg import VirtualKnowledgeGraph

    engine = load_engine(artifact)
    return VirtualKnowledgeGraph(engine.graph, engine)


def _cmd_query(args) -> int:
    if (args.head is None) == (args.tail is None):
        print("give exactly one of --head / --tail")
        return 2
    vkg = _load_vkg(args.artifact)
    if args.head is not None:
        edges = vkg.top_tails(args.head, args.relation, k=args.k)
        rows = [[e.tail, e.probability] for e in edges]
        title = f"top-{args.k} tails of ({args.head}, {args.relation}, ?)"
    else:
        edges = vkg.top_heads(args.tail, args.relation, k=args.k)
        rows = [[e.head, e.probability] for e in edges]
        title = f"top-{args.k} heads of (?, {args.relation}, {args.tail})"
    print_table(title, ["entity", "probability"], rows)
    if args.explain:
        from repro.query.spec import QuerySpec

        graph = vkg.graph
        spec = QuerySpec(
            entity=graph.entities.id_of(args.head or args.tail),
            relation=graph.relations.id_of(args.relation),
            direction="tail" if args.head is not None else "head",
            k=args.k,
        )
        print(vkg.engine.explain(spec).summary())
    return 0


def _cmd_aggregate(args) -> int:
    if (args.head is None) == (args.tail is None):
        print("give exactly one of --head / --tail")
        return 2
    vkg = _load_vkg(args.artifact)
    estimate = vkg.aggregate(
        args.kind,
        args.attribute,
        head=args.head,
        tail=args.tail,
        relation=args.relation,
        p_tau=args.p_tau,
        access_fraction=args.access_fraction,
    )
    label = f"{args.kind.upper()}({args.attribute or '*'})"
    print(
        f"{label} = {estimate.value:.4f} "
        f"[{estimate.accessed}/{estimate.ball_size} entities accessed, "
        f"p_tau={estimate.p_tau}]"
    )
    return 0


def _cmd_serve(args) -> int:
    from repro.obs import trace
    from repro.persistence import load_engine
    from repro.service.server import QueryService, serve_forever

    if args.trace:
        trace.enable()
    engine = load_engine(args.artifact)
    if args.shards > 1:
        from repro.shard import ShardedEngine

        engine = ShardedEngine.from_engine(
            engine, shards=args.shards, scheme=args.shard_scheme,
            backend=args.shard_backend,
        )
    service = QueryService(
        engine,
        workers=args.workers,
        max_queue=args.max_queue,
        cache_capacity=args.cache_size,
        cache_ttl=args.cache_ttl,
        default_timeout=args.timeout,
        trace_threshold=args.trace_threshold,
        trace_capacity=args.trace_capacity,
    )
    serve_forever(service, host=args.host, port=args.port)
    return 0


def _cmd_trace(args) -> int:
    import cProfile
    import io
    import json
    import pstats

    from repro.obs import trace
    from repro.persistence import load_engine
    from repro.query.spec import QuerySpec
    from repro.service.server import QueryService

    if (args.head is None) == (args.tail is None):
        print("give exactly one of --head / --tail")
        return 2
    engine = load_engine(args.artifact)
    entity = args.head if args.head is not None else args.tail
    spec = QuerySpec(
        entity=engine.graph.entities.id_of(entity),
        relation=engine.graph.relations.id_of(args.relation),
        direction="tail" if args.head is not None else "head",
        k=args.k,
    )
    records = []
    profiler = cProfile.Profile() if args.profile else None
    with QueryService(engine, workers=args.workers) as service:
        trace.add_listener(records.append)
        was_enabled = trace.enabled()
        trace.enable()
        try:
            if profiler is not None:
                profiler.enable()
            # Mirror the HTTP request path: service call, probability
            # scoring, JSON serialization — one trace end to end.
            with trace.span("repro.trace") as sp:
                sp.set_attribute("entity", entity)
                sp.set_attribute("relation", args.relation)
                detail = service.execute(spec)
                probabilities = service.engine.probabilities(detail.result)
                with trace.span("http.serialize"):
                    body = json.dumps(
                        {
                            "entities": list(detail.result.entities),
                            "distances": list(detail.result.distances),
                            "probabilities": list(probabilities),
                        }
                    )
            if profiler is not None:
                profiler.disable()
        finally:
            if not was_enabled:
                trace.disable()
            trace.remove_listener(records.append)
    if not records:
        print("no trace captured")
        return 1
    record = records[-1]
    if args.json:
        print(json.dumps(record.as_dict(), indent=2))
    else:
        print(trace.render(record))
        print(f"\nresult: {body}")
    if profiler is not None:
        out = io.StringIO()
        pstats.Stats(profiler, stream=out).sort_stats("cumulative").print_stats(15)
        print(out.getvalue())
    return 0


def _cmd_replay(args) -> int:
    from repro.bench.workloads import make_workload
    from repro.persistence import load_engine
    from repro.service.replay import replay
    from repro.service.server import QueryService

    engine = load_engine(args.artifact)
    if args.shards > 1:
        from repro.shard import ShardedEngine

        engine = ShardedEngine.from_engine(
            engine, shards=args.shards, scheme=args.shard_scheme,
            backend=args.shard_backend,
        )
    workload = make_workload(
        engine.graph, args.queries, seed=args.seed, skew=args.skew
    )
    with QueryService(
        engine, workers=args.workers, cache_capacity=args.cache_size
    ) as service:
        report = replay(
            service,
            workload,
            k=args.k,
            threads=args.threads,
            target_qps=args.qps,
        )
        print(report.summary())
        print()
        print(service.metrics.report())
    return 0


def _cmd_recover(args) -> int:
    from repro.dynamic.updater import OnlineUpdater
    from repro.resilience.recovery import recover_engine
    from repro.resilience.wal import DurableUpdater

    engine, report = recover_engine(
        args.artifact,
        shards=args.shards if args.shards > 1 else None,
        scheme=args.shard_scheme,
    )
    print(report.summary())
    if args.compact:
        # The DurableUpdater picks its LSN up from the existing WAL, so the
        # new snapshot absorbs every record replay just applied.
        durable = DurableUpdater(OnlineUpdater(engine), args.artifact)
        durable.checkpoint()
        print(f"compacted: snapshot now at lsn {durable.lag()['last_lsn']}, WAL truncated")
    return 0


def _cmd_bench(args) -> int:
    from repro.bench.__main__ import main as bench_main

    return bench_main(["--figure", args.figure, "--scale", str(args.scale)])
