"""Movie recommendations over a MovieLens-like virtual knowledge graph.

This mirrors the paper's movie experiment: a heterogeneous graph of
users, movies, genres and tags with ``likes`` / ``dislikes`` /
``has-genres`` / ``has-tags`` relations. We build the cracking index
online and ask for each user's top-k predicted "likes" — edges that are
NOT in the graph — then sanity-check the index answers against the
exact scan and show how the index converges over the
query sequence.

Run with:  python examples/movie_recommendations.py
"""

import time

from repro.bench.metrics import precision_at_k
from repro.embedding.pretrained import PretrainedEmbedding
from repro.kg.generators import movielens_like
from repro.query.engine import EngineConfig, QueryEngine
from repro.query.spec import QuerySpec
from repro.query.vkg import VirtualKnowledgeGraph


def main() -> None:
    graph, world = movielens_like(
        num_users=400, num_movies=900, num_genres=15, num_tags=60, num_ratings=8000
    )
    print(f"Built {graph}")

    # The frozen embedding derived from the generator's ground truth has
    # the clustered geometry a converged TransE run exhibits on real KG
    # data; swap in train_model(...) to train TransE from scratch.
    model = PretrainedEmbedding.from_world(graph, world, dim=50, seed=0)
    engine = QueryEngine.from_graph(
        graph, EngineConfig(index="cracking", epsilon=0.5), model=model
    )
    vkg = VirtualKnowledgeGraph(graph, engine)

    print("\nTop-5 predicted 'likes' for three users:")
    for user in ("user:3", "user:77", "user:200"):
        print(f"  {user}:")
        for edge in vkg.top_tails(user, "likes", k=5):
            print(f"    {edge.tail:12s}  p={edge.probability:.3f}")

    # Accuracy vs the exact scan, and the warm-up behaviour.
    likes = graph.relations.id_of("likes")
    users = [graph.entities.id_of(f"user:{i}") for i in range(40)]
    precisions, timings = [], []
    for user in users:
        spec = QuerySpec(entity=user, relation=likes, k=5)
        start = time.perf_counter()
        result = engine.execute(spec).topk
        timings.append(time.perf_counter() - start)
        truth = engine.exact_topk(spec).entities
        precisions.append(precision_at_k(truth, result.entities))

    print(f"\nprecision@5 vs exact scan over {len(users)} queries: "
          f"{sum(precisions) / len(precisions):.3f}")
    print(f"query 1 latency:  {timings[0] * 1000:7.2f} ms (index built here)")
    print(f"query 5 latency:  {timings[4] * 1000:7.2f} ms")
    print(f"steady state:     {sum(timings[20:]) / len(timings[20:]) * 1000:7.2f} ms")

    stats = engine.index.stats()
    print(
        f"\nIndex after {len(users)} queries: {stats.node_count} nodes, "
        f"{stats.frontier_elements} unexpanded partitions, "
        f"{stats.byte_size / 1024:.1f} KiB"
    )

    # The opposite direction: who would like a given movie?
    movie = "movie:10"
    print(f"\nTop-5 predicted fans of {movie}:")
    for edge in vkg.top_heads(movie, "likes", k=5):
        print(f"    {edge.head:12s}  p={edge.probability:.3f}")


if __name__ == "__main__":
    main()
