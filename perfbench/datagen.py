"""Write one benchmark dataset as an engine artifact.

Usage: ``python3 perfbench/datagen.py <movie|freebase|amazon> <out_dir>``
(with the repository's ``src`` on ``PYTHONPATH``). It runs in a process
of its own so that generation memory never counts toward the serving
process's peak RSS; the artifact is the saved graph plus embedding that
every set-up starts from.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    name, out_dir = argv
    from repro.bench.datasets import ALL_DATASETS
    from repro.persistence import save_engine
    from repro.query.engine import EngineConfig, QueryEngine

    dataset = ALL_DATASETS[name](1.0)
    engine = QueryEngine.from_graph(dataset.graph, EngineConfig(), model=dataset.model)
    save_engine(engine, out_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
