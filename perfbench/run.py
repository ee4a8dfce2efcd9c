#!/usr/bin/env python3
"""The repository benchmark: one command, four serving workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload hot-http --seed 1 --seconds 10 --trace 0

It measures the workload for ``--seconds``, checks every answer, and
prints as its last stdout line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. It exits 1 when
a check fails and 2 when the checkout has no ``src/repro`` to measure.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Stay well inside the three minutes a run may take.
DEADLINE_SECONDS = 170
WORKLOAD_NAMES = ("hot-http", "wide-read", "sharded-topk", "mixed-rw")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _timeout(signum, frame):
    raise TimeoutError(f"benchmark run exceeded {DEADLINE_SECONDS} s")


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # Legacy (deprecated) query APIs must not be on the measured path.
    warnings.simplefilter("error", DeprecationWarning)
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    import harness

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(DEADLINE_SECONDS)
    try:
        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
