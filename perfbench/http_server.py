"""The ``hot-http`` serving process.

Usage: ``python3 perfbench/http_server.py --artifact DIR [--trace]``
(with the repository's ``src`` on ``PYTHONPATH``). It sets up the HTTP
service several times from the saved artifact, keeps the last one, prints
``{"port": ..., "setup_s": [...]}`` and then obeys one command per
stdin line, answering each with one JSON line on stdout:

- ``mark``: start counting cache statistics from now;
- ``trace on`` / ``trace off``: record spans (with ``--trace``);
- ``stop``: reply with this process's metrics, shut down and exit.
"""

from __future__ import annotations

import argparse
import http.client
import json
import resource
import sys
import warnings


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--artifact", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    warnings.simplefilter("error", DeprecationWarning)

    from repro.persistence import load_engine
    from repro.service.server import QueryService, start_in_thread
    from serving import PROBE, WORKERS, cache_counts, counter_totals, diff, freeze_heap, timed_setups
    from tracing import Recorder, install_layers, layer_metrics

    class Running:
        """One set-up: the service behind its HTTP front-end."""

        def __init__(self) -> None:
            self.service = QueryService(load_engine(args.artifact), workers=WORKERS)
            self.server, _ = start_in_thread(self.service)
            body = json.dumps({"entity": PROBE.entity, "relation": PROBE.relation, "k": PROBE.k})
            conn = http.client.HTTPConnection("127.0.0.1", self.server.server_address[1], timeout=30)
            try:
                conn.request("POST", "/v1/query", body, {"Content-Type": "application/json"})
                response = conn.getresponse()
                response.read()
            finally:
                conn.close()
            if response.status != 200:
                raise RuntimeError(f"the set-up probe query answered {response.status}")

        def close(self) -> None:
            self.server.shutdown()
            self.server.server_close()
            self.service.close()

    setups, running = timed_setups(Running)
    service, server = running.service, running.server
    recorder = Recorder()
    if args.trace:
        install_layers(recorder)
    freeze_heap()
    _reply({"port": server.server_address[1], "setup_s": setups})

    cache_base = cache_counts(service)
    counters = {key: 0 for key in counter_totals(service.engine)}
    before = None
    for line in sys.stdin:
        command = line.strip()
        if command == "mark":
            cache_base = cache_counts(service)
        elif command == "trace on":
            before = counter_totals(service.engine)
            recorder.enabled = True
        elif command == "trace off":
            recorder.enabled = False
            for key, value in diff(counter_totals(service.engine), before).items():
                counters[key] += value
        elif command == "stop":
            break
        _reply({"ok": command})

    ops = sum(1 for span in recorder.spans if span.name == "service.execute")
    result = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cache": diff(cache_counts(service), cache_base),
        "node_count": service.engine.index.stats().node_count,
        "counters": counters,
        "layers": layer_metrics(recorder, ops) if args.trace else {},
    }
    recorder.uninstall()
    running.close()
    _reply(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
