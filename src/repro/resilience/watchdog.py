"""Pool supervision: heartbeat monitoring, respawn, engine validation.

:class:`PoolWatchdog` is a small daemon thread that periodically asks an
:class:`~repro.service.pool.EnginePool` to

- :meth:`~repro.service.pool.EnginePool.reap` — replace workers that
  died (crashed threads) and reclaim the engines they had checked out,
  validating each engine before it re-enters rotation;
- :meth:`~repro.service.pool.EnginePool.abandon_hung_workers` — give up
  on workers wedged in a single request for longer than ``hang_timeout``
  and spawn replacements.

Validation defaults to the degradation ladder's ``repair`` when a ladder
is supplied (structural invariant check, rebuild on violation), else the
engine's own ``validate()``. Counters land in
:class:`~repro.service.metrics.ServingMetrics`: ``worker_restarts``,
``workers_hung``, ``engines_repaired`` (the ladder increments the last).
"""

from __future__ import annotations

import threading
from typing import Callable


class PoolWatchdog:
    """Supervises one pool from a background thread.

    ``interval`` is the sweep period; ``hang_timeout`` the per-request
    patience. :meth:`sweep` can also be called directly (the tests and
    the chaos harness do, for determinism).
    """

    def __init__(
        self,
        pool,
        interval: float = 0.25,
        hang_timeout: float = 30.0,
        ladder=None,
        validate: Callable[[object], None] | None = None,
        metrics=None,
    ) -> None:
        self.pool = pool
        self.interval = interval
        self.hang_timeout = hang_timeout
        self.metrics = metrics
        if validate is not None:
            self._validate = validate
        elif ladder is not None:
            self._validate = ladder.repair
        else:
            self._validate = lambda engine: engine.validate()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self.sweeps = 0
        self.restarts = 0
        self.hung = 0
        self.quarantined = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "PoolWatchdog":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-watchdog", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=10.0)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sweep()
            except Exception:  # noqa: BLE001 - the supervisor must not die
                pass

    # -- one sweep ---------------------------------------------------------

    def sweep(self) -> dict:
        """One supervision pass; returns what it did."""
        counts = self.pool.reap(validate=self._validate)
        hung = self.pool.abandon_hung_workers(self.hang_timeout)
        with self._lock:
            self.sweeps += 1
            self.restarts += counts["restarted"]
            self.quarantined += counts["quarantined"]
            self.hung += hung
        if self.metrics is not None:
            for _ in range(counts["restarted"]):
                self.metrics.increment("worker_restarts")
            for _ in range(hung):
                self.metrics.increment("workers_hung")
        return {**counts, "hung": hung}

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "running": self._thread is not None,
                "sweeps": self.sweeps,
                "restarts": self.restarts,
                "hung": self.hung,
                "quarantined": self.quarantined,
            }

    def __enter__(self) -> "PoolWatchdog":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
