"""Fault tolerance for the serving and dynamic-update layers.

The cracking index is disposable workload state (the paper's point), but
the *service* around it is not: online updates must survive crashes,
dead pool workers must not leak serving capacity, and a misbehaving
index must degrade — not fail. This package provides:

- :mod:`repro.resilience.wal` — a checksummed write-ahead log for
  :class:`~repro.dynamic.updater.OnlineUpdater` mutations, with
  compaction into fresh snapshots;
- :mod:`repro.resilience.recovery` — ``recover_engine`` = ``load_engine``
  + WAL replay, restoring bit-identical post-update state;
- :mod:`repro.resilience.breaker` — a failure-rate circuit breaker for
  the query path;
- :mod:`repro.resilience.retry` — client-side retries with exponential
  backoff, jitter, and ``Retry-After`` honouring;
- :mod:`repro.resilience.watchdog` — heartbeat monitoring of the engine
  pool; dead workers are respawned and their engines validated before
  re-entering rotation;
- :mod:`repro.resilience.degrade` — the degradation ladder: cracking →
  fresh bulk-loaded R-tree → linear scan, with background rebuild back
  to full health;
- :mod:`repro.resilience.chaos` — a deterministic, seeded
  fault-injection harness used by the acceptance tests.
"""

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.chaos import ChaosController, activate
from repro.resilience.degrade import DegradationLadder
from repro.resilience.recovery import RecoveryReport, recover_engine
from repro.resilience.retry import RetryPolicy
from repro.resilience.wal import DurableUpdater, WriteAheadLog
from repro.resilience.watchdog import PoolWatchdog
