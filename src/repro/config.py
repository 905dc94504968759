"""The consolidated configuration surface.

Every knob object the middleware family accepts, importable from one
place::

    from repro.config import (ConcurrencyConfig, RefreshPolicy,
                              ResilienceConfig, ServerConfig)

* :class:`ResilienceConfig` — retries, breakers, deadlines, failover
  and the injectable clock (``S2SMiddleware(resilience=...)``).
* :class:`ConcurrencyConfig` — the extraction fan-out engine
  (``serial`` | ``thread`` | ``asyncio`` | ``sharded``), its thread
  bound and, for ``sharded``, its fleet; carried on
  :class:`ResilienceConfig`, or passed as
  ``S2SMiddleware(concurrency=...)``.
* :class:`FleetConfig` — the one statement of a worker fleet's shape
  (worker count, ``"thread"`` | ``"spawn"`` pool, supervision timings,
  admission quotas), taken by both fleets:
  ``ConcurrencyConfig.sharded(fleet=...)`` /
  ``QueryShardCoordinator(fleet=...)`` for queries and
  ``ShardCoordinator(fleet=...)`` / ``S2SMiddleware.ingest(fleet=...)``
  for durable ingest.
* :class:`RefreshPolicy` — semantic-store freshness: TTL, stale-while-
  refresh grace, fingerprint polling (``S2SMiddleware(store=...)``).
* :class:`ServerConfig` — the query server's listen address, admission
  control bounds, deadlines and frame ceiling
  (``S2SServer(config=...)``).

These classes still *live* next to the subsystems they configure (that
is where their behaviour is documented and tested); this module is the
one import path — the old ``repro.core``, ``repro.core.resilience`` and
``repro.core.store`` spellings are gone.
"""

from __future__ import annotations

from .core.resilience.config import (DEFAULT_WORKER_CAP, ConcurrencyConfig,
                                     FleetConfig, ResilienceConfig)
from .core.store.refresh import RefreshPolicy
from .server.config import ServerConfig

__all__ = [
    "DEFAULT_WORKER_CAP",
    "ConcurrencyConfig",
    "FleetConfig",
    "RefreshPolicy",
    "ResilienceConfig",
    "ServerConfig",
]
