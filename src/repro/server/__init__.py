"""The network serving layer: a long-lived SAC daemon and its client.

``repro.server`` puts the whole stack on the wire.  The daemon
(:class:`SACServer`) exposes the :class:`repro.service.SACService` facade as
JSON over HTTP/1.1 on raw asyncio streams — no web framework, stdlib only —
with **micro-batching** (concurrent single queries coalesce into one
``submit_batch`` call), a **single-writer** mutation pipeline (check-ins and
edge updates are serialised with query batches, so answers are bit-identical
to applying the same request sequence serially), warm start from an
:class:`repro.store.ArtifactStore` snapshot, snapshot-on-signal, and a
graceful drain.  **Standing queries** ride the same daemon: ``/subscribe``
registers a continuous query with the
:class:`repro.service.subscriptions.SubscriptionRegistry` and deltas are
collected by long-polling ``GET /subscribe``.  :class:`SACClient` is the
stdlib client; ``repro-sac serve`` the CLI front end.  The daemon runs on
:class:`HttpServer` — the listener, keep-alive loop, signal and drain
lifecycle it shares with the replication tier's servers — and
:func:`start_in_thread` runs any of those servers in a background thread.

Endpoints: ``POST /query``, ``POST /batch``, ``POST /checkin``,
``POST /edge``, ``POST /compact``, ``POST /subscribe``,
``GET /subscribe``, ``POST /unsubscribe``, ``GET /stats``,
``GET /healthz`` — request/response schemas in ``docs/serving.md``.
"""

from repro.server.client import SACClient, ServerError
from repro.server.daemon import (
    BatcherStats,
    EndpointStats,
    HttpServer,
    SACServer,
    ServerConfig,
    ServerHandle,
    start_in_thread,
)

__all__ = [
    "HttpServer",
    "SACServer",
    "ServerConfig",
    "ServerHandle",
    "SACClient",
    "ServerError",
    "BatcherStats",
    "EndpointStats",
    "start_in_thread",
]
