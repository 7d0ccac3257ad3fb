"""Read replicas: tail the writer's WAL, replay, serve bit-identical reads.

A :class:`ReplicaServer` is a :class:`repro.server.SACServer` with the
mutation surface turned around: ``/checkin``, ``/edge``, and ``/compact``
answer ``403`` pointing at the writer, and a background follower task tails
the shared write-ahead log instead, applying each record through the
daemon's own write barrier.  Replay therefore interleaves with the
replica's read micro-batches exactly as first-hand mutations interleave on
the writer — pending reads are flushed before a record applies — so every
answer a replica produces equals the writer's answer at the replica's
``applied_lsn``.

Standing queries are served from replicas too: ``/subscribe`` is *not* on
the refused mutation list, so clients may register subscriptions against a
replica and receive deltas driven by WAL replay, each stamped with the
replica's ``applied_lsn`` at evaluation time.  A post-compaction resync
keeps subscriptions alive — the registry is re-pointed at the fresh service
and every subscription re-resolves its component on the next pass.
"""

from __future__ import annotations

import asyncio
import contextlib
import sys
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Tuple

from repro.exceptions import InvalidParameterError
from repro.server.daemon import SACServer, ServerConfig
from repro.server.http import Request
from repro.service import SACService
from repro.store import ArtifactStore
from repro.store.wal import WalCursor, WalGapError


@dataclass
class ReplicaStats:
    """Replay counters of one :class:`ReplicaServer`."""

    records_replayed: int = 0
    replay_batches: int = 0
    resyncs: int = 0
    mutations_refused: int = 0


class ReplicaServer(SACServer):
    """A read-only daemon kept current by WAL replay.

    Parameters
    ----------
    service:
        The serving facade, warm-started from the shared snapshot —
        normally ``SACService.open(store_path)``.  Its engine must be an
        :class:`~repro.engine.IncrementalEngine` (the ``open`` default) for
        replay to work.
    config:
        A :class:`~repro.server.ServerConfig` whose ``wal_dir`` names the
        writer's log directory and whose ``snapshot_lsn`` is the LSN the
        opened snapshot covers (``ArtifactStore.open(path).lsn``); replay
        starts at ``snapshot_lsn + 1``.
    writer_url:
        Advertised to clients refused with ``403`` on mutation endpoints.
    poll_interval_ms:
        How often the follower polls the log for news — the knob that
        bounds replay lag in *time* (the coordinator's ``max_staleness_lsn``
        bounds it in *records*).
    service_factory:
        Builds a fresh service during a post-compaction resync; defaults to
        ``SACService.open`` on the service's remembered ``store_path``.
    clock:
        Forwarded to :class:`~repro.server.SACServer`.
    """

    def __init__(
        self,
        service: SACService,
        config: Optional[ServerConfig] = None,
        *,
        writer_url: Optional[str] = None,
        poll_interval_ms: float = 25.0,
        service_factory: Optional[Callable[[], SACService]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        super().__init__(service, config, clock=clock)
        if self.config.wal_dir is None:
            raise InvalidParameterError(
                "a replica needs the writer's WAL directory (ServerConfig.wal_dir)"
            )
        self.writer_url = writer_url
        self.poll_interval_ms = float(poll_interval_ms)
        self.replica_stats = ReplicaStats()
        self._service_factory = service_factory
        self._cursor = WalCursor(
            self.config.wal_dir, start_lsn=self.config.snapshot_lsn + 1
        )
        self._applied = int(self.config.snapshot_lsn)
        # The replay position on the engine thread; published as
        # ``_applied`` only after the replay job has also re-evaluated the
        # standing queries, so a reader that sees ``applied_lsn`` reach an
        # LSN can already poll that mutation's delta.
        self._replayed = self._applied
        self._follow_task: Optional[asyncio.Task] = None
        for route in (("POST", "/checkin"), ("POST", "/edge"), ("POST", "/compact")):
            self._routes[route] = self._handle_not_writer

    # --------------------------------------------------------------- identity
    @property
    def role(self) -> str:
        """Always ``replica`` — reads only, state arrives by replay."""
        return "replica"

    @property
    def durable_lsn(self) -> Optional[int]:
        """``None``: replicas never own the log, they only apply it."""
        return None

    @property
    def applied_lsn(self) -> Optional[int]:
        """Last WAL LSN replayed into this replica's engine and its subscriptions."""
        return self._applied

    @property
    def _state_lsn(self) -> Optional[int]:
        """The replay position, ahead of :attr:`applied_lsn` inside a replay job."""
        return self._replayed

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Start the daemon, catch up on the retained log, start following."""
        await super().start()
        # One synchronous catch-up pass so a freshly started replica joins
        # the rotation already current, then tail in the background.
        with contextlib.suppress(WalGapError):
            await self._apply_available()
        self._follow_task = self._loop.create_task(self._follow_loop())

    async def stop(self) -> None:
        """Stop following, then drain and stop the daemon."""
        if self._follow_task is not None:
            self._follow_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._follow_task
            self._follow_task = None
        await super().stop()

    # -------------------------------------------------------------- following
    async def _follow_loop(self) -> None:
        """Poll the WAL forever, replaying news and resyncing across gaps."""
        interval = self.poll_interval_ms / 1000.0
        while True:
            try:
                await self._apply_available()
            except asyncio.CancelledError:
                raise
            except WalGapError as gap:
                try:
                    await self._resync(gap)
                except asyncio.CancelledError:
                    raise
                except Exception as error:  # noqa: BLE001 - keep following
                    print(f"replica: resync failed: {error!r}", file=sys.stderr)
            except Exception as error:  # noqa: BLE001 - keep following
                print(f"replica: replay failed: {error!r}", file=sys.stderr)
            await asyncio.sleep(interval)

    async def _apply_available(self) -> int:
        """Replay every complete record currently in the log; returns count.

        Runs as one job through the daemon's write barrier
        (:meth:`SACServer._run_mutation`): pending read micro-batches flush
        first, then the records apply on the engine thread in LSN order —
        the same interleaving discipline the writer gives first-hand
        mutations, which is what keeps replica answers bit-identical to the
        writer's at ``applied_lsn``.
        """

        def run() -> int:
            replayed = self._replay(self._cursor)
            self._replayed = self._cursor.next_lsn - 1
            return replayed

        applied = await self._run_mutation(run)
        self._applied = self._replayed
        if applied:
            self.replica_stats.records_replayed += applied
            self.replica_stats.replay_batches += 1
        return applied

    async def _resync(self, gap: WalGapError) -> None:
        """Rebuild from the compacted snapshot and resume tailing after it.

        The records between ``applied_lsn`` and the log's new start were
        folded into a fresh snapshot by the writer's compaction; reopening
        the store (an mmap warm start — O(snapshot), not O(history)) lands
        the replica at the snapshot's LSN, and the cursor resumes there.
        The service swap runs behind the write barrier so no in-flight
        micro-batch straddles two engines.
        """
        factory = self._service_factory
        store_path = self.service.store_path
        if factory is None:
            if store_path is None:
                raise InvalidParameterError(
                    "replica cannot resync: the service was not opened from a "
                    "store and no service_factory was provided"
                )
            # Carry the residency budget and the cache choice across the
            # resync: the fresh service serves under the same settings the
            # replica was started with.
            budget = self.service.engine.max_resident_bytes
            use_cache = self.service.cache is not None
            factory = lambda: SACService.open(  # noqa: E731
                store_path, max_resident_bytes=budget, use_cache=use_cache
            )

        def run() -> Tuple[int, int]:
            fresh = factory()
            if fresh.store_path is not None:
                snapshot_lsn = ArtifactStore.open(fresh.store_path).lsn
            else:
                snapshot_lsn = gap.available_lsn - 1
            if snapshot_lsn + 1 < gap.available_lsn:
                raise InvalidParameterError(
                    f"snapshot at lsn {snapshot_lsn} cannot bridge the WAL gap "
                    f"(log starts at {gap.available_lsn}); compact the writer "
                    "before truncating further"
                )
            self.service = fresh
            # Standing queries survive the swap: the registry re-resolves
            # every subscription against the fresh engine on the next
            # evaluation pass (the one this same barrier job triggers) and
            # delivers a delta only where the answer actually moved.
            self.subscriptions.rebind(fresh)
            self._cursor = WalCursor(
                self.config.wal_dir, start_lsn=snapshot_lsn + 1
            )
            self._replayed = snapshot_lsn
            return gap.needed_lsn, snapshot_lsn

        needed, landed = await self._run_mutation(run)
        self._applied = self._replayed
        self.replica_stats.resyncs += 1
        print(
            f"replica: resynced from snapshot (gap at lsn {needed}, "
            f"now at lsn {landed})",
            file=sys.stderr,
        )

    # --------------------------------------------------------------- handlers
    async def _handle_not_writer(self, request: Request) -> Tuple[int, dict]:
        """``403`` every mutation attempt, pointing the client at the writer."""
        self.replica_stats.mutations_refused += 1
        return 403, {
            "error": f"{request.path} requires the writer role; "
            "this daemon is a read replica",
            "status": 403,
            "role": self.role,
            "writer": self.writer_url,
        }

    async def _handle_stats(self, request: Request) -> Tuple[int, dict]:
        """``GET /stats`` — daemon counters plus the replica's replay state."""
        status, payload = await super()._handle_stats(request)
        payload["replication"].update(
            {
                "writer": self.writer_url,
                "poll_interval_ms": self.poll_interval_ms,
                "replica": asdict(self.replica_stats),
            }
        )
        return status, payload
