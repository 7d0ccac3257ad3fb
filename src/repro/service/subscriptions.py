"""Standing SAC queries: a version-driven pub/sub subscription registry.

A *subscription* is a standing query ``(vertex, k, algorithm, params)``: the
client registers it once and is pushed a **delta** (members added/removed,
new MEC radius, ``algorithm_used``, version stamp) whenever its community
actually changes, instead of polling ``/query`` and diffing answers itself.

The registry turns the engine's incremental-maintenance bookkeeping into the
continuous-query dirty set.  :class:`repro.engine.IncrementalEngine` bumps a
per-``(k, representative)`` version counter exactly when a mutation touches a
component's artifacts (:meth:`repro.engine.QueryEngine.component_version`),
so after every mutation the registry only has to

1. probe one version counter per **distinct** subscribed ``(k, rep)`` key,
2. re-evaluate the subscriptions whose counter moved — through
   :meth:`repro.service.SACService.submit_batch`, one call per
   ``(k, algorithm, params)`` group, so N subscriptions sharing one
   component cost one candidate fetch and every fresh answer lands in the
   service's :class:`~repro.service.AnswerCache` (the one store of computed
   answers: a read after the mutation is a cache hit), and
3. queue a delta only for subscriptions whose *observable answer* changed
   (identical re-computed answers are suppressed, never delivered).

Answers no version guards (``k == 1``, see :func:`repro.service.cache.versioned`)
stay unkeyed and are re-evaluated on every pass.  Representatives are
re-resolved on every evaluation pass: after a merge or split the
subscription is silently re-indexed under its component's fresh ``(k, rep)``
key, and a vertex that falls out of every k-core (or re-enters one) produces
a ``found`` transition delta.

Delivery semantics
------------------
Each subscription owns a bounded delta queue (``backlog`` messages).  When a
slow consumer overflows it, the queue is dropped and the subscription enters
*resync* mode: the next poll receives one ``{"type": "resync"}`` message
carrying the **full current community snapshot** (members, radius, center,
version) instead of the missed deltas, then delta flow resumes.  A consumer
therefore never needs a side-channel re-query to recover.

Threading contract
------------------
``register``, ``evaluate``, ``rebind`` and ``expire_idle`` touch the engine
and MUST run serialized on the daemon's single-writer barrier (the engine
thread).  ``poll``, ``unsubscribe``, ``snapshot`` and ``stats_dict`` are
safe from any thread (the daemon's event loop calls them while mutations
run): all queue/state handoff happens under one internal lock, held only
for dict/deque work — never during a search.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field
from time import monotonic
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.base import validate_query
from repro.core.result import Members, SACResult
from repro.exceptions import NoCommunityError
from repro.service.cache import component_stamp, versioned
from repro.service.slo import approximation_bound, params_for

__all__ = ["Subscription", "SubscriptionRegistry", "SubscriptionStats"]

ParamsKey = Tuple[Tuple[str, float], ...]

#: One re-evaluated standing query: its answer, ``(k, rep)`` key, version.
_Answer = Tuple["Subscription", Optional[SACResult], Optional[Tuple[int, int]], int]
#: The member array of a "no community" state.
_NO_MEMBERS = Members().array


@dataclass
class Subscription:
    """One standing query, its delivery state, and its last answer.

    Attributes
    ----------
    sub_id:
        Registry-unique identifier handed to the client at registration.
    vertex / k / algorithm / params:
        The standing query, in internal vertex indices.
    key:
        The ``(k, representative)`` index key of the component currently
        answering the query, or ``None`` while the vertex is in no k-core,
        while no version guards the answer (``k == 1``), or immediately
        after a replica resync, before re-resolution.
    last_version:
        The component artifact version the last evaluation observed
        (:meth:`repro.engine.QueryEngine.component_version`).
    result:
        The last-observed answer (``None``: no community).  Deltas are
        emitted exactly when a re-evaluation changes its members, MEC, or
        ``algorithm_used``, and are diffed against it.
    seq:
        Per-subscription message counter; every queued message (delta or
        resync) carries the next value, so a consumer can detect reordering.
    queue:
        Pending undelivered messages, bounded by the registry backlog.
    needs_resync:
        Set when the queue overflowed; the next poll gets a full snapshot.
    last_seen:
        Monotonic stamp of the last client contact, for idle GC.
    """

    sub_id: str
    vertex: int
    k: int
    algorithm: str
    params: Dict[str, float]
    key: Optional[Tuple[int, int]] = None
    last_version: int = -1
    result: Optional[SACResult] = None
    seq: int = 0
    queue: List[dict] = field(default_factory=list)
    needs_resync: bool = False
    last_seen: float = 0.0
    lsn: Optional[int] = None

    def params_key(self) -> ParamsKey:
        """Canonical grouping key of this subscription's parameters."""
        return tuple(sorted(self.params.items()))


@dataclass
class SubscriptionStats:
    """Registry-lifetime counters, surfaced in the daemon's ``/stats``.

    ``groups_executed`` counts the plan groups the evaluations' batches ran
    after answer-cache pruning, so a registration the cache answers adds 0.
    """

    registered: int = 0
    unsubscribed: int = 0
    expired: int = 0
    evaluations: int = 0
    subscriptions_evaluated: int = 0
    groups_executed: int = 0
    deltas_queued: int = 0
    deltas_delivered: int = 0
    suppressed: int = 0
    overflows: int = 0
    resyncs: int = 0
    evaluation_seconds: float = 0.0


def _observable(result: Optional[SACResult]) -> Optional[tuple]:
    """What a subscriber sees of an answer; a delta fires when it moves."""
    return None if result is None else (result.members, result.circle, result.algorithm)


class SubscriptionRegistry:
    """Standing queries indexed by ``(k, component representative)``.

    Parameters
    ----------
    service:
        The :class:`repro.service.SACService` whose engine answers the
        standing queries.  Replaceable via :meth:`rebind` (replica resync).
    backlog:
        Per-subscription queue bound; overflowing it switches the
        subscription to resync-snapshot delivery.
    idle_seconds:
        Subscriptions not polled for this long are expired by
        :meth:`expire_idle`.  ``None`` disables idle GC.  Keep it longer
        than the server's long-poll park timeout — a parked poller counts
        as contact only when its poll *arrives*.
    clock:
        Injectable monotonic clock (tests): idle stamps and
        ``evaluation_seconds`` are both measured on it.
    """

    def __init__(
        self,
        service,
        *,
        backlog: int = 64,
        idle_seconds: Optional[float] = 300.0,
        clock: Callable[[], float] = monotonic,
    ) -> None:
        if backlog < 1:
            raise ValueError(f"subscription backlog must be >= 1, got {backlog}")
        self._service = service
        self._backlog = int(backlog)
        self._idle_seconds = idle_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._subs: Dict[str, Subscription] = {}
        self._by_key: Dict[Tuple[int, int], Set[str]] = {}
        self._unkeyed: Set[str] = set()
        self._next_id = 0
        self.stats = SubscriptionStats()

    # ------------------------------------------------------------- properties
    @property
    def backlog(self) -> int:
        """Per-subscription queue bound."""
        return self._backlog

    def __len__(self) -> int:
        return len(self._subs)

    # ------------------------------------------------- engine-thread surface
    def register(
        self,
        vertex: int,
        k: int,
        *,
        algorithm: str = "appfast",
        params: Optional[Dict[str, float]] = None,
    ) -> Tuple[Subscription, dict]:
        """Create a subscription and compute its initial community state.

        Runs the query as a one-query :meth:`~repro.service.SACService.submit_batch`
        (validating ``k``, ``vertex`` and ``algorithm`` as a search would),
        so the returned snapshot is bit-identical to what ``/query`` would
        answer at this version — and is a cache hit when it already did.
        Returns ``(subscription, snapshot_payload)``; the snapshot is the
        registration response body (minus transport fields).

        Engine thread only.
        """
        validate_query(self._service.graph, vertex, k)
        sub = Subscription(
            sub_id="",
            vertex=int(vertex),
            k=int(k),
            algorithm=algorithm,
            params=dict(params or {}),
        )
        _, sub.result, sub.key, sub.last_version = self._answer([sub])[0]
        with self._lock:
            self._next_id += 1
            sub.sub_id = f"sub-{self._next_id}"
            sub.last_seen = self._clock()
            self._subs[sub.sub_id] = sub
            self._index(sub)
            self.stats.registered += 1
            return sub, self._message(sub, "snapshot")

    def evaluate(self, *, lsn: Optional[int] = None) -> List[str]:
        """Re-evaluate every subscription whose component version moved.

        The post-mutation hook of the daemon's single-writer barrier.  Costs
        one ``component_version`` probe per distinct live ``(k, rep)`` key;
        only moved keys (plus unkeyed subscriptions needing re-resolution)
        are re-executed, one ``submit_batch`` per ``(k, algorithm, params)``
        group.  Returns the ids of subscriptions that now have a deliverable
        message (delta queued or resync pending) so the caller can wake
        their parked pollers.

        Engine thread only.
        """
        start = self._clock()
        due = self._collect_due()
        answers = self._answer(due)
        woken: List[str] = []
        with self._lock:
            for sub, result, key, version in answers:
                if sub.sub_id not in self._subs:
                    continue  # unsubscribed while we computed
                if self._install(sub, result, key, version, lsn):
                    woken.append(sub.sub_id)
        self.stats.evaluations += 1
        self.stats.subscriptions_evaluated += len(due)
        self.stats.evaluation_seconds += self._clock() - start
        return woken

    def rebind(self, service) -> None:
        """Point the registry at a fresh service (replica snapshot resync).

        Component ids, representatives and version counters all restart with
        the new engine, so every subscription is unkeyed and marked dirty;
        the next :meth:`evaluate` re-resolves and re-executes each one,
        delivering a delta only where the observable answer differs from the
        pre-resync state (an unchanged community stays silent).

        Engine thread only.
        """
        with self._lock:
            self._service = service
            self._by_key.clear()
            self._unkeyed = set(self._subs)
            for sub in self._subs.values():
                sub.key = None
                sub.last_version = -1

    def expire_idle(self) -> List[str]:
        """Drop subscriptions with no client contact for ``idle_seconds``.

        Returns the expired ids so the caller can wake (and thereby close)
        any parked pollers.  Engine thread only (runs with :meth:`evaluate`).
        """
        if self._idle_seconds is None:
            return []
        cutoff = self._clock() - self._idle_seconds
        with self._lock:
            stale = [s.sub_id for s in self._subs.values() if s.last_seen < cutoff]
            for sub_id in stale:
                self._unindex(self._subs.pop(sub_id))
                self.stats.expired += 1
        return stale

    # --------------------------------------------------- any-thread surface
    def unsubscribe(self, sub_id: str) -> bool:
        """Remove a subscription; ``False`` when the id is unknown."""
        with self._lock:
            if sub_id not in self._subs:
                return False
            self._unindex(self._subs.pop(sub_id))
            self.stats.unsubscribed += 1
            return True

    def poll(self, sub_id: str) -> List[dict]:
        """Drain the subscription's pending messages (may be empty).

        A pending resync is delivered first, as one full-snapshot message
        replacing everything the overflow dropped.  Raises :class:`KeyError`
        for unknown (unsubscribed/expired) ids.  Any thread.
        """
        with self._lock:
            sub = self._subs.get(sub_id)
            if sub is None:
                raise KeyError(sub_id)
            sub.last_seen = self._clock()
            messages: List[dict] = []
            if sub.needs_resync:
                sub.needs_resync = False
                sub.seq += 1
                self.stats.resyncs += 1
                messages.append(self._message(sub, "resync"))
            messages.extend(sub.queue)
            sub.queue.clear()
            self.stats.deltas_delivered += len(messages)
            return messages

    def snapshot(self, sub_id: str) -> dict:
        """The subscription's current full state as a snapshot message."""
        with self._lock:
            sub = self._subs.get(sub_id)
            if sub is None:
                raise KeyError(sub_id)
            return self._message(sub, "snapshot")

    def stats_dict(self) -> Dict[str, float]:
        """JSON-ready stats block for the daemon's ``/stats``."""
        with self._lock:
            payload = asdict(self.stats)
            payload["active"] = len(self._subs)
            payload["queued"] = sum(len(s.queue) for s in self._subs.values())
            payload["backlog"] = self._backlog
            return payload

    # -------------------------------------------------------------- internals
    def _collect_due(self) -> List[Subscription]:
        """Subscriptions whose answer may have changed since last observed.

        One ``component_version`` probe per distinct ``(k, rep)`` bucket —
        the whole keyed population of an untouched component is skipped
        without ever looking at the individual subscriptions.
        """
        engine = self._service.engine
        with self._lock:
            buckets = {
                key: [self._subs[i] for i in ids]
                for key, ids in self._by_key.items()
            }
            unkeyed = [self._subs[i] for i in self._unkeyed]
        due: List[Subscription] = []
        for key, subs in buckets.items():
            version = engine.component_version(*key)
            due.extend(sub for sub in subs if sub.last_version != version)
        for sub in unkeyed:
            if sub.result is None:
                # Still community-less unless the vertex re-entered a
                # k-core; probe the labelling instead of planning.
                try:
                    engine.component_of(sub.vertex, sub.k)
                except NoCommunityError:
                    continue
            due.append(sub)
        return due

    def _answer(self, subs: List[Subscription]) -> List[_Answer]:
        """Answer the standing queries through the service's batch pipeline.

        One :meth:`~repro.service.SACService.submit_batch` per ``(k,
        algorithm, params)`` group — shared-component subscriptions ride one
        plan group, cached answers skip execution, fresh ones are cached.
        Each answer's ``(k, rep)`` key and version are resolved after the
        call; an answer no version guards stays unkeyed.
        """
        engine = self._service.engine
        groups: Dict[Tuple[int, str, ParamsKey], List[Subscription]] = {}
        for sub in subs:
            groups.setdefault((sub.k, sub.algorithm, sub.params_key()), []).append(sub)
        answers: List[_Answer] = []
        for (k, algorithm, _pkey), members in sorted(groups.items()):
            batch = self._service.submit_batch(
                [sub.vertex for sub in members], k, algorithm=algorithm, **members[0].params
            )
            self.stats.groups_executed += batch.plan_groups
            for sub in members:
                result = batch.results.get(sub.vertex)
                key, version = None, -1
                if result is not None and versioned(k):
                    representative, version = component_stamp(engine, sub.vertex, k)
                    key = (k, representative)
                answers.append((sub, result, key, version))
        return answers

    def _install(
        self,
        sub: Subscription,
        result: Optional[SACResult],
        key: Optional[Tuple[int, int]],
        version: int,
        lsn: Optional[int],
    ) -> bool:
        """Install a re-evaluated answer; queue a delta if it changed.

        Caller holds the lock.  Returns ``True`` when the subscription now
        has a deliverable message (new delta or overflow-triggered resync).
        """
        previous = sub.result
        self._unindex(sub)
        sub.result, sub.key, sub.last_version = result, key, version
        self._index(sub)
        if lsn is not None:
            sub.lsn = lsn
        if _observable(result) == _observable(previous):
            self.stats.suppressed += 1
            return bool(sub.queue) or sub.needs_resync
        if sub.needs_resync:
            # Already in resync mode: the eventual snapshot covers this
            # change too, nothing further to queue.
            return True
        if len(sub.queue) >= self._backlog:
            sub.queue.clear()
            sub.needs_resync = True
            self.stats.overflows += 1
            return True
        sub.seq += 1
        sub.queue.append(self._message(sub, "delta", previous))
        self.stats.deltas_queued += 1
        return True

    def _message(
        self, sub: Subscription, kind: str, previous: Optional[SACResult] = None
    ) -> dict:
        """One wire message: a full-state ``snapshot``/``resync``, or a ``delta``
        listing the members added and removed since ``previous``.  Lock held."""
        graph = self._service.graph
        result = sub.result
        found = result is not None
        members = result.members.array if found else _NO_MEMBERS
        center = result.circle.center if found else None
        message = {
            "type": kind,
            "id": sub.sub_id,
            "seq": sub.seq,
            "found": found,
            "query": graph.label_of(sub.vertex),
            "k": sub.k,
            "size": int(members.size),
            "radius": float(result.radius) if found else None,
            "center": [float(center.x), float(center.y)] if found else None,
            "algorithm_used": result.algorithm if found else None,
            "bound": approximation_bound(
                result.algorithm, params_for(result.algorithm, dict(sub.params))
            )
            if found
            else None,
            "version": sub.last_version,
            "lsn": sub.lsn,
        }
        if kind == "delta":
            before = previous.members.array if previous is not None else _NO_MEMBERS
            added = np.setdiff1d(members, before, assume_unique=True)
            removed = np.setdiff1d(before, members, assume_unique=True)
            message["added"] = graph.labels_of(added)
            message["removed"] = graph.labels_of(removed)
        else:
            message["algorithm"] = sub.algorithm
            message["members"] = graph.labels_of(members)
        return message

    def _index(self, sub: Subscription) -> None:
        """File the subscription under its ``(k, rep)`` key.  Lock held."""
        if sub.key is None:
            self._unkeyed.add(sub.sub_id)
        else:
            self._by_key.setdefault(sub.key, set()).add(sub.sub_id)

    def _unindex(self, sub: Subscription) -> None:
        """Take the subscription out of whichever index holds it.  Lock held."""
        bucket = self._unkeyed if sub.key is None else self._by_key.get(sub.key, set())
        bucket.discard(sub.sub_id)
        if sub.key is not None and not bucket:
            self._by_key.pop(sub.key, None)
