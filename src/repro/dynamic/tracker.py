"""Tracking a user's SAC over time as their location changes.

The replay binds a :class:`repro.service.SACService` to an
:class:`repro.engine.IncrementalEngine` over a private mutable copy of the
graph, feeds every check-in through
:meth:`~repro.service.SACService.apply_checkin`, and answers each tracked
user's query through the service — the core decomposition, k-ĉore
labellings, and per-component artifacts are built once and merely *patched*
as locations move, and the service's answer cache serves repeat queries
whose component no intervening check-in touched.  The naive baseline, which
materialises a coordinate snapshot and runs the algorithm from scratch at
every tracked check-in, is the reference oracle
:func:`repro.testing.oracle.oracle_timelines`; the two return bit-identical
timelines, and ``benchmarks/bench_incremental_dynamic.py`` measures the gap
between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.core.searcher import ALGORITHMS
from repro.dynamic.stream import LocationStream
from repro.engine import IncrementalEngine
from repro.exceptions import InvalidParameterError, NoCommunityError
from repro.geometry.circle import Circle
from repro.service import SACService


@dataclass(frozen=True)
class CommunitySnapshot:
    """One entry of a user's community timeline.

    Attributes
    ----------
    timestamp:
        Time of the check-in that triggered the query.
    members:
        Community member set found at that time (empty when no community
        existed).
    circle:
        MCC of the community (zero circle when the community is empty).
    """

    timestamp: float
    members: FrozenSet[int]
    circle: Circle

    @property
    def found(self) -> bool:
        """Whether a community existed at this snapshot."""
        return bool(self.members)


class SACTracker:
    """Re-run SAC search for selected users every time they check in.

    Parameters
    ----------
    stream:
        The location stream to replay.
    k:
        Minimum-degree threshold used for every query.
    algorithm:
        Name of the SAC algorithm to use (paper uses ``Exact+``; the default
        here is ``appfast`` which keeps large replays fast — pass
        ``"exact+"`` to follow the paper exactly).
    algorithm_params:
        Extra keyword arguments for the algorithm (e.g. ``epsilon_a``).
    engine:
        Optional pre-built :class:`~repro.engine.IncrementalEngine` to replay
        on — typically warm-started from a snapshot via
        :meth:`IncrementalEngine.from_store <repro.engine.QueryEngine.from_store>`,
        which is how the CLI's ``track --store`` skips the cold build.  The
        engine must be bound to a graph of the stream's shape; the replay
        takes ownership and mutates it.

    Attributes
    ----------
    last_engine:
        The :class:`~repro.engine.IncrementalEngine` used by the most recent
        :meth:`track` call (``None`` before the first call); its ``stats``
        expose the cache-repair counters.
    last_service:
        The :class:`~repro.service.SACService` wrapping that engine for the
        most recent replay; its :meth:`~repro.service.SACService.stats`
        expose the answer-cache hit/invalidation counters alongside the
        engine's.
    """

    def __init__(
        self,
        stream: LocationStream,
        k: int,
        *,
        algorithm: str = "appfast",
        algorithm_params: Optional[Dict[str, float]] = None,
        engine: Optional[IncrementalEngine] = None,
    ) -> None:
        if algorithm not in ALGORITHMS:
            raise InvalidParameterError(
                f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
            )
        if engine is not None and (
            engine.graph.num_vertices != stream.graph.num_vertices
            or engine.graph.num_edges != stream.graph.num_edges
        ):
            raise InvalidParameterError(
                f"engine graph has {engine.graph.num_vertices} vertices / "
                f"{engine.graph.num_edges} edges but the stream graph has "
                f"{stream.graph.num_vertices} / {stream.graph.num_edges}"
            )
        self.stream = stream
        self.k = k
        self.algorithm = algorithm
        self.algorithm_params = dict(algorithm_params or {})
        self.engine = engine
        self.last_engine: Optional[IncrementalEngine] = None
        self.last_service: Optional[SACService] = None

    def track(self, users: Sequence[int]) -> Dict[int, List[CommunitySnapshot]]:
        """Replay the stream and return each tracked user's community timeline.

        For every check-in made by a tracked user, the SAC query is executed
        for that user at the post-check-in locations.  Non-tracked check-ins
        still move their user (they change everyone's candidate geometry) but
        trigger no query.
        """
        tracked = set(int(user) for user in users)
        timelines: Dict[int, List[CommunitySnapshot]] = {user: [] for user in tracked}
        if self.engine is not None:
            work_engine = self.engine
            # A pre-advanced stream (advance_to) has locations the engine's
            # graph does not reflect yet; apply them so the replay starts
            # from the stream's current coordinates.
            for user, (x, y) in self.stream.current_locations.items():
                work_engine.apply_checkin(user, x, y)
        else:
            work_engine = IncrementalEngine(self.stream.snapshot().mutable_copy())
        # Check-ins and queries both flow through one service, so the
        # engine's artifact repair and the answer cache's component-version
        # invalidation stay in lockstep: a tracked user's own check-in bumps
        # their component and forces a fresh answer, while queries untouched
        # by intervening moves are served from the cache bit-identically.
        service = SACService(engine=work_engine)
        self.last_engine = service.engine
        self.last_service = service
        for record in self.stream.replay():
            service.apply_checkin(record.user, record.x, record.y)
            if record.user not in tracked:
                continue
            try:
                result = service.search(
                    record.user, self.k, algorithm=self.algorithm, **self.algorithm_params
                )
                members, circle = result.members, result.circle
            except NoCommunityError:
                members = frozenset()
                circle = Circle.from_xy(record.x, record.y, 0.0)
            timelines[record.user].append(
                CommunitySnapshot(timestamp=record.timestamp, members=members, circle=circle)
            )
        return timelines
