"""Replaying check-in streams over a static friendship graph."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import InvalidParameterError
from repro.graph.io import Checkin
from repro.graph.spatial_graph import SpatialGraph


class LocationStream:
    """Replay a chronologically ordered check-in stream.

    The stream maintains, for every user, their *latest* check-in location.
    ``snapshot()`` materialises a :class:`SpatialGraph` with the current
    locations (adjacency is shared with the base graph, so snapshots are
    cheap apart from the coordinate copy).

    Parameters
    ----------
    graph:
        The friendship graph whose vertex coordinates provide the initial
        locations (the paper uses each user's most frequent check-in).
    checkins:
        Check-in records; they are sorted by timestamp internally.
    """

    def __init__(self, graph: SpatialGraph, checkins: Sequence[Checkin]) -> None:
        self.graph = graph
        self._checkins: List[Checkin] = sorted(checkins, key=lambda record: record.timestamp)
        self._cursor = 0
        self._current_locations: Dict[int, Tuple[float, float]] = {}

    @property
    def checkins(self) -> List[Checkin]:
        """The full, chronologically sorted check-in list."""
        return list(self._checkins)

    @property
    def current_time(self) -> Optional[float]:
        """Timestamp of the last applied check-in (``None`` before replay starts)."""
        if self._cursor == 0:
            return None
        return self._checkins[self._cursor - 1].timestamp

    def advance_to(self, timestamp: float) -> List[Checkin]:
        """Apply every check-in with time ≤ ``timestamp``; return those applied."""
        applied: List[Checkin] = []
        while self._cursor < len(self._checkins) and self._checkins[self._cursor].timestamp <= timestamp:
            record = self._checkins[self._cursor]
            self._current_locations[record.user] = (record.x, record.y)
            applied.append(record)
            self._cursor += 1
        return applied

    def replay(self) -> Iterator[Checkin]:
        """Iterate over the remaining check-ins, applying each before yielding it."""
        while self._cursor < len(self._checkins):
            record = self._checkins[self._cursor]
            self._current_locations[record.user] = (record.x, record.y)
            self._cursor += 1
            yield record

    def reset(self) -> None:
        """Rewind the stream to the beginning and forget applied locations."""
        self._cursor = 0
        self._current_locations.clear()

    @property
    def current_locations(self) -> Dict[int, Tuple[float, float]]:
        """Locations already applied by the replay so far, as ``user -> (x, y)``.

        A copy of the internal map; users still at their base location are
        absent.  This is what :class:`repro.dynamic.SACTracker` feeds into a
        caller-supplied engine so a pre-advanced stream replays identically
        to :func:`repro.testing.oracle.oracle_timelines`.
        """
        return dict(self._current_locations)

    def location_of(self, user: int) -> Tuple[float, float]:
        """Current location of ``user`` (their latest check-in, else their base location)."""
        if user in self._current_locations:
            return self._current_locations[user]
        return self.graph.position(user)

    def snapshot(self) -> SpatialGraph:
        """Materialise a graph whose coordinates reflect the current locations."""
        if not self._current_locations:
            return self.graph
        return self.graph.with_updated_locations(self._current_locations)

    def split_by_time(self, cutoff: float) -> Tuple[List[Checkin], List[Checkin]]:
        """Split the check-ins into (before-or-at cutoff, after cutoff) groups.

        Mirrors the paper's R1/R2 split (records before 2010 versus the rest).
        """
        before = [record for record in self._checkins if record.timestamp <= cutoff]
        after = [record for record in self._checkins if record.timestamp > cutoff]
        return before, after
