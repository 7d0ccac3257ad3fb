"""Dynamic spatial graphs: location streams and SAC tracking.

Section 5.2.3 of the paper replays a check-in stream over the Brightkite
graph, updating user locations as check-ins arrive, and re-runs SAC search
for a set of highly mobile query users at each of their check-ins.  The
resulting community sequences are compared with the CJS and CAO metrics as a
function of the time gap between snapshots (Figure 13).

* :class:`~repro.dynamic.stream.LocationStream` — replays check-ins and
  maintains the current location of every user;
* :class:`~repro.dynamic.tracker.SACTracker` — re-queries a user's SAC at
  each of their check-ins and records the community timeline; the replay
  runs on a single :class:`repro.engine.IncrementalEngine` whose caches
  survive every location update (the rebuild-per-check-in baseline is the
  reference oracle :func:`repro.testing.oracle.oracle_timelines`);
* :func:`~repro.dynamic.evaluation.overlap_vs_time_gap` — aggregates CJS/CAO
  against the time-gap threshold η, reproducing Figure 13.
"""

from repro.dynamic.evaluation import OverlapPoint, overlap_vs_time_gap, select_mobile_queries
from repro.dynamic.stream import LocationStream
from repro.dynamic.tracker import CommunitySnapshot, SACTracker

__all__ = [
    "LocationStream",
    "SACTracker",
    "CommunitySnapshot",
    "overlap_vs_time_gap",
    "select_mobile_queries",
    "OverlapPoint",
]
