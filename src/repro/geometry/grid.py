"""Uniform grid spatial index.

Every SAC algorithm repeatedly needs the set of candidate vertices inside a
query circle ``O(p, r)`` (AppFast's binary search, AppAcc's anchor probes,
Exact+'s annular filters).  A uniform grid over the data's bounding box gives
near output-sensitive circular range queries without any third-party spatial
library, and supports incremental nearest-neighbour scans used by ``AppInc``.

Storage is array-based: point indices are kept sorted by flattened cell id
next to a per-cell offset table, so a circular query is one gather over the
cells of the bounding rectangle plus one vectorised distance filter — no
Python-level loop over points.  This is the same CSR-style layout the graph
kernel uses (:attr:`repro.graph.SpatialGraph.csr`), applied to space instead
of adjacency.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np


class GridIndex:
    """A uniform grid over a set of 2-D points.

    The point *count* is fixed at construction, but individual points may be
    relocated afterwards through :meth:`move_point`, which repairs the bucket
    layout in place — the primitive behind the incremental location updates
    of :class:`repro.engine.IncrementalEngine`.  Grid geometry (origin, cell
    size, column/row counts) is frozen at construction; points that move
    outside the original bounding box are clamped into the edge cells, which
    keeps every range query exact because the final distance filter always
    re-checks true coordinates.

    Parameters
    ----------
    coordinates:
        ``(n, 2)`` array of point coordinates.  The index refers to points by
        their row index.  When a float64 ``(n, 2)`` array is passed it is
        *shared*, not copied, so :meth:`move_point` updates the caller's
        array as well.
    cell_size:
        Side length of each grid cell.  When omitted, a heuristic of
        ``extent / sqrt(n)`` is used, which keeps the expected number of
        points per cell constant.
    """

    def __init__(
        self,
        coordinates: np.ndarray | Sequence[Tuple[float, float]],
        cell_size: float | None = None,
    ) -> None:
        coords = np.asarray(coordinates, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError("coordinates must be an (n, 2) array")
        if coords.shape[0] == 0:
            raise ValueError("GridIndex requires at least one point")
        self._coords = coords
        self._min_x = float(coords[:, 0].min())
        self._min_y = float(coords[:, 1].min())
        max_x = float(coords[:, 0].max())
        max_y = float(coords[:, 1].max())
        extent = max(max_x - self._min_x, max_y - self._min_y)
        if cell_size is None:
            cell_size = extent / max(1.0, math.sqrt(coords.shape[0]))
        if cell_size <= 1e-12:
            # Degenerate extents (all points nearly identical) would otherwise
            # produce astronomically many conceptual cells and misplace points
            # whose separation underflows; a single cell is always correct.
            cell_size = 1.0
        self._cell = float(cell_size)
        # The offset table is dense (cols * rows + 1 entries), so cap the
        # cell count relative to the point count: a caller-supplied cell
        # size far below the data extent would otherwise request an
        # astronomically large allocation.  Coarsening cells never affects
        # correctness, only per-query filter cost.
        max_cells = max(4 * coords.shape[0], 1024)
        while True:
            self._cols = max(1, int(math.floor((max_x - self._min_x) / self._cell)) + 1)
            self._rows = max(1, int(math.floor((max_y - self._min_y) / self._cell)) + 1)
            if self._cols * self._rows <= max_cells:
                break
            self._cell *= 2.0
        cols = np.clip(((coords[:, 0] - self._min_x) / self._cell).astype(np.int64), 0, self._cols - 1)
        rows = np.clip(((coords[:, 1] - self._min_y) / self._cell).astype(np.int64), 0, self._rows - 1)
        cell_ids = cols * self._rows + rows
        # Points sorted by cell id (stable, so ascending index within a cell)
        # plus a per-cell offset table: the bucket of cell c is
        # order[starts[c]:starts[c + 1]].
        self._order = np.argsort(cell_ids, kind="stable").astype(np.int64)
        counts = np.bincount(cell_ids, minlength=self._cols * self._rows)
        self._starts = np.zeros(self._cols * self._rows + 1, dtype=np.int64)
        np.cumsum(counts, out=self._starts[1:])

    @property
    def cell_size(self) -> float:
        """Side length of each grid cell."""
        return self._cell

    # ------------------------------------------------------- state snapshot
    def export_state(self) -> dict:
        """Return the index's full internal state as plain scalars and arrays.

        The returned ``order``/``starts`` arrays are the live internals, not
        copies — callers that persist or share them must treat them as
        read-only.  Together with the (shared) coordinate matrix the state
        reconstructs an identical index via :meth:`from_state`, which is how
        :mod:`repro.store` snapshots per-bundle grids without rebuilding
        them.
        """
        return {
            "min_x": self._min_x,
            "min_y": self._min_y,
            "cell": self._cell,
            "cols": self._cols,
            "rows": self._rows,
            "order": self._order,
            "starts": self._starts,
        }

    @classmethod
    def from_state(cls, coordinates: np.ndarray, state: dict) -> "GridIndex":
        """Rebuild an index from :meth:`export_state` output without re-sorting.

        ``coordinates`` must hold exactly the point values the state was
        exported against (the bucket layout encodes their cell assignment);
        the array is shared, not copied, exactly like the constructor.  The
        state arrays are adopted as-is — pass copies when the caller intends
        to call :meth:`move_point` on read-only (e.g. memory-mapped) state.
        """
        coords = np.asarray(coordinates, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError("coordinates must be an (n, 2) array")
        grid = cls.__new__(cls)
        grid._coords = coords
        grid._min_x = float(state["min_x"])
        grid._min_y = float(state["min_y"])
        grid._cell = float(state["cell"])
        grid._cols = int(state["cols"])
        grid._rows = int(state["rows"])
        grid._order = np.asarray(state["order"], dtype=np.int64)
        grid._starts = np.asarray(state["starts"], dtype=np.int64)
        if grid._cell <= 0 or grid._cols < 1 or grid._rows < 1:
            raise ValueError("grid state has degenerate geometry")
        if grid._order.shape != (coords.shape[0],):
            raise ValueError(
                f"grid order has {grid._order.size} entries for {coords.shape[0]} points"
            )
        if grid._starts.shape != (grid._cols * grid._rows + 1,):
            raise ValueError(
                f"grid starts has {grid._starts.size} entries for "
                f"{grid._cols}x{grid._rows} cells"
            )
        return grid

    def rebind(self, coordinates: np.ndarray) -> None:
        """Swap the backing coordinate array for an equal-valued replacement.

        Used by :meth:`repro.graph.SpatialGraph.update_location` when it
        thaws a read-only (memory-mapped) coordinate matrix into a writable
        copy: the bucket layout depends only on the point values, which are
        unchanged, so only the array reference needs to move.
        """
        coords = np.asarray(coordinates, dtype=np.float64)
        if coords.shape != self._coords.shape:
            raise ValueError(
                f"replacement coordinates have shape {coords.shape}, "
                f"expected {self._coords.shape}"
            )
        self._coords = coords

    @property
    def size(self) -> int:
        """Number of indexed points."""
        return int(self._coords.shape[0])

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        col = int((x - self._min_x) / self._cell)
        row = int((y - self._min_y) / self._cell)
        return (min(max(col, 0), self._cols - 1), min(max(row, 0), self._rows - 1))

    def _bucket(self, col: int, row: int) -> np.ndarray:
        """Point indices stored in cell ``(col, row)`` (ascending)."""
        cell = col * self._rows + row
        return self._order[self._starts[cell] : self._starts[cell + 1]]

    def _points_in_rect(self, col_lo: int, col_hi: int, row_lo: int, row_hi: int) -> np.ndarray:
        """Concatenated point indices of all cells in the inclusive rectangle."""
        cols = np.arange(col_lo, col_hi + 1, dtype=np.int64)
        rows = np.arange(row_lo, row_hi + 1, dtype=np.int64)
        cells = (cols[:, None] * self._rows + rows[None, :]).ravel()
        starts = self._starts[cells]
        counts = self._starts[cells + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.zeros(0, dtype=np.int64)
        ends = np.cumsum(counts)
        flat = np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - counts), counts)
        return self._order[flat]

    def move_point(self, index: int, x: float, y: float) -> None:
        """Relocate point ``index`` to ``(x, y)``, repairing the index in place.

        The coordinate row is overwritten (mutating the array shared with the
        caller) and, when the point changes grid cell, it is spliced out of
        its old bucket and into the new one.  Buckets keep their ascending
        point-index order, so :meth:`query_circle_array` and friends behave
        exactly as on a freshly built index over the same coordinates.  Cost
        is one ``O(n)`` memmove of the order array in the worst case — far
        below a full rebuild, which also re-sorts and re-buckets every point.
        """
        if not 0 <= index < self._coords.shape[0]:
            raise IndexError(f"point index {index} out of range")
        old_col, old_row = self._cell_of(
            float(self._coords[index, 0]), float(self._coords[index, 1])
        )
        self._coords[index, 0] = float(x)
        self._coords[index, 1] = float(y)
        new_col, new_row = self._cell_of(float(x), float(y))
        old_cell = old_col * self._rows + old_row
        new_cell = new_col * self._rows + new_row
        if old_cell == new_cell:
            return
        # Positions computed against the *original* order array: the point's
        # slot inside each (ascending) bucket is found by binary search.  The
        # element then slides from one slot to the other with a single
        # overlapping slice shift — no reallocation, so a move costs a
        # memmove of the span between the two cells.
        order = self._order
        old_bucket = order[self._starts[old_cell] : self._starts[old_cell + 1]]
        delete_at = int(self._starts[old_cell] + np.searchsorted(old_bucket, index))
        new_bucket = order[self._starts[new_cell] : self._starts[new_cell + 1]]
        insert_at = int(self._starts[new_cell] + np.searchsorted(new_bucket, index))
        if new_cell > old_cell:
            order[delete_at : insert_at - 1] = order[delete_at + 1 : insert_at]
            order[insert_at - 1] = index
            self._starts[old_cell + 1 : new_cell + 1] -= 1
        else:
            order[insert_at + 1 : delete_at + 1] = order[insert_at:delete_at]
            order[insert_at] = index
            self._starts[new_cell + 1 : old_cell + 1] += 1

    def query_circle_array(self, x: float, y: float, radius: float) -> np.ndarray:
        """As :meth:`query_circle` but returning an int64 array (hot path)."""
        if radius < 0:
            return np.zeros(0, dtype=np.int64)
        # Clamp both corners of the circle's bounding square into the grid.
        # Clamping (rather than discarding out-of-range cells) keeps boundary
        # cases correct when the query point sits marginally outside the
        # indexed bounding box.
        col_lo, row_lo = self._cell_of(x - radius, y - radius)
        col_hi, row_hi = self._cell_of(x + radius, y + radius)
        candidates = self._points_in_rect(col_lo, col_hi, row_lo, row_hi)
        if candidates.size == 0:
            return candidates
        dx = self._coords[candidates, 0] - x
        dy = self._coords[candidates, 1] - y
        limit = radius * radius + 1e-18
        return candidates[dx * dx + dy * dy <= limit]

    def query_circle(self, x: float, y: float, radius: float) -> List[int]:
        """Return indices of all points within distance ``radius`` of ``(x, y)``."""
        return self.query_circle_array(x, y, radius).tolist()

    def query_annulus_array(
        self, x: float, y: float, inner_radius: float, outer_radius: float
    ) -> np.ndarray:
        """As :meth:`query_annulus` but returning an int64 array (hot path)."""
        if outer_radius < 0 or outer_radius < inner_radius:
            return np.zeros(0, dtype=np.int64)
        candidates = self.query_circle_array(x, y, outer_radius)
        if candidates.size == 0:
            return candidates
        inner_sq = max(0.0, inner_radius) ** 2 - 1e-18
        dx = self._coords[candidates, 0] - x
        dy = self._coords[candidates, 1] - y
        return candidates[dx * dx + dy * dy >= inner_sq]

    def query_annulus(
        self, x: float, y: float, inner_radius: float, outer_radius: float
    ) -> List[int]:
        """Return indices of points with ``inner_radius <= dist <= outer_radius``."""
        return self.query_annulus_array(x, y, inner_radius, outer_radius).tolist()

    def nearest(self, x: float, y: float, count: int = 1, exclude: set[int] | None = None) -> List[int]:
        """Return the ``count`` nearest point indices to ``(x, y)``.

        The scan expands ring by ring over grid cells, so the cost is close to
        proportional to the number of points returned for uniform data.
        """
        if count <= 0:
            return []
        exclude = exclude or set()
        coords = self._coords
        best: list[tuple[float, int]] = []
        center_col, center_row = self._cell_of(x, y)
        max_ring = max(self._cols, self._rows)

        def _collect(ring: int) -> bool:
            found = False
            for col, row in self._ring_cells(center_col, center_row, ring):
                bucket = self._bucket(col, row)
                if bucket.size == 0:
                    continue
                found = True
                for idx in bucket:
                    idx = int(idx)
                    if idx in exclude:
                        continue
                    dx = coords[idx, 0] - x
                    dy = coords[idx, 1] - y
                    best.append((dx * dx + dy * dy, idx))
            return found

        for ring in range(max_ring + 1):
            found_any = _collect(ring)
            if len(best) >= count:
                # One extra ring guards against a closer point in the next
                # ring whose cell corner is nearer than found points.
                _collect(ring + 1)
                break
            if ring == max_ring and not found_any and best:
                break
        best.sort()
        return [idx for _, idx in best[:count]]

    def _ring_cells(self, center_col: int, center_row: int, ring: int) -> Iterator[tuple[int, int]]:
        """Yield the cells at Chebyshev distance ``ring`` from the centre cell."""
        if ring == 0:
            if 0 <= center_col < self._cols and 0 <= center_row < self._rows:
                yield (center_col, center_row)
            return
        col_lo = center_col - ring
        col_hi = center_col + ring
        row_lo = center_row - ring
        row_hi = center_row + ring
        for col in range(col_lo, col_hi + 1):
            for row in (row_lo, row_hi):
                if 0 <= col < self._cols and 0 <= row < self._rows:
                    yield (col, row)
        for row in range(row_lo + 1, row_hi):
            for col in (col_lo, col_hi):
                if 0 <= col < self._cols and 0 <= row < self._rows:
                    yield (col, row)

    def iter_distances_ascending(
        self, x: float, y: float, candidates: Iterable[int] | None = None
    ) -> List[tuple[float, int]]:
        """Return ``(distance, index)`` pairs sorted by ascending distance.

        When ``candidates`` is given only those indices are considered; this
        is used by the SAC algorithms to sort the vertices of a k-ĉore by
        their distance from the query vertex.
        """
        coords = self._coords
        if candidates is None:
            indices = np.arange(coords.shape[0], dtype=np.int64)
        else:
            indices = np.asarray(list(candidates), dtype=np.int64)
        if indices.size == 0:
            return []
        distances = np.hypot(coords[indices, 0] - x, coords[indices, 1] - y)
        pairs = [(float(d), int(i)) for d, i in zip(distances, indices)]
        pairs.sort()
        return pairs


class CircleScan:
    """The points of one :meth:`GridIndex.query_circle_array` call, nearest first.

    A search that shrinks a circle around a fixed centre (AppAcc's anchor
    binary search) asks the grid the same question at many radii.  The scan
    makes one grid query at the largest radius; the first time a smaller
    radius is asked for, it sorts those points by the squared distance the
    grid itself tests, and the answer at any smaller radius is then a prefix
    of that order, found by bisection.

    The prefix is exact, not approximate.  ``query_circle_array(x, y, r)``
    keeps the points of the cells covering ``[x - r, x + r] × [y - r, y + r]``
    whose squared offset is at most ``r * r + 1e-18``.  Both conditions only
    tighten as ``r`` shrinks, so the smaller answer is a subset of the scan,
    and the squared-offset condition alone selects the prefix.  A point whose
    offsets along both axes are below ``r`` lies in a covered cell (rounding
    is monotone, so ``x - r`` rounds to at most its coordinate), so a prefix
    whose largest axis offset is below ``r`` is the grid's answer;
    :meth:`prefix_length` reports every other case, which needs an offset
    within rounding of ``r`` itself, as "not a prefix".
    """

    __slots__ = ("radius", "indices", "_grid", "_x", "_y", "_squared", "_extent")

    def __init__(self, grid: GridIndex, x: float, y: float, radius: float) -> None:
        self.radius = radius
        #: The grid's answer at ``radius``; nearest first once a smaller
        #: radius has been asked for.
        self.indices = grid.query_circle_array(x, y, radius)
        self._grid = grid
        self._x = x
        self._y = y
        self._squared: List[float] = []
        self._extent: List[float] = []

    def prefix_length(self, radius: float) -> int:
        """How many leading :attr:`indices` ``query_circle_array(x, y, radius)`` returns.

        ``-1`` when its answer is not known to be such a prefix: ``radius``
        above the scan's, or a point of the prefix lying within rounding of
        the edge of the cells the smaller query covers.
        """
        if radius >= self.radius:
            return self.indices.size if radius == self.radius else -1
        if radius < 0:
            return 0
        if self.indices.size and not self._squared:
            self._sort()
        count = bisect.bisect_right(self._squared, radius * radius + 1e-18)
        if count and self._extent[count - 1] >= radius:
            return -1
        return count

    def _sort(self) -> None:
        """Order :attr:`indices` by the squared distance the grid tests."""
        coords = self._grid._coords
        dx = coords[self.indices, 0] - self._x
        dy = coords[self.indices, 1] - self._y
        squared = dx * dx + dy * dy
        order = np.argsort(squared, kind="stable")
        self.indices = self.indices[order]
        self._squared = squared[order].tolist()
        extent = np.maximum(np.abs(dx), np.abs(dy))[order]
        self._extent = np.maximum.accumulate(extent).tolist()
