"""Tests for the incremental engine: graph mutation, core repair, bit-identity.

The load-bearing guarantee of :class:`repro.engine.IncrementalEngine` is that
a randomised interleaving of check-ins, edge insertions/deletions, and SAC
queries produces results **bit-identical** to tearing everything down and
rebuilding a fresh engine on the mutated graph after every update.  The
hypothesis property test at the bottom enforces exactly that; the earlier
classes pin down the layers it is built from (grid point moves, CSR edge
splicing, subcore-confined core maintenance, cache invalidation).
"""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.geosocial import CheckinGenerator, TravelProfile, brightkite_like
from repro.dynamic.evaluation import select_mobile_queries
from repro.dynamic.stream import LocationStream
from repro.dynamic.tracker import SACTracker
from repro.engine import IncrementalEngine, QueryEngine
from repro.exceptions import GraphConstructionError, NoCommunityError
from repro.geometry.grid import GridIndex
from repro.graph.builder import GraphBuilder
from repro.kcore.decomposition import core_numbers
from repro.kcore.maintenance import demote_after_delete, promote_after_insert
from repro.testing.oracle import oracle_timelines
from repro.testing.strategies import random_spatial_graph as _random_graph


class TestGridMovePoint:
    def test_moved_point_found_at_new_location(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(0.0, 1.0, size=(120, 2))
        grid = GridIndex(points.copy())
        grid.move_point(7, 0.25, 0.75)
        assert 7 in grid.query_circle(0.25, 0.75, 1e-9)

    def test_queries_match_brute_force_after_many_moves(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(0.0, 1.0, size=(150, 2))
        grid = GridIndex(points)
        for _ in range(400):
            index = int(rng.integers(0, points.shape[0]))
            x, y = rng.uniform(-0.3, 1.3, size=2)
            grid.move_point(index, float(x), float(y))
        for _ in range(30):
            cx, cy = rng.uniform(0.0, 1.0, size=2)
            radius = float(rng.uniform(0.0, 0.6))
            hits = set(grid.query_circle(float(cx), float(cy), radius))
            squared = (points[:, 0] - cx) ** 2 + (points[:, 1] - cy) ** 2
            brute = set(np.flatnonzero(squared <= radius * radius + 1e-18).tolist())
            assert hits == brute

    def test_bucket_invariants_survive_moves(self):
        rng = np.random.default_rng(2)
        points = rng.uniform(0.0, 1.0, size=(64, 2))
        grid = GridIndex(points)
        for _ in range(200):
            grid.move_point(int(rng.integers(0, 64)), *map(float, rng.uniform(0, 1, 2)))
        assert np.array_equal(np.sort(grid._order), np.arange(64))
        assert int(grid._starts[-1]) == 64

    def test_out_of_range_index_rejected(self):
        grid = GridIndex(np.zeros((3, 2)) + 0.5)
        with pytest.raises(IndexError):
            grid.move_point(3, 0.0, 0.0)


class TestGraphMutation:
    def test_add_remove_edge_matches_rebuilt_graph(self):
        rng = np.random.default_rng(3)
        graph, edges = _random_graph(rng, 40, 100)
        _ = graph.csr  # force the CSR so splicing exercises the hot path
        for _ in range(120):
            if edges and rng.random() < 0.5:
                edge = sorted(edges)[int(rng.integers(0, len(edges)))]
                edges.remove(edge)
                graph.remove_edge(*edge)
            else:
                while True:
                    u, v = (int(a) for a in rng.integers(0, 40, size=2))
                    if u != v and (min(u, v), max(u, v)) not in edges:
                        break
                edges.add((min(u, v), max(u, v)))
                graph.add_edge(u, v)
        builder = GraphBuilder()
        for v in range(40):
            builder.add_vertex(v, *graph.position(v))
        builder.add_edges(sorted(edges))
        reference = builder.build()
        assert np.array_equal(graph.csr[0], reference.csr[0])
        assert np.array_equal(graph.csr[1], reference.csr[1])
        assert np.array_equal(graph.degrees, reference.degrees)
        assert graph.num_edges == reference.num_edges

    def test_edge_mutation_does_not_corrupt_snapshots(self):
        rng = np.random.default_rng(4)
        graph, _ = _random_graph(rng, 20, 40)
        snapshot = graph.with_updated_locations({0: (0.5, 0.5)})
        before_indptr, before_indices = (arr.copy() for arr in snapshot.csr)
        graph.add_edge(0, 10) if not graph.has_edge(0, 10) else graph.remove_edge(0, 10)
        assert np.array_equal(snapshot.csr[0], before_indptr)
        assert np.array_equal(snapshot.csr[1], before_indices)

    def test_invalid_mutations_rejected(self):
        rng = np.random.default_rng(5)
        graph, edges = _random_graph(rng, 10, 15)
        existing = next(iter(edges))
        with pytest.raises(GraphConstructionError):
            graph.add_edge(*existing)
        with pytest.raises(GraphConstructionError):
            graph.add_edge(3, 3)
        missing = next(
            (u, v) for u in range(10) for v in range(u + 1, 10) if (u, v) not in edges
        )
        with pytest.raises(GraphConstructionError):
            graph.remove_edge(*missing)

    def test_update_location_moves_vertex_and_grid(self):
        rng = np.random.default_rng(6)
        graph, _ = _random_graph(rng, 15, 25)
        _ = graph.grid  # build the index so the update must repair it
        graph.update_location(4, 3.0, -2.0)
        assert graph.position(4) == (3.0, -2.0)
        assert 4 in graph.vertices_within(3.0, -2.0, 1e-9)

    def test_mutable_copy_isolates_coordinates(self):
        rng = np.random.default_rng(7)
        graph, _ = _random_graph(rng, 12, 20)
        copy = graph.mutable_copy()
        copy.update_location(3, 9.0, 9.0)
        assert graph.position(3) != (9.0, 9.0)
        assert copy.position(3) == (9.0, 9.0)


class TestCoreMaintenance:
    def test_random_update_sequence_matches_full_recompute(self):
        rng = np.random.default_rng(8)
        graph, edges = _random_graph(rng, 50, 130)
        core = core_numbers(graph)
        for _ in range(250):
            if edges and rng.random() < 0.5:
                edge = sorted(edges)[int(rng.integers(0, len(edges)))]
                edges.remove(edge)
                graph.remove_edge(*edge)
                demote_after_delete(*graph.csr, core, *edge)
            else:
                while True:
                    u, v = (int(a) for a in rng.integers(0, 50, size=2))
                    if u != v and (min(u, v), max(u, v)) not in edges:
                        break
                edges.add((min(u, v), max(u, v)))
                graph.add_edge(u, v)
                promote_after_insert(*graph.csr, core, u, v)
            assert np.array_equal(core, core_numbers(graph))

    def test_promotion_reports_exactly_the_changed_vertices(self):
        # A 4-cycle is a 2-core; adding one chord cannot promote anything,
        # but completing the clique promotes all four vertices to core 3.
        builder = GraphBuilder()
        for v in range(4):
            builder.add_vertex(v, float(v), 0.0)
        builder.add_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        graph = builder.build()
        core = core_numbers(graph)
        graph.add_edge(0, 2)
        assert promote_after_insert(*graph.csr, core, 0, 2).size == 0
        graph.add_edge(1, 3)
        promoted = promote_after_insert(*graph.csr, core, 1, 3)
        assert sorted(promoted.tolist()) == [0, 1, 2, 3]
        assert np.array_equal(core, np.full(4, 3))


def _assert_same_result(first, second, context):
    assert (first is None) == (second is None), context
    if first is not None:
        assert first.members == second.members, context
        assert first.circle.radius == second.circle.radius, context
        assert first.circle.center.x == second.circle.center.x, context
        assert first.circle.center.y == second.circle.center.y, context


def _search_or_none(engine, query, k, algorithm, params):
    try:
        return engine.search(query, k, algorithm=algorithm, **params)
    except NoCommunityError:
        return None


class TestIncrementalEngineParity:
    """The tentpole guarantee: incremental == rebuild-from-scratch, bitwise."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_interleaving_matches_fresh_engine(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 90))
        graph, edges = _random_graph(rng, n, int(rng.integers(2 * n, 4 * n)))
        engine = IncrementalEngine(graph)
        algorithms = (("appfast", {"epsilon_f": 0.5}), ("appinc", {}))

        def compare():
            fresh = QueryEngine(graph.mutable_copy())
            assert np.array_equal(engine.core_numbers(), fresh.core_numbers())
            for k in (2, 3):
                for query in rng.choice(n, size=3, replace=False):
                    query = int(query)
                    for algorithm, params in algorithms:
                        _assert_same_result(
                            _search_or_none(engine, query, k, algorithm, params),
                            _search_or_none(fresh, query, k, algorithm, params),
                            (seed, k, query, algorithm),
                        )

        compare()  # warm the caches so updates have something to invalidate
        for _ in range(10):
            roll = rng.random()
            if roll < 0.45:
                vertex = int(rng.integers(0, n))
                x, y = (float(c) for c in rng.uniform(-0.1, 1.1, size=2))
                engine.apply_checkin(vertex, x, y)
            elif roll < 0.7 and edges:
                edge = sorted(edges)[int(rng.integers(0, len(edges)))]
                edges.remove(edge)
                engine.apply_edge(*edge, "delete")
            else:
                while True:
                    u, v = (int(a) for a in rng.integers(0, n, size=2))
                    if u != v and (min(u, v), max(u, v)) not in edges:
                        break
                edges.add((min(u, v), max(u, v)))
                engine.apply_edge(u, v, "insert")
            compare()

    def test_burst_updates_without_queries_stay_consistent(self):
        # Updates landing while labellings are invalidated (no query between
        # them) must still leave the bundle cache reusable-or-dropped
        # correctly — the representative-keying regression case.
        rng = np.random.default_rng(99)
        graph, edges = _random_graph(rng, 60, 150)
        engine = IncrementalEngine(graph)
        for k in (2, 3):
            engine.prepare(k)
        for _ in range(8):
            for _ in range(int(rng.integers(2, 6))):
                roll = rng.random()
                if roll < 0.4:
                    engine.apply_checkin(
                        int(rng.integers(0, 60)), *map(float, rng.uniform(0, 1, 2))
                    )
                elif roll < 0.7 and edges:
                    edge = sorted(edges)[int(rng.integers(0, len(edges)))]
                    edges.remove(edge)
                    engine.apply_edge(*edge, "delete")
                else:
                    while True:
                        u, v = (int(a) for a in rng.integers(0, 60, size=2))
                        if u != v and (min(u, v), max(u, v)) not in edges:
                            break
                    edges.add((min(u, v), max(u, v)))
                    engine.apply_edge(u, v, "insert")
            fresh = QueryEngine(graph.mutable_copy())
            for k in (2, 3):
                for query in rng.choice(60, size=4, replace=False):
                    query = int(query)
                    _assert_same_result(
                        _search_or_none(engine, query, k, "appfast", {"epsilon_f": 0.5}),
                        _search_or_none(fresh, query, k, "appfast", {"epsilon_f": 0.5}),
                        (k, query),
                    )

    def test_update_counters_track_work(self):
        rng = np.random.default_rng(17)
        graph, edges = _random_graph(rng, 40, 100)
        engine = IncrementalEngine(graph)
        engine.prepare(2)
        engine.apply_checkin(5, 0.9, 0.9)
        assert engine.stats.location_updates == 1
        missing = next(
            (u, v)
            for u in range(40)
            for v in range(u + 1, 40)
            if (u, v) not in edges
        )
        engine.apply_edge(*missing, "insert")
        engine.apply_edge(*missing, "delete")
        assert engine.stats.edge_updates == 2

    def test_labelling_rebuilds_are_counted_not_listed(self):
        """Each rebuild after an in-core edge delete bumps a counter.

        The stats carry no per-rebuild list, so ``GET /stats`` stays the
        same size however long the mutation stream runs.
        """
        graph = brightkite_like(300, seed=3)
        engine = IncrementalEngine(graph)
        cores = engine.core_numbers()
        u = next(v for v in range(graph.num_vertices) if cores[v] >= 4)
        v = next(int(w) for w in graph.neighbors(u) if cores[w] >= 4)
        engine.search(u, 4, epsilon_f=0.5)
        for _ in range(50):
            for op in ("delete", "insert"):
                engine.apply_edge(u, v, op)
                try:
                    engine.search(u, 4, epsilon_f=0.5)
                except NoCommunityError:
                    pass
        assert engine.stats.labelings_invalidated >= 50
        assert engine.stats.labelings_built == 1 + engine.stats.labelings_invalidated
        assert all(
            isinstance(value, (int, float)) for value in asdict(engine.stats).values()
        )

    def test_invalid_op_rejected_without_mutation(self):
        rng = np.random.default_rng(18)
        graph, _ = _random_graph(rng, 10, 15)
        engine = IncrementalEngine(graph)
        before = graph.num_edges
        with pytest.raises(Exception):
            engine.apply_edge(0, 1, "toggle")
        assert graph.num_edges == before


class TestTrackerParity:
    """Regression: tracker replay on the Fig-13 stand-in, against the oracle."""

    @pytest.fixture(scope="class")
    def fig13_workload(self):
        graph = brightkite_like(500, average_degree=8.0, seed=21)
        generator = CheckinGenerator(
            graph,
            TravelProfile(local_std=0.01, move_probability=0.1, move_distance_mean=0.25),
            seed=13,
        )
        checkins = generator.generate(
            list(range(300)), checkins_per_user=6, duration_days=40.0
        )
        travel = generator.total_travel_distance(checkins)
        queries = select_mobile_queries(graph, checkins, travel, count=6, min_friends=6)
        return graph, checkins, queries

    def _track(self, workload, incremental):
        """Replay incrementally through the tracker, or rebuild via the oracle."""
        graph, checkins, queries = workload
        stream = LocationStream(graph, checkins)
        if not incremental:
            return None, oracle_timelines(
                stream, queries, 3, algorithm="appfast", epsilon_f=0.5
            )
        tracker = SACTracker(
            stream, k=3, algorithm="appfast", algorithm_params={"epsilon_f": 0.5}
        )
        return tracker, tracker.track(queries)

    def test_incremental_replay_is_bit_identical_to_rebuild(self, fig13_workload):
        _, incremental_timelines = self._track(fig13_workload, True)
        _, rebuild_timelines = self._track(fig13_workload, False)
        assert set(incremental_timelines) == set(rebuild_timelines)
        for user in incremental_timelines:
            first, second = incremental_timelines[user], rebuild_timelines[user]
            assert len(first) == len(second)
            for a, b in zip(first, second):
                assert a.timestamp == b.timestamp
                assert a.members == b.members
                assert a.circle.radius == b.circle.radius
                assert a.circle.center.x == b.circle.center.x
                assert a.circle.center.y == b.circle.center.y

    def test_incremental_replay_shares_one_decomposition(self, fig13_workload):
        tracker, timelines = self._track(fig13_workload, True)
        assert sum(len(snapshots) for snapshots in timelines.values()) > 0
        stats = tracker.last_engine.stats
        assert stats.core_decompositions == 1
        assert stats.location_updates == len(fig13_workload[1])
        assert stats.bundles_patched > 0

    @pytest.mark.parametrize("incremental", [True, False])
    def test_replay_does_not_touch_base_graph(self, fig13_workload, incremental):
        graph, checkins, queries = fig13_workload
        coords_before = graph.coordinates.copy()
        self._track(fig13_workload, incremental)
        assert np.array_equal(graph.coordinates, coords_before)
