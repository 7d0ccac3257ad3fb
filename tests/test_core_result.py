"""Tests for :class:`repro.core.result.Members`, the stored form of an answer's members."""

import pickle

import numpy as np
import pytest

from repro.core import app_acc, app_fast, exact_plus
from repro.core.result import Members, SACResult
from repro.datasets.geosocial import brightkite_like
from repro.engine import QueryEngine
from repro.experiments.queries import select_query_vertices
from repro.geometry.circle import Circle


class TestFrozensetBehaviour:
    def test_iterates_ascending_plain_ints(self):
        members = Members({9, 2, 5})
        assert list(members) == [2, 5, 9]
        assert all(type(v) is int for v in members)
        assert len(members) == 3 and bool(members) and not Members()

    def test_membership(self):
        members = Members([4, 1, 7])
        assert 4 in members and np.int64(7) in members and np.int32(1) in members
        assert 3 not in members and -1 not in members and 2**40 not in members
        assert "4" not in members and 4.0 not in members

    def test_equal_to_and_hashing_like_the_frozenset(self):
        members = Members(np.array([3, 1, 2]))
        same = frozenset({1, 2, 3})
        assert members == same and same == members and members == {1, 2, 3}
        assert not members != same
        assert hash(members) == hash(same)
        assert members == Members([1, 2, 3]) and members != Members([1, 2])
        assert members != [1, 2, 3]
        assert len({members, same}) == 1

    @pytest.mark.parametrize("other", [Members([2, 3, 8]), frozenset({2, 3, 8}), {2, 3, 8}])
    def test_set_algebra_matches_frozenset(self, other):
        members = Members([1, 2, 3])
        plain = frozenset({1, 2, 3})
        for op in ("__sub__", "__and__", "__or__"):
            assert getattr(members, op)(other) == getattr(plain, op)(set(other)), op
        assert other - members == set(other) - plain
        assert other & members == set(other) & plain
        assert other | members == set(other) | plain
        assert (members <= other) == (plain <= set(other))
        assert Members([2, 3]) <= other and other >= Members([2, 3])

    def test_algebra_between_members_stays_an_array(self):
        result = Members([1, 2, 3, 5]) - Members([2, 5])
        assert isinstance(result, Members) and list(result) == [1, 3]
        assert isinstance(Members([1]) | Members([0]), Members)

    def test_algebra_with_a_non_set_is_refused(self):
        with pytest.raises(TypeError):
            Members([1]) - [1]


class TestStoredForm:
    def test_array_is_sorted_unique_read_only_int32(self):
        source = np.array([5, 3, 3, 9], dtype=np.int64)
        members = Members(source)
        assert members.array.tolist() == [3, 5, 9]
        assert members.array.dtype == np.int32
        assert not members.array.flags.writeable
        with pytest.raises(ValueError):
            members.array[0] = 1
        assert source.flags.writeable, "the caller's array is left alone"

    def test_sorted_int32_array_is_not_copied(self):
        source = np.array([1, 4, 6], dtype=np.int32)
        members = Members(source)
        assert np.shares_memory(members.array, source)
        assert not members.array.flags.writeable and source.flags.writeable

    def test_any_iterable_constructs_one(self):
        assert Members(v for v in (2, 1)) == {1, 2}
        assert Members(np.array([], dtype=float)) == frozenset()
        assert Members(Members([1])) == {1}
        same = Members([1])
        assert Members(same) is same
        with pytest.raises(TypeError):
            Members([1.5])
        with pytest.raises(TypeError):
            Members(np.array([0.5]))

    def test_pickles_read_only(self):
        members = pickle.loads(pickle.dumps(Members([7, 2])))
        assert members == {2, 7} and not members.array.flags.writeable

    def test_result_converts_any_iterable(self):
        circle = Circle.from_xy(0.0, 0.0, 1.0)
        by_set = SACResult("appfast", 1, 2, {3, 1}, circle)
        by_array = SACResult("appfast", 1, 2, np.array([1, 3]), circle)
        assert isinstance(by_set.members, Members)
        assert by_set == by_array
        assert 3 in by_set and by_set.size == 2


class TestAlgorithmsHandTheProbeArrayThrough:
    @pytest.fixture(scope="class")
    def graph(self):
        return brightkite_like(400, average_degree=8.0, seed=17)

    @pytest.mark.parametrize(
        "run",
        [
            app_fast,
            lambda *a, **kw: app_acc(*a, 0.5, **kw),
            lambda *a, **kw: exact_plus(*a, 0.5, **kw),
        ],
    )
    def test_members_are_a_read_only_sorted_array(self, graph, run):
        engine = QueryEngine(graph)
        for query in select_query_vertices(graph, 4, min_core=4, seed=3):
            result = run(graph, query, 4, context=engine.context(query, 4))
            array = result.members.array
            assert not array.flags.writeable
            assert (np.diff(array) > 0).all()
            assert query in result.members
