"""Unit tests for the AppFast (2 + εF)-approximation algorithm."""

import pytest

from repro.core.appfast import app_fast
from repro.core.appinc import app_inc
from repro.core.exact import exact
from repro.exceptions import InvalidParameterError, NoCommunityError
from repro.kcore.connected_core import is_connected
from repro.metrics.structural import minimum_degree


class TestAppFastCorrectness:
    @pytest.mark.parametrize("epsilon_f", [0.0, 0.5, 1.0, 2.0])
    def test_result_is_feasible(self, two_triangle_graph, epsilon_f):
        result = app_fast(two_triangle_graph, 0, 2, epsilon_f)
        assert 0 in result.members
        assert minimum_degree(two_triangle_graph, result.members) >= 2
        assert is_connected(two_triangle_graph, set(result.members))

    @pytest.mark.parametrize("epsilon_f", [0.0, 0.5, 1.0, 2.0])
    def test_approximation_bound(self, two_triangle_graph, epsilon_f):
        approx = app_fast(two_triangle_graph, 0, 2, epsilon_f)
        optimal = exact(two_triangle_graph, 0, 2)
        assert approx.radius <= (2.0 + epsilon_f) * optimal.radius + 1e-12

    def test_zero_epsilon_matches_appinc_radius(self, two_triangle_graph):
        """The paper's remark: with εF = 0, AppFast returns the same community as AppInc."""
        fast = app_fast(two_triangle_graph, 0, 2, 0.0)
        inc = app_inc(two_triangle_graph, 0, 2)
        assert fast.radius == pytest.approx(inc.radius, rel=1e-9)

    def test_zero_epsilon_matches_appinc_on_cliques(self, clique_grid_graph):
        fast = app_fast(clique_grid_graph, 0, 4, 0.0)
        inc = app_inc(clique_grid_graph, 0, 4)
        assert fast.members == inc.members

    def test_larger_epsilon_never_smaller_radius_violation(self, clique_grid_graph):
        """Any εF still returns a feasible community within its looser bound."""
        optimal = exact(clique_grid_graph, 0, 4)
        for epsilon_f in (0.0, 0.5, 1.5, 2.0):
            result = app_fast(clique_grid_graph, 0, 4, epsilon_f)
            assert result.radius <= (2.0 + epsilon_f) * optimal.radius + 1e-12

    def test_stats_record_iterations(self, two_triangle_graph):
        result = app_fast(two_triangle_graph, 0, 2, 0.5)
        assert result.stats["binary_search_iterations"] >= 0
        assert result.stats["epsilon_f"] == 0.5
        assert "delta" in result.stats


class TestAppFastEdgeCases:
    def test_negative_epsilon_rejected(self, two_triangle_graph):
        with pytest.raises(InvalidParameterError):
            app_fast(two_triangle_graph, 0, 2, -0.1)

    def test_nan_epsilon_rejected(self, two_triangle_graph):
        with pytest.raises(InvalidParameterError):
            app_fast(two_triangle_graph, 0, 2, float("nan"))

    def test_k_equals_one(self, two_triangle_graph):
        result = app_fast(two_triangle_graph, 0, 1)
        assert len(result.members) == 2

    def test_no_community(self, star_graph):
        with pytest.raises(NoCommunityError):
            app_fast(star_graph, 0, 2)

    def test_algorithm_name(self, two_triangle_graph):
        assert app_fast(two_triangle_graph, 0, 2).algorithm == "appfast"

    def test_default_epsilon(self, two_triangle_graph):
        result = app_fast(two_triangle_graph, 0, 2)
        assert result.stats["epsilon_f"] == 0.5
