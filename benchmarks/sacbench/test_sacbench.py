"""Tests of the benchmark's own arithmetic; no server is started.

Run by explicit path::

    python3 -m pytest benchmarks/sacbench/test_sacbench.py
"""

from __future__ import annotations

import itertools
import json

import pytest

from metrics import percentile, samples_beyond, spread, verdict
from spans import CONN_MARKER, Tracer, layer_metrics, match_dispatch, union_length
from workloads import (
    batch_cold_stream,
    deadline_stream,
    exact_stream,
    write_mix_stream,
    zipf_vertices,
)


class FakeClock:
    """A clock the test moves by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ------------------------------------------------------------ percentiles
def test_nearest_rank_percentile():
    """A percentile is an observed sample: the smallest with ``q`` % at or below it."""
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([7.0], 99) == 7.0


@pytest.mark.parametrize(
    "count, q, beyond",
    [(200, 95, 10), (199, 95, 9), (1000, 99, 10), (10000, 99.9, 10), (100, 50, 50)],
)
def test_samples_beyond_a_percentile(count, q, beyond):
    """Percentile choice by sample count: how many samples lie beyond ``q``."""
    # A p95 needs 200 samples before ten lie beyond it.
    assert samples_beyond(count, q) == beyond


def test_spread_is_iqr_over_median():
    """Spread is the inter-quartile range over the median."""
    assert spread([10.0] * 10) == 0.0
    assert spread([9.0, 10.0, 10.0, 11.0]) == pytest.approx((10.75 - 9.25) / 10.0)


# -------------------------------------------------------------- self time
def test_self_time_subtracts_nested_children():
    """A span's self time is its duration minus what its children cover."""
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.recording = True
    outer = tracer.enter("outer")
    clock.now = 1.0
    inner = tracer.enter("inner")
    clock.now = 3.0
    leaf = tracer.enter("leaf")
    clock.now = 3.5
    tracer.exit(leaf)
    clock.now = 4.0
    tracer.exit(inner)
    clock.now = 10.0
    tracer.exit(outer)
    dump = tracer.dump()
    assert dump["totals"]["outer"] == [1, 10.0, 7.0]
    assert dump["totals"]["inner"] == [1, 3.0, 2.5]
    assert dump["totals"]["leaf"] == [1, 0.5, 0.5]
    assert dump["pairs"] == {"outer>inner": 1, "inner>leaf": 1}
    [(thread, spans)] = dump["toplevel"].items()
    assert spans == [("outer", 0.0, 10.0)]


def test_probes_count_into_the_nearest_algorithm():
    """Probe and MEC spans count into the innermost algorithm around them."""
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.recording = True
    alg = tracer.enter("core.alg.exact+")
    anchor = tracer.enter("core.anchor")
    for _ in range(3):
        tracer.exit(tracer.enter("core.probe"))
    tracer.exit(anchor)
    tracer.exit(tracer.enter("geometry.mec"))
    tracer.exit(alg)
    within = tracer.dump()["within"]
    assert within == {"core.alg.exact+>core.probe": 3, "core.alg.exact+>geometry.mec": 1}


def test_wrapped_calls_record_only_inside_the_window():
    """Outside the client's window markers a wrapped call records nothing."""
    tracer = Tracer(FakeClock())
    wrapped = tracer.wrap("f", lambda x: x + 1)
    assert wrapped(1) == 2
    assert tracer.dump()["totals"] == {}
    tracer.recording = True
    assert wrapped(1) == 2
    assert tracer.dump()["totals"]["f"][0] == 1


# ------------------------------------------------------------ attribution
def test_union_length_merges_and_clips():
    """Overlapping intervals count once, and only inside the clip."""
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10)], 2, 4) == 2
    assert union_length([]) == 0


def test_request_matches_first_dispatch_after_parse_containing_its_vertex():
    """A request's engine job is the first dispatch after its parse holding its vertex at its k."""
    dispatches = [[1.0, 2.0, 4, [7]], [3.0, 4.0, 4, [8, 9]], [5.0, 6.0, 5, [9]], [7.0, 8.0, 4, [9]]]
    starts = [d[0] for d in dispatches]
    assert match_dispatch(dispatches, starts, 0.5, 4, 9) is dispatches[1]
    assert match_dispatch(dispatches, starts, 3.5, 4, 9) is dispatches[3]
    assert match_dispatch(dispatches, starts, 3.5, 5, 9) is dispatches[2]
    assert match_dispatch(dispatches, starts, 0.5, 4, 42) is None


def _synthetic_dump():
    """One client connection, two /query requests coalesced into one dispatch."""
    requests = [
        [0, 77, 0.0, "GET", "/healthz", CONN_MARKER + "0", ""],
        [1, 77, 1.0, "POST", "/query", "", json.dumps({"vertex": 5, "k": 4})],
        [2, 77, 10.0, "POST", "/query", "", json.dumps({"vertex": 6, "k": 4})],
    ]
    writes = [[77, 0.1, 0.2, 200], [77, 4.0, 5.0, 200], [77, 14.0, 15.0, 200]]
    return {
        "totals": {"service.facade.submit_batch": [2, 4.0, 4.0]},
        "pairs": {},
        "within": {},
        "counters": {},
        "samples": {},
        "toplevel": {
            "sac-engine_0": [
                ["service.facade.submit_batch", 2.0, 4.0],
                ["service.facade.submit_batch", 11.0, 13.0],
            ]
        },
        "requests": requests,
        "writes": writes,
        "decodes": [[1, 1.0, 1.5], [2, 10.0, 10.5]],
        "dispatches": [[2.0, 4.0, 4, [5]], [11.0, 13.0, 4, [6]]],
    }


def test_layer_metrics_attribute_wait_residence_and_coverage():
    """Wait, residence, coverage and busy share come out of a hand-built dump."""
    client = {0: [("/healthz", 0.3), ("/query", 4.5), ("/query", 5.5)]}
    metrics = layer_metrics([(_synthetic_dump(), client)])
    # parse -> dispatch start: 1.0 and 1.0 seconds.
    assert metrics["server.daemon.wait_ms_p50"] == pytest.approx(1000.0)
    # residence 4.0 and 5.0; every second of both is covered except 13..14.
    assert metrics["trace.span_coverage"] == pytest.approx(8.0 / 9.0)
    # client latency minus residence: 0.3-0.2, 4.5-4.0, 5.5-5.0.
    assert metrics["server.daemon.unattributed_ms_p50"] == pytest.approx(500.0)
    assert metrics["server.daemon.queries_per_dispatch"] == 1.0
    # engine busy 4 s of the 15 s window.
    assert metrics["server.daemon.engine_busy_share"] == pytest.approx(4.0 / 15.0)
    assert metrics["server.http.write_ms_mean"] == pytest.approx(1000.0 * 2.1 / 3)


# ---------------------------------------------------------------- verdicts
SEEDS = range(10)


def _runs(values):
    return dict(zip(SEEDS, values))


def test_gain_needs_nine_of_ten_paired_wins():
    """A gain needs nine of ten seed pairs and a median shift beyond the parent's IQR."""
    parent = _runs([100.0 + i % 3 for i in SEEDS])
    change = _runs([90.0 + i % 3 for i in SEEDS])
    assert verdict(parent, change, "lower", 0.05) == "improved"
    eight_wins = {**change, 0: 200.0, 1: 200.0}
    assert verdict(parent, eight_wins, "lower", 0.05) != "improved"


def test_regression_beyond_the_bound():
    """A median worse by more than the bound is a regression; less is not."""
    parent = _runs([100.0 + i % 3 for i in SEEDS])
    assert verdict(parent, _runs([110.0 + i % 3 for i in SEEDS]), "lower", 0.05) == "regressed"
    assert verdict(parent, _runs([98.0 + i % 3 for i in SEEDS]), "higher", 0.05) == "unchanged"


def test_wide_spread_is_unresolved_not_unchanged():
    """A spread wider than the bound leaves the verdict unresolved."""
    parent = _runs([80.0, 120.0] * 5)
    change = _runs([85.0, 118.0] * 5)
    assert verdict(parent, change, "lower", 0.05) == "unresolved"
    assert verdict(parent, change, "lower", None) == "unchanged"


# ----------------------------------------------------------------- traffic
@pytest.fixture(scope="module")
def graph():
    """A small geo-social graph for the traffic generators."""
    from repro.datasets.geosocial import brightkite_like

    return brightkite_like(300, seed=3)


def test_streams_are_deterministic_per_seed(graph):
    """Every traffic stream repeats exactly for a seed and differs for another."""
    population = list(range(0, 300, 2))
    subs = ["sub-1", "sub-2"]
    factories = [
        lambda seed: zipf_vertices(population, seed, 0),
        lambda seed: batch_cold_stream(seed, 1),
        lambda seed: write_mix_stream(graph, population, subs, seed, 0, 2),
        lambda seed: deadline_stream(graph, population, seed, 1),
        lambda seed: exact_stream({"4": list(range(10)), "5": list(range(10, 16))}, seed),
    ]
    for factory in factories:
        first = list(itertools.islice(factory(1), 60))
        again = list(itertools.islice(factory(1), 60))
        other = list(itertools.islice(factory(2), 60))
        assert repr(first) == repr(again)
        assert repr(first) != repr(other)


def test_connections_draw_distinct_traffic_over_shared_popularity():
    """Connections draw different sequences from one popularity order."""
    population = list(range(1000))
    a = list(itertools.islice(zipf_vertices(population, 5, 0), 2000))
    b = list(itertools.islice(zipf_vertices(population, 5, 1), 2000))
    assert a != b
    top = lambda draws: max(set(draws), key=draws.count)  # noqa: E731
    assert top(a) == top(b)


def test_edge_pairs_insert_then_delete_within_a_disjoint_pool(graph):
    """Edge ops insert then delete one non-adjacent pair from the connection's own pool."""
    population = list(range(300))
    streams = [write_mix_stream(graph, population, ["s"], 9, conn, 2) for conn in range(2)]
    for conn, stream in enumerate(streams):
        edges = [op.body for op in itertools.islice(stream, 4000) if op.kind == "edge"]
        assert edges and [e["op"] for e in edges[:4]] == ["insert", "delete", "insert", "delete"]
        for insert, delete in zip(edges[::2], edges[1::2]):
            assert (insert["u"], insert["v"]) == (delete["u"], delete["v"])
            assert insert["u"] % 2 == conn and insert["v"] % 2 == conn
            assert not graph.has_edge(insert["u"], insert["v"])
