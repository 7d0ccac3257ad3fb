"""Span recording inside a traced server, and the per-layer analysis of its dump.

:class:`Tracer` is what ``traced_server.py`` wraps the layers' public calls
with.  A synchronous span nests on its own thread: it knows its parent, and
its self time is its duration minus the time its children cover.  The two
asynchronous HTTP calls (``read_request``, ``write_response``) interleave
on the event loop, so they are recorded flat, keyed by the connection task.

Aggregates (count, total and self seconds per span name) are kept for every
span; individual records only where the analysis needs them: requests,
responses, JSON decodes, ``submit_batch`` dispatches, and the top-level
spans of each thread.  Spans are recorded only between the client's window
markers, so set-up and the correctness checks never count.

:func:`layer_metrics` turns one or more dumps, with the client's own
per-connection latencies, into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from metrics import mean, percentile

#: Prefix of the spans wrapped around the entries of ``ALGORITHMS``.
ALGORITHM_PREFIX = "core.alg."

#: Leaf spans counted into their nearest enclosing algorithm span.
PER_ALGORITHM = ("core.probe", "geometry.mec")

#: Span names whose individual durations are kept (for percentiles).
SAMPLED = ("core.alg.exact+",)

#: Query strings of the client's marker requests (``GET /healthz?...``).
WINDOW_START = "sacbench_window=start"
WINDOW_END = "sacbench_window=end"
CONN_MARKER = "sacbench_conn="


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child = 0.0


class _ThreadState:
    """One thread's stack and aggregates (merged only at dump time)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.stack: List[_Frame] = []
        self.totals: Dict[str, List[float]] = {}
        self.pairs: Dict[str, int] = {}
        self.within: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.toplevel: List[Tuple[str, float, float]] = []


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.recording = False
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._next_rid = 0
        self.requests: List[list] = []
        self.writes: List[list] = []
        self.decodes: List[list] = []
        self.dispatches: List[list] = []

    # ------------------------------------------------------------ recording
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def enter(self, name: str) -> _Frame:
        """Open span ``name`` on the calling thread."""
        frame = _Frame(name, self.clock())
        self._state().stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> float:
        """Close ``frame`` (the innermost open span); returns its end time."""
        end = self.clock()
        state = self._state()
        stack = state.stack
        stack.pop()
        duration = end - frame.start
        name = frame.name
        totals = state.totals.get(name)
        if totals is None:
            totals = state.totals[name] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - frame.child
        if stack:
            parent = stack[-1]
            parent.child += duration
            key = f"{parent.name}>{name}"
            state.pairs[key] = state.pairs.get(key, 0) + 1
            if name in PER_ALGORITHM:
                for ancestor in reversed(stack):
                    if ancestor.name.startswith(ALGORITHM_PREFIX):
                        key = f"{ancestor.name}>{name}"
                        state.within[key] = state.within.get(key, 0) + 1
                        break
        else:
            state.toplevel.append((name, frame.start, end))
        if name in SAMPLED:
            state.samples.setdefault(name, []).append(duration)
        return end

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a named counter (while recording)."""
        if self.recording:
            counters = self._state().counters
            counters[name] = counters.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``.

        ``note(args, kwargs, result, start, end)`` runs after a successful
        call to record what the analysis needs from it.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.exit(frame)
                raise
            end = self.exit(frame)
            if note is not None:
                note(args, kwargs, result, frame.start, end)
            return result

        return traced

    # ------------------------------------------------------------- requests
    def request_parsed(self, request, conn: int) -> None:
        """A request was read off connection ``conn``; window markers toggle recording."""
        if request.query == WINDOW_START:
            self.recording = True
        elif request.query == WINDOW_END:
            self.recording = False
        if not self.recording:
            return
        rid = self._next_rid
        self._next_rid += 1
        request.trace_rid = rid
        self.requests.append(
            [
                rid,
                conn,
                self.clock(),
                request.method,
                request.path,
                request.query,
                request.body.decode("utf-8", "replace"),
            ]
        )

    def response_written(self, conn: int, start: float, end: float, status: int) -> None:
        """A response was written to connection ``conn`` between ``start`` and ``end``."""
        if self.recording:
            self.writes.append([conn, start, end, status])

    # ----------------------------------------------------------------- dump
    def dump(self) -> dict:
        """Everything recorded, merged across threads, as JSON-ready data."""
        totals: Dict[str, List[float]] = {}
        merged: Dict[str, Dict[str, float]] = {"pairs": {}, "within": {}, "counters": {}}
        samples: Dict[str, List[float]] = {}
        toplevel: Dict[str, List[Tuple[str, float, float]]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (count, seconds, self_seconds) in state.totals.items():
                row = totals.setdefault(name, [0, 0.0, 0.0])
                row[0] += count
                row[1] += seconds
                row[2] += self_seconds
            for field in merged:
                for key, value in getattr(state, field).items():
                    merged[field][key] = merged[field].get(key, 0) + value
            for name, values in state.samples.items():
                samples.setdefault(name, []).extend(values)
            toplevel.setdefault(state.name, []).extend(state.toplevel)
        return {
            "totals": totals,
            **merged,
            "samples": samples,
            "toplevel": toplevel,
            "requests": self.requests,
            "writes": self.writes,
            "decodes": self.decodes,
            "dispatches": self.dispatches,
        }

    def write(self, path: str) -> None:
        """Write :meth:`dump` to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.dump(), handle)


# ----------------------------------------------------------------- analysis
def union_length(
    intervals: Iterable[Tuple[float, float]], lo: float = -math.inf, hi: float = math.inf
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def request_vertices(path: str, body: str) -> Tuple[Optional[int], List[int]]:
    """``(k, vertices)`` a ``/query`` or ``/batch`` body asks for."""
    payload = json.loads(body)
    if path == "/query":
        return payload.get("k", 4), [int(payload["vertex"])]
    return payload.get("k", 4), [int(v) for v in payload["vertices"]]


def match_dispatch(
    dispatches: Sequence[list], starts: Sequence[float], parsed: float, k: int, vertex: int
) -> Optional[list]:
    """The first ``submit_batch`` starting after ``parsed`` that answers ``vertex`` at ``k``.

    ``dispatches`` are ``[start, end, k, queries]`` sorted by start, and
    ``starts`` their start times.  Labels are vertex indices in every
    benchmark graph, so the request's vertex is the engine's query.
    """
    for index in range(bisect.bisect_left(starts, parsed), len(dispatches)):
        dispatch = dispatches[index]
        if dispatch[2] == k and vertex in dispatch[3]:
            return dispatch
    return None


def _conn_streams(dump: dict):
    """Per client connection: its server-side ``(request, write)`` pairs, in order."""
    requests: Dict[int, List[list]] = {}
    writes: Dict[int, List[list]] = {}
    for request in dump["requests"]:
        requests.setdefault(request[1], []).append(request)
    for write in dump["writes"]:
        writes.setdefault(write[0], []).append(write)
    streams: Dict[int, List[Tuple[list, list]]] = {}
    for conn, reqs in requests.items():
        if not reqs[0][5].startswith(CONN_MARKER):
            continue
        client_conn = int(reqs[0][5][len(CONN_MARKER):])
        streams[client_conn] = list(zip(reqs, writes.get(conn, [])))
    return streams


class _Accumulator:
    """Sums and samples gathered across the dumps of one workload run."""

    def __init__(self) -> None:
        self.totals: Dict[str, List[float]] = {}
        self.pairs: Dict[str, float] = {}
        self.within: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.waits: List[float] = []
        self.unattributed: List[float] = []
        self.covered = 0.0
        self.residence = 0.0
        self.busy = 0.0
        self.window = 0.0
        self.dispatch_sizes: List[int] = []
        self.write_seconds: List[float] = []

    def add(self, dump: dict, client: Dict[int, List[Tuple[str, float]]]) -> None:
        for name, row in dump["totals"].items():
            mine = self.totals.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                mine[i] += row[i]
        for field in ("pairs", "within", "counters"):
            target = getattr(self, field)
            for key, value in dump[field].items():
                target[key] = target.get(key, 0) + value
        for name, values in dump["samples"].items():
            self.samples.setdefault(name, []).extend(values)
        dispatches = sorted(dump["dispatches"], key=lambda d: d[0])
        starts = [d[0] for d in dispatches]
        decodes = {rid: (start, end) for rid, start, end in dump["decodes"]}
        window_lo, window_hi = float("inf"), float("-inf")
        for conn, pairs in _conn_streams(dump).items():
            latencies = client.get(conn, [])
            for index, (request, write) in enumerate(pairs):
                rid, _conn, parsed, _method, path, _query, body = request
                written = write[2]
                window_lo, window_hi = min(window_lo, parsed), max(window_hi, written)
                residence = written - parsed
                if index < len(latencies) and latencies[index][0] == path:
                    self.unattributed.append(latencies[index][1] - residence)
                if path not in ("/query", "/batch"):
                    continue
                k, vertices = request_vertices(path, body)
                dispatch = match_dispatch(dispatches, starts, parsed, k, vertices[0])
                spans = [(write[1], write[2])]
                if rid in decodes:
                    spans.append(decodes[rid])
                if dispatch is not None:
                    self.waits.append(dispatch[0] - parsed)
                    spans += [(parsed, dispatch[0]), (dispatch[0], dispatch[1])]
                self.covered += union_length(spans, parsed, written)
                self.residence += residence
        if window_hi > window_lo:
            self.window += window_hi - window_lo
            engine_spans = [
                (start, end)
                for thread, spans in dump["toplevel"].items()
                if thread.startswith("sac-engine")
                for _name, start, end in spans
            ]
            self.busy += union_length(engine_spans, window_lo, window_hi)
        self.dispatch_sizes += [len(d[3]) for d in dispatches]
        self.write_seconds += [end - start for _conn, start, end, _status in dump["writes"]]

    # --------------------------------------------------------------- views
    def count(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def mean_ms(self, names: Sequence[str], column: int = 1) -> float:
        count = sum(self.count(name) for name in names)
        seconds = sum(self.totals.get(name, [0, 0.0, 0.0])[column] for name in names)
        return 1000.0 * seconds / count if count else 0.0

    def ratio(self, part: float, whole: float) -> float:
        return part / whole if whole else 0.0


def layer_metrics(runs: Sequence[Tuple[dict, dict]]) -> Dict[str, float]:
    """Per-layer metrics of one workload from its traced servers' dumps.

    ``runs`` pairs each dump with the client's latencies on that server:
    ``{connection index: [(path, seconds), ...]}`` in send order, marker
    request included.  Layers a workload never touched report 0.
    """
    acc = _Accumulator()
    for dump, client in runs:
        acc.add(dump, client)
    algorithms = {
        name[len(ALGORITHM_PREFIX):]: acc.count(name)
        for name in acc.totals
        if name.startswith(ALGORITHM_PREFIX)
    }
    computed = sum(algorithms.values())
    hits = acc.counters.get("service.cache.hits", 0)
    misses = acc.counters.get("service.cache.misses", 0)
    rungs = acc.count("service.slo.select_rung")
    groups = acc.counters.get("engine.plan.groups", 0)
    planned = acc.counters.get("engine.plan.planned", 0)
    exact_rungs = acc.counters.get("service.slo.exact_rung", 0)
    fetch_misses = acc.counters.get("engine.residency.fetch_misses", 0)
    exact_samples = acc.samples.get("core.alg.exact+", [])
    out = {
        "server.http.write_ms_mean": 1000.0 * mean(acc.write_seconds),
        "server.http.json_decode_ms_mean": acc.mean_ms(["server.http.json_decode"]),
        "server.daemon.wait_ms_p50": 1000.0 * percentile(acc.waits, 50) if acc.waits else 0.0,
        "server.daemon.queries_per_dispatch": mean(acc.dispatch_sizes),
        "server.daemon.engine_busy_share": acc.ratio(acc.busy, acc.window),
        "server.daemon.unattributed_ms_p50": (
            1000.0 * percentile(acc.unattributed, 50) if acc.unattributed else 0.0
        ),
        "service.facade.submit_batch_ms_mean": acc.mean_ms(["service.facade.submit_batch"]),
        "service.cache.hit_ratio": acc.ratio(hits, hits + misses),
        "service.cache.lookup_ms_mean": acc.mean_ms(["service.cache.lookup"]),
        "service.cache.store_ms_mean": acc.mean_ms(["service.cache.store"]),
        "service.slo.select_rung_ms_mean": acc.mean_ms(["service.slo.select_rung"]),
        "service.slo.exact_rung_ratio": acc.ratio(exact_rungs, rungs),
        "service.slo.unfit_ratio": acc.ratio(acc.counters.get("service.slo.unfit", 0), rungs),
        "engine.plan.plan_batch_ms_mean": acc.mean_ms(["engine.plan.plan_batch"]),
        "engine.plan.groups_per_batch": acc.ratio(groups, acc.count("engine.plan.plan_batch")),
        "engine.plan.queries_per_group": acc.ratio(planned, groups),
        "engine.plan.execute_group_self_ms_mean": acc.mean_ms(
            ["engine.plan.execute_group"], column=2
        ),
        "engine.engine.component_artifacts_ms_mean": acc.mean_ms(
            ["engine.engine.component_artifacts"]
        ),
        "engine.residency.fetch_miss_ratio": acc.ratio(
            fetch_misses, acc.count("engine.residency.fetch")
        ),
        "store.artifact_store.load_bundle_ms_mean": acc.mean_ms(
            ["store.artifact_store.load_bundle"]
        ),
        "engine.incremental.apply_checkin_ms_mean": acc.mean_ms(
            ["engine.incremental.apply_checkin"]
        ),
        "engine.incremental.apply_edge_ms_mean": acc.mean_ms(["engine.incremental.apply_edge"]),
        "store.wal.append_ms_mean": acc.mean_ms(["store.wal.append"]),
        "service.subscriptions.evaluate_ms_mean": acc.mean_ms(["service.subscriptions.evaluate"]),
        "service.subscriptions.evaluate_share": acc.ratio(
            acc.totals.get("service.subscriptions.evaluate", [0, 0.0])[1], acc.busy
        ),
        "service.subscriptions.groups_per_evaluate": acc.ratio(
            acc.pairs.get("service.subscriptions.evaluate>engine.plan.execute_group", 0),
            acc.count("service.subscriptions.evaluate"),
        ),
        "core.appfast_ms_mean": acc.mean_ms(["core.alg.appfast"]),
        "core.appacc_ms_mean": acc.mean_ms(["core.alg.appacc"]),
        "core.exact_plus_ms_p50": 1000.0 * percentile(exact_samples, 50) if exact_samples else 0.0,
        "core.anchor_ms_mean": acc.mean_ms(["core.anchor"]),
        "core.exact_plus_enum_self_ms_mean": acc.mean_ms(["core.alg.exact+"], column=2),
        "core.probe_ms_mean": acc.mean_ms(["core.probe"]),
        "geometry.mec_ms_mean": acc.mean_ms(["geometry.mec"]),
        "geometry.mec_calls_per_query": acc.ratio(
            sum(v for k, v in acc.within.items() if k.endswith(">geometry.mec")), computed
        ),
        "trace.span_coverage": acc.ratio(acc.covered, acc.residence),
    }
    for algorithm, metric in (
        ("appfast", "appfast"),
        ("appacc", "appacc"),
        ("exact+", "exact_plus"),
    ):
        out[f"core.probes_per_query.{metric}"] = acc.ratio(
            acc.within.get(f"{ALGORITHM_PREFIX}{algorithm}>core.probe", 0),
            algorithms.get(algorithm, 0),
        )
    return out
