"""Run ``repro.cli serve`` with spans recorded around each layer's public calls.

Usage::

    python benchmarks/sacbench/traced_server.py DUMP.json serve --store ... --port 0

The wrappers are installed before ``repro.cli.main`` builds the daemon, so
every call below goes through them.  The program itself is not modified:
each wrapper replaces a module attribute or a class attribute, the same
binding the caller looks up at call time.  Spans stay in memory until the
daemon returns after SIGTERM, then the dump is written to ``DUMP.json``.

Wrapped calls, by layer:

* ``server.http``  — ``read_request`` / ``write_response`` as bound in the
  daemon, ``Request.json``;
* ``service``      — ``SACService.submit_batch``, the ``AnswerCache``
  lookups and stores, ``select_rung`` as bound in the facade,
  ``SubscriptionRegistry.evaluate``;
* ``engine``       — ``plan_batch`` and ``execute_group`` as bound in the
  facade, sharding and subscriptions; ``QueryEngine.component_artifacts``,
  ``BundleResidency.fetch``, ``IncrementalEngine.apply_checkin`` /
  ``apply_edge``;
* ``store``        — ``ArtifactStore.load_bundle``, ``WriteAheadLog.append``;
* ``core``         — every entry of the shared ``ALGORITHMS`` dict,
  ``run_app_acc`` as bound in AppAcc and Exact+, the two
  ``QueryContext`` feasibility probes, and ``minimum_enclosing_circle`` as
  bound in the algorithm modules.
"""

from __future__ import annotations

import asyncio
import importlib
import sys
from pathlib import Path

_here = Path(__file__).resolve().parent
sys.path.insert(0, str(_here))
sys.path.insert(1, str(_here.parents[1] / "src"))

from spans import ALGORITHM_PREFIX, Tracer  # noqa: E402


def install(tracer: Tracer) -> None:
    """Replace each traced call's binding with a recording wrapper."""
    from repro.core import appacc, appfast, appinc, base, searcher
    from repro.engine import engine, incremental, residency
    from repro.server import daemon, http
    from repro.service import cache, facade, sharding, subscriptions
    from repro.store import artifact_store, wal

    # ``repro.core.exact_plus`` names the function, not the module, as an
    # attribute of ``repro.core``.
    exact_plus = importlib.import_module("repro.core.exact_plus")
    algorithm_modules = (base, appfast, appacc, appinc, exact_plus)

    # -------------------------------------------------------- server.http
    read_request = daemon.read_request
    write_response = daemon.write_response

    async def traced_read_request(reader, **kwargs):
        request = await read_request(reader, **kwargs)
        tracer.request_parsed(request, id(asyncio.current_task()))
        return request

    async def traced_write_response(writer, status, payload, **kwargs):
        start = tracer.clock()
        try:
            await write_response(writer, status, payload, **kwargs)
        finally:
            tracer.response_written(id(asyncio.current_task()), start, tracer.clock(), status)

    daemon.read_request = traced_read_request
    daemon.write_response = traced_write_response
    http.Request.json = tracer.wrap(
        "server.http.json_decode",
        http.Request.json,
        lambda args, kwargs, result, start, end: tracer.decodes.append(
            [getattr(args[0], "trace_rid", -1), start, end]
        ),
    )

    # ------------------------------------------------------------ service
    def note_dispatch(args, kwargs, result, start, end):
        queries = args[1] if len(args) > 1 else kwargs["queries"]
        k = args[2] if len(args) > 2 else kwargs["k"]
        tracer.dispatches.append([start, end, int(k), [int(q) for q in queries]])

    facade.SACService.submit_batch = tracer.wrap(
        "service.facade.submit_batch", facade.SACService.submit_batch, note_dispatch
    )

    def note_lookup_group(args, kwargs, result, start, end):
        hits, misses = result
        tracer.count("service.cache.hits", len(hits))
        tracer.count("service.cache.misses", len(misses))

    def note_lookup(args, kwargs, result, start, end):
        tracer.count("service.cache.hits" if result is not None else "service.cache.misses")

    answer_cache = cache.AnswerCache
    answer_cache.lookup_group = tracer.wrap(
        "service.cache.lookup", answer_cache.lookup_group, note_lookup_group
    )
    answer_cache.lookup = tracer.wrap("service.cache.lookup", answer_cache.lookup, note_lookup)
    answer_cache.peek_group = tracer.wrap("service.cache.lookup", answer_cache.peek_group)
    answer_cache.store_group = tracer.wrap("service.cache.store", answer_cache.store_group)
    answer_cache.store = tracer.wrap("service.cache.store", answer_cache.store)

    def note_rung(args, kwargs, choice, start, end):
        tracer.count("service.slo.exact_rung", choice.algorithm == "exact+")
        tracer.count("service.slo.unfit", not choice.fits)

    facade.select_rung = tracer.wrap("service.slo.select_rung", facade.select_rung, note_rung)
    subscriptions.SubscriptionRegistry.evaluate = tracer.wrap(
        "service.subscriptions.evaluate", subscriptions.SubscriptionRegistry.evaluate
    )

    # ------------------------------------------------------------- engine
    def note_plan(args, kwargs, plan, start, end):
        tracer.count("engine.plan.groups", len(plan.groups))
        tracer.count("engine.plan.planned", plan.planned)

    plan_batch = tracer.wrap("engine.plan.plan_batch", facade.plan_batch, note_plan)
    execute_group = tracer.wrap("engine.plan.execute_group", facade.execute_group)
    for module in (facade, sharding, subscriptions):
        module.plan_batch = plan_batch
        module.execute_group = execute_group

    query_engine = engine.QueryEngine
    query_engine.component_artifacts = tracer.wrap(
        "engine.engine.component_artifacts", query_engine.component_artifacts
    )
    fetch = residency.BundleResidency.fetch

    def fetch_counting_misses(self, key):
        if key not in self:
            tracer.count("engine.residency.fetch_misses")
        return fetch(self, key)

    residency.BundleResidency.fetch = tracer.wrap("engine.residency.fetch", fetch_counting_misses)
    incremental_engine = incremental.IncrementalEngine
    incremental_engine.apply_checkin = tracer.wrap(
        "engine.incremental.apply_checkin", incremental_engine.apply_checkin
    )
    incremental_engine.apply_edge = tracer.wrap(
        "engine.incremental.apply_edge", incremental_engine.apply_edge
    )

    # -------------------------------------------------------------- store
    store = artifact_store.ArtifactStore
    store.load_bundle = tracer.wrap("store.artifact_store.load_bundle", store.load_bundle)
    wal.WriteAheadLog.append = tracer.wrap("store.wal.append", wal.WriteAheadLog.append)

    # --------------------------------------------------------------- core
    for name, run in list(searcher.ALGORITHMS.items()):
        searcher.ALGORITHMS[name] = tracer.wrap(ALGORITHM_PREFIX + name, run)
    run_app_acc = tracer.wrap("core.anchor", appacc.run_app_acc)
    appacc.run_app_acc = run_app_acc
    exact_plus.run_app_acc = run_app_acc
    context = base.QueryContext
    context.community_members_in_circle = tracer.wrap(
        "core.probe", context.community_members_in_circle
    )
    context.community_in_subset = tracer.wrap("core.probe", context.community_in_subset)
    mec = tracer.wrap("geometry.mec", base.minimum_enclosing_circle)
    for module in algorithm_modules:
        module.minimum_enclosing_circle = mec


def main(argv) -> int:
    """Install the wrappers, run ``repro.cli.main``, dump the spans on the way out."""
    if len(argv) < 2:
        print("usage: traced_server.py DUMP.json serve [serve options]", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    from repro import cli

    try:
        return cli.main(argv[1:])
    finally:
        tracer.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
