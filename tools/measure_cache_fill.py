#!/usr/bin/env python
"""Measure what a full answer cache costs in resident memory.

Builds sacbench's gowalla store (gowalla x1 with every k=4 bundle
materialised) unless ``--store`` names one, then fills the answer cache in
a fresh process per mode: 4,096 distinct 4-core vertices answered with
AppFast at k=4 through ``SACService.submit_batch``, 32 vertices per call.
Each process reports its RSS growth over the fill; the cache-on growth
minus the cache-off growth is what the cached answers cost.  Linux only
(it reads ``VmRSS`` from ``/proc/self/status``).

Usage::

    PYTHONPATH=src python tools/measure_cache_fill.py [--store DIR]
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import tempfile
from pathlib import Path

K, FILL, PER_CALL = 4, 4096, 32


def rss_mib() -> float:
    """This process's resident set size in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS line in /proc/self/status")


def build_store(path: Path) -> None:
    """Snapshot gowalla x1 with every k=4 bundle, as sacbench's inputs do."""
    from repro.datasets.registry import load_dataset
    from repro.engine import QueryEngine
    from repro.store import ArtifactStore

    engine = QueryEngine(load_dataset("gowalla"))
    for component in range(engine.prepare(K)):
        engine.component_artifacts(K, component)
    ArtifactStore.save(str(path), engine)


def fill(store: str, use_cache: bool) -> dict:
    """Answer the fill in this process; its RSS growth and the mean answer size."""
    import numpy as np

    from repro.service import SACService

    service = SACService.open(store, use_cache=use_cache)
    labels, _ = service.engine.component_labels(K)
    vertices = [int(v) for v in np.flatnonzero(labels >= 0)[:FILL]]
    gc.collect()
    before = rss_mib()
    members = 0
    for start in range(0, len(vertices), PER_CALL):
        batch = service.submit_batch(vertices[start : start + PER_CALL], K, algorithm="appfast")
        members += sum(result.size for result in batch.results.values())
    gc.collect()
    return {
        "answers": len(vertices),
        "mean_members": round(members / len(vertices), 1),
        "rss_growth_mib": round(rss_mib() - before, 1),
        "cached": len(service.cache) if service.cache is not None else 0,
    }


def main(argv=None) -> int:
    """Run both modes in fresh processes and print their RSS growth."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", help="an existing gowalla store (built when omitted)")
    parser.add_argument("--mode", choices=("on", "off"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.mode is not None:
        print(json.dumps(fill(args.store, args.mode == "on")))
        return 0
    with tempfile.TemporaryDirectory() as workdir:
        store = args.store or str(Path(workdir) / "gowalla.store")
        if args.store is None:
            build_store(Path(store))
        runs = {}
        for mode in ("on", "off"):
            output = subprocess.run(
                [sys.executable, __file__, "--store", store, "--mode", mode],
                check=True, capture_output=True, text=True,
            ).stdout
            runs[mode] = json.loads(output)
            print(f"cache {mode}: {runs[mode]}")
    extra = runs["on"]["rss_growth_mib"] - runs["off"]["rss_growth_mib"]
    print(f"cache cost: {extra:.1f} MiB for {runs['on']['cached']} cached answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
