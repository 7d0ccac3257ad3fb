"""The benchmark's fixed inputs: graphs, snapshot stores, reference answers.

Built once per source tree, untimed, and cached under ``.sacbench/`` in the
checkout; the cache key is a digest of ``src/`` and this file, so the
references always come from the same code the server runs.  The datasets
are fixed: a run's ``--seed`` changes only the traffic, never these.

* ``gowalla`` x1 (6 000 vertices, one 4 929-member 4-core) for read-zipf,
  with the ``appfast`` answer of every 4-core vertex;
* a ring lattice (4 000 rings of 50, each its own 4-core) for batch-cold,
  with one ``appfast`` answer per ring — a ring is its members' only
  feasible community, so all members share it.  The lattice is generated
  here rather than imported from ``benchmarks/bench_residency.py``, so no
  file outside the benchmark's directory can change its inputs;
* ``brightkite`` x1 (4 000 vertices) for write-mix;
* ``brightkite`` x0.02 (100 vertices, k=4 and k=5) for deadline-exact,
  with the ``exact+`` answers of its fixed phase-A vertex set.

References come from a fresh in-process ``QueryEngine`` built from the
graph, not from the stores the server opens.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CACHE = ROOT / ".sacbench"
K = 4
RINGS, RING_SIZE = 4000, 50
# Phase A of deadline-exact: a fixed vertex set, 16 at k=4 and 8 at k=5.
EXACT_SET = ((4, 16), (5, 8))
EXACT_SET_SEED = 2
EXACT_PARAMS = {"epsilon_a": 0.5}


# --------------------------------------------------------------- answers
def answer_key(members: Sequence[int], radius: float, center: Sequence[float]) -> list:
    """A comparable fingerprint of one answer: members digest, radius, centre."""
    digest = hashlib.blake2b(
        np.asarray(sorted(int(m) for m in members), dtype=np.int64).tobytes(), digest_size=12
    ).hexdigest()
    return [digest, float(radius), float(center[0]), float(center[1])]


def result_key(result) -> list:
    """:func:`answer_key` of an in-process ``SACResult``."""
    centre = result.circle.center
    return answer_key(result.members, result.radius, (centre.x, centre.y))


def payload_key(payload: dict) -> Optional[list]:
    """:func:`answer_key` of a served answer (``None`` when nothing was found)."""
    if not payload.get("found"):
        return None
    return answer_key(payload["members"], payload["radius"], payload["center"])


# ---------------------------------------------------------------- inputs
def source_digest() -> str:
    """Digest of the program sources and this file: the inputs' cache key."""
    hasher = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + [Path(__file__).resolve()]
    for path in files:
        hasher.update(str(path.relative_to(ROOT)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def ring_lattice(rings: int, size: int, seed: int):
    """Rings of ``size`` vertices, each joined to ``i±1`` and ``i±2``.

    Every ring is one 4-core component and its only feasible community, so
    every member of a ring has the same answer.  Rings sit in their own cell
    of a coarse grid, members scattered in a small disc.
    """
    from repro.graph.spatial_graph import SpatialGraph

    n = rings * size
    rng = np.random.default_rng(seed)
    local = np.sort((np.arange(size)[:, None] + np.array([-2, -1, 1, 2])) % size, axis=1)
    indices = (local[None, :, :] + (np.arange(rings) * size)[:, None, None]).reshape(-1)
    side = int(math.ceil(math.sqrt(rings)))
    cells = np.arange(rings)
    centres = np.stack([(cells % side + 0.5) / side, (cells // side + 0.5) / side], axis=1)
    angle = rng.uniform(0.0, 2.0 * math.pi, size=n)
    rho = 0.35 / side * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    offsets = np.stack([rho * np.cos(angle), rho * np.sin(angle)], axis=1)
    coords = np.repeat(centres, size, axis=0) + offsets
    return SpatialGraph.attach_arrays(
        {
            "indptr": 4 * np.arange(n + 1, dtype=np.int64),
            "indices32": indices.astype(np.int32),
            "indices64": indices.astype(np.int64),
            "coords": coords,
        }
    )


def _snapshot(graph, ks: Sequence[int], path: Path):
    """Materialise every component bundle at ``ks`` and save the store."""
    from repro.engine import QueryEngine
    from repro.store import ArtifactStore

    engine = QueryEngine(graph)
    for k in ks:
        for component in range(engine.prepare(k)):
            engine.component_artifacts(k, component)
    ArtifactStore.save(path, engine)
    return engine


def _population(engine, k: int) -> List[int]:
    labels, _ = engine.component_labels(k)
    return [int(v) for v in np.flatnonzero(labels >= 0)]


def build_inputs(target: Path) -> None:
    """Build every workload's graph, store, and reference answers into ``target``."""
    from repro.datasets.registry import load_dataset
    from repro.engine import QueryEngine
    from repro.engine.residency import bundle_nbytes

    manifest: dict = {"populations": {}}
    # read-zipf
    gowalla = load_dataset("gowalla")
    engine = _snapshot(gowalla, [K], target / "gowalla.store")
    population = _population(engine, K)
    fresh = QueryEngine(gowalla)
    (target / "ref-gowalla.json").write_text(
        json.dumps({v: result_key(fresh.search(v, K, algorithm="appfast")) for v in population})
    )
    manifest["populations"]["gowalla"] = population
    # batch-cold
    rings = ring_lattice(RINGS, RING_SIZE, seed=7)
    engine = _snapshot(rings, [K], target / "rings.store")
    manifest["rings_working_set_bytes"] = sum(
        bundle_nbytes(engine.component_artifacts(K, c)) for c in range(RINGS)
    )
    fresh = QueryEngine(rings)
    ring_refs = {}
    for ring in range(RINGS):
        answers = {
            json.dumps(result_key(fresh.search(ring * RING_SIZE + member, K, algorithm="appfast")))
            for member in (0, RING_SIZE // 2)
        }
        if len(answers) != 1:
            raise RuntimeError(f"ring {ring}: members answer differently; no ring reference")
        ring_refs[ring] = json.loads(answers.pop())
    (target / "ref-rings.json").write_text(json.dumps(ring_refs))
    # write-mix
    brightkite = load_dataset("brightkite")
    engine = _snapshot(brightkite, [K], target / "brightkite.store")
    manifest["populations"]["brightkite"] = _population(engine, K)
    # deadline-exact
    small = load_dataset("brightkite", scale=0.02)
    engine = _snapshot(small, [4, 5], target / "small.store")
    manifest["populations"]["small"] = _population(engine, K)
    fresh = QueryEngine(small)
    exact_refs, exact_set = {}, {}
    rng = np.random.default_rng(EXACT_SET_SEED)
    for k, count in EXACT_SET:
        chosen = sorted(int(v) for v in rng.choice(_population(engine, k), count, replace=False))
        exact_set[k] = chosen
        for v in chosen:
            answer = fresh.search(v, k, algorithm="exact+", **EXACT_PARAMS)
            exact_refs[f"{k}:{v}"] = result_key(answer)
    manifest["exact_set"] = exact_set
    (target / "ref-exact.json").write_text(json.dumps(exact_refs))
    (target / "manifest.json").write_text(json.dumps(manifest))


class Inputs:
    """The cached inputs of one source tree, built on first use."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.manifest = json.loads((root / "manifest.json").read_text())
        self._refs: Dict[str, dict] = {}

    @classmethod
    def load(cls) -> "Inputs":
        """The inputs of the current source tree, building them first if absent."""
        root = CACHE / f"inputs-{source_digest()}"
        if not (root / "manifest.json").exists():
            started = time.perf_counter()
            print(f"building inputs into {root.relative_to(ROOT)}", flush=True)
            for stale in CACHE.glob("inputs-*"):
                shutil.rmtree(stale, ignore_errors=True)
            partial = root.with_name(root.name + ".partial")
            partial.mkdir(parents=True)
            build_inputs(partial)
            partial.rename(root)
            print(f"inputs built in {time.perf_counter() - started:.1f}s", flush=True)
        return cls(root)

    def store(self, name: str) -> str:
        """Path of snapshot store ``name`` (``gowalla``, ``rings``, ``brightkite``, ``small``)."""
        return str(self.root / f"{name}.store")

    def reference(self, name: str) -> dict:
        """Reference answers ``name`` (``gowalla``, ``rings``, ``exact``) as answer keys."""
        if name not in self._refs:
            self._refs[name] = json.loads((self.root / f"ref-{name}.json").read_text())
        return self._refs[name]

    def population(self, name: str) -> List[int]:
        """The 4-core vertices of dataset ``name``: whom the Zipf traffic asks about."""
        return self.manifest["populations"][name]
