"""Compare two sets of sacbench results: the parent's and a change's.

Usage::

    python3 benchmarks/sacbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files ``run.py`` writes (``--results-dir``),
at least five runs per workload on each side, paired by seed.  For every
(metric, workload) it prints each side's median and quartiles and a
verdict from ``metrics.verdict``: ``regressed`` beyond the metric's bound,
``unresolved`` when the spread is wider than the bound, ``improved`` only
under the nine-of-ten paired-win rule, else ``unchanged``.  End-to-end
metrics come from ``--trace 0`` runs and are judged against their bounds;
per-layer metrics come from ``--trace 1`` runs and are informational.
Failure rates and correctness are compared too.  Exit code 1 means a
regression, more failures than the parent, or an incorrect run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import quartiles, verdict, worsening  # noqa: E402

MIN_RUNS = 5


def load(directory: Path) -> Dict[Tuple[str, int], List[dict]]:
    """Result records grouped by ``(workload, trace)``."""
    groups: Dict[Tuple[str, int], List[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    return groups


def by_seed(records: List[dict], metric: str) -> Dict[int, float]:
    """One value per seed (the median when a seed ran more than once)."""
    values: Dict[int, List[float]] = {}
    for record in records:
        entry = record["metrics"].get(metric)
        if entry is not None:
            values.setdefault(record["seed"], []).append(entry["value"])
    return {seed: statistics.median(v) for seed, v in values.items()}


def describe(values: Dict[int, float]) -> str:
    """``median [q1, q3] n=...`` of one side's values."""
    if not values:
        return "-"
    q1, median, q3 = quartiles(list(values.values()))
    return f"{median:11.4f} [{q1:.4f}, {q3:.4f}] n={len(values)}"


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    groups = {0: spec["end_to_end"], 1: spec["per_layer"]}
    bad = False
    for key in sorted(set(parent) | set(change)):
        workload, trace = key
        a, b = parent.get(key, []), change.get(key, [])
        print(f"\n== {workload} (trace {trace}): {len(a)} parent runs, {len(b)} change runs")
        if min(len(a), len(b)) < MIN_RUNS:
            print(f"   fewer than {MIN_RUNS} runs on a side: at best unresolved")
        for side, records in (("parent", a), ("change", b)):
            attempted = sum(r["attempted"] for r in records)
            failed = sum(r["failed"] for r in records)
            incorrect = sum(1 for r in records if not r["correct"])
            rate = failed / attempted if attempted else 0.0
            print(f"   {side}: {failed}/{attempted} failed ({rate:.4%}), {incorrect} incorrect")
        a_rate = sum(r["failed"] for r in a) / max(1, sum(r["attempted"] for r in a))
        b_rate = sum(r["failed"] for r in b) / max(1, sum(r["attempted"] for r in b))
        if b_rate > a_rate or any(not r["correct"] for r in b):
            print("   VERDICT failures: regressed")
            bad = True
        for metric in groups[trace]:
            name, better = metric["name"], metric["better"]
            bound = metric.get("bound")
            pa, pb = by_seed(a, name), by_seed(b, name)
            judged = verdict(pa, pb, better, bound)
            if min(len(pa), len(pb)) < MIN_RUNS and judged in ("unchanged", "improved"):
                judged = "unresolved"
            delta = ""
            if pa and pb:
                median_a = quartiles(list(pa.values()))[1]
                worse = worsening(median_a, quartiles(list(pb.values()))[1], better)
                delta = f"{-worse:+8.2%} better" if worse <= 0 else f"{worse:+8.2%} worse"
            limit = f"bound {bound:.0%}" if bound is not None else "no bound"
            print(f"   {name:44s} {metric['unit']:6s} parent {describe(pa)}")
            print(f"   {'':44s} {'':6s} change {describe(pb)}  {delta}  {limit}  -> {judged}")
            if judged == "regressed":
                bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
