"""sacbench: the repository's benchmark of the served SAC system.

Usage::

    python3 benchmarks/sacbench/run.py --workload read-zipf --seed 1 --seconds 20 --trace 0
    python3 benchmarks/sacbench/run.py --quick

One run builds (or reuses) the cached inputs, starts the real ``serve``
daemon as a separate process, drives it from this one process over two
keep-alive connections in a closed loop, checks every answer, and prints
the metrics of ``BENCHMARK.json``: its ``end_to_end`` metrics with
``--trace 0``; with ``--trace 1`` the same traffic runs twice, untraced
and under ``traced_server.py``, and the ``per_layer`` metrics are printed.
The last line of standard output is the JSON result; a copy with
provenance and every secondary metric goes to ``.sacbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"sacbench: no program sources at {ROOT / 'src' / 'repro'}; run from a full checkout")

sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

from metrics import percentile, samples_beyond  # noqa: E402
from spans import layer_metrics  # noqa: E402
from inputs import CACHE, Inputs, source_digest  # noqa: E402
from workloads import DEADLINE_MS, SETUP_SPAWNS, WORKLOADS, Outcome  # noqa: E402

QUICK_SECONDS = 3.0


def provenance() -> dict:
    """What produced a result: source, machine, interpreter."""
    import numpy

    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            sha = target.read_text().strip() if target.is_file() else None
        else:
            sha = ref
    return {
        "git_sha": sha,
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _ms_percentile(samples, q: float) -> float:
    values = [s.latency * 1000.0 for s in samples]
    return percentile(values, q) if values else 0.0


def end_to_end(name: str, outcome: Outcome) -> Dict[str, float]:
    """The user-visible metrics of one untraced run."""
    workload = WORKLOADS[name]
    ok = [s for s in outcome.samples if s.ok]
    answered = sum(workload.answers[s.op.kind](s.op) for s in ok if s.op.kind in workload.answers)
    elapsed = sum(hi - lo for lo, hi in outcome.windows)
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "throughput_qps": answered / elapsed if elapsed else 0.0,
        "latency_p50_ms": _ms_percentile(ok, 50),
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def client_metrics(outcome: Outcome) -> Dict[str, float]:
    """Per-request-class latencies and rates as the client saw them."""
    ok = [s for s in outcome.samples if s.ok]

    def of(*kinds):
        return [s for s in ok if s.op.kind in kinds]

    deadline = [s for s in outcome.samples if s.op.kind == "query" and "deadline_ms" in s.op.body]
    answers = [json.loads(s.body) for s in deadline if s.ok]
    attempted = len(outcome.samples)
    return {
        "client.latency_p95_ms": _ms_percentile(ok, 95),
        "client.query_p50_ms": _ms_percentile(of("query"), 50),
        "client.batch_p50_ms": _ms_percentile(of("batch"), 50),
        "client.mutation_p50_ms": _ms_percentile(of("checkin", "edge"), 50),
        "client.mutation_p95_ms": _ms_percentile(of("checkin", "edge"), 95),
        "client.exact_p50_ms": _ms_percentile(of("exact"), 50),
        "client.deadline_hit_rate": (
            sum(1 for s in deadline if s.ok and s.latency * 1000.0 <= DEADLINE_MS) / len(deadline)
            if deadline
            else 0.0
        ),
        "client.exact_share": (
            sum(a["algorithm_used"] == "exact+" for a in answers) / len(answers) if answers else 0.0
        ),
        "client.error_rate": (attempted - len(ok)) / attempted if attempted else 0.0,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, inputs: Inputs) -> dict:
    """One run of one workload: the result object plus its secondary data."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[name]
    CACHE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=CACHE, prefix="run-") as tmp:
        workdir = Path(tmp)
        plain = workload.run(inputs, seed, seconds, workdir, False, 0 if trace else SETUP_SPAWNS)
        outcomes = [plain]
        secondary = {**end_to_end(name, plain), **client_metrics(plain)}
        if trace:
            traced = workload.run(inputs, seed, seconds, workdir, True, 0)
            outcomes.append(traced)
            secondary.update(layer_metrics(traced.traces))
            secondary["engine.residency.evictions"] = float(traced.evictions)
            traced_qps = end_to_end(name, traced)["throughput_qps"]
            loss = 1.0 - traced_qps / secondary["throughput_qps"]
            secondary["trace.overhead_pct"] = 100.0 * loss
    group = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in group if m["name"] not in secondary]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    problems = [p for o in outcomes for p in o.mismatches]
    hygiene = [p for o in outcomes for p in o.hygiene]
    attempted = sum(len(o.samples) for o in outcomes)
    failed = sum(1 for o in outcomes for s in o.samples if not s.ok) + len(hygiene)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": secondary[m["name"]], "unit": m["unit"]} for m in group},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        **result,
        "secondary": secondary,
        "samples": len(plain.samples),
        # Every percentile needs at least ten samples beyond it.
        "p95_samples_beyond": samples_beyond(sum(1 for s in plain.samples if s.ok), 95),
        "samples_by_kind": dict(Counter(s.op.kind for s in plain.samples if s.ok)),
        "setup_samples_s": plain.setup_s,
        "mismatches": problems[:20],
        "hygiene": hygiene[:20],
        "provenance": provenance(),
    }
    return record


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"every workload for {QUICK_SECONDS:g}s: a smoke test, never a claim",
    )
    parser.add_argument("--results-dir", type=Path, default=CACHE / "results")
    args = parser.parse_args(argv)
    if args.quick:
        names, seconds = sorted(WORKLOADS), QUICK_SECONDS
    elif args.workload is None:
        parser.error("--workload is required (or --quick)")
    else:
        names, seconds = [args.workload], args.seconds

    inputs = Inputs.load()
    args.results_dir.mkdir(parents=True, exist_ok=True)
    status = 0
    for name in names:
        started = time.perf_counter()
        record = run_workload(name, args.seed, seconds, bool(args.trace), inputs)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        stem = f"{name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
        path = args.results_dir / f"{stem}.json"
        path.write_text(json.dumps(record, indent=1))
        wall = time.perf_counter() - started
        print(f"{name} seed={args.seed} ({wall:.1f}s wall, {record['samples']} requests)")
        for metric, entry in record["metrics"].items():
            print(f"  {metric:48s} {entry['value']:12.4f} {entry['unit']}")
        for problem in record["mismatches"] + record["hygiene"]:
            print(f"  PROBLEM: {problem}")
        if not record["correct"]:
            status = 1
        result = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
