#!/usr/bin/env python3
"""Benchmark of schroeder: exhaustive verification suites and a seeded
stream of single library queries.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout.  Every timed section runs in a
fresh worker process (``worker.py``), started one at a time, so no memo
cache is warm unless the workload warms it itself.  Every output is checked
against its expected value; a mismatch counts as a failed operation and
makes the command exit 1.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
one plain and one traced round run, and the per-layer call counts and self
times are reported (see ``tracer.py``).  ``--workload all`` runs every
workload in turn and prints every metric with its unit.  See README.md for
why each workload exists and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from queries import make_queries, repeat_share  # noqa: E402

SUITES = ("counts", "rsk", "lattice", "sav", "interval-theorem", "differential")
WORKLOADS = {
    "sweep": ("counts",),
    "certify": ("rsk",),
    "structures": ("lattice", "sav", "interval-theorem", "differential"),
    "queries": (),
}
QUERIES_PER_ROUND = 2000
SETUP_SAMPLES = 10  # import-only workers per run, besides the measuring ones
RUN_LIMIT_S = 170  # a run must end within 180 s

# layer -> functions whose calls and self time the traced run reports
LAYER_FUNCTIONS = {
    "kernels": (
        "sweep_row_col", "sch_rows", "contains_pattern", "single_row_predicate",
        "sweep_rs_shapes", "rs_rows",
    ),
    "insertion": ("has_hook_decomposition", "pattern_of", "classify_shape", "sch_insert"),
    "tableaux": ("is_standard", "enumerate_tableaux", "count_tableaux"),
    "partitions": (
        "partitions_of", "cluster_map", "enumerate_schroeder_partitions", "is_schroeder",
    ),
    "lattice": ("join", "meet", "leq", "covers", "count_chains", "verify_differential"),
    "posets": (
        "enumerate_posets", "weakly_contains", "contains_induced",
        "build_weak_pattern_poset", "upset_in_Xn", "induced_subposet",
    ),
    "intervals": (
        "has_schroder_preimage", "interval_order", "is_interval_order",
        "intervals_of_tableau", "tableau_from_witness",
    ),
}
ROOTS = tuple(f"verify.{s}" for s in SUITES) + ("queries",)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, functions in LAYER_FUNCTIONS.items():
        for fn in functions:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    for root in ROOTS:
        units[f"{root}.self_s"] = "s"
    units["trace_overhead"] = "ratio"
    return units


class Run:
    """Results of one benchmark run: every worker's measurements and every
    operation attempted, with the failures and their reasons."""

    def __init__(self, seconds_limit: float) -> None:
        self.start = time.perf_counter()
        self.limit = seconds_limit
        self.setup = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.info = {}

    def left(self) -> float:
        return self.limit - (time.perf_counter() - self.start)

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(reason)

    def worker(self, job: dict) -> dict | None:
        """Run one fresh worker; None when it crashed or ran out of time."""
        timeout = max(self.left(), 1.0)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py")],
                input=json.dumps(job),
                capture_output=True,
                text=True,
                cwd=ROOT,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"worker for {job['kind']} exceeded {timeout:.0f} s")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.problems.append(
                f"worker for {job['kind']} exited {proc.returncode}: "
                + proc.stderr.strip()[-400:]
            )
            return None
        out = json.loads(lines[-1])
        self.setup.append(out["setup_s"])
        self.info.update(backend=out["backend"], python=out["python"])
        return out


def expected_summary(suite: str) -> str:
    return (HERE / "expected" / f"{suite}.txt").read_text()


def suite_argv(suite: str, seed: int) -> list[str]:
    argv = ["verify", "--suite", suite]
    if suite == "lattice":
        argv += ["--seed", str(seed)]
    return argv


def suite_round(run: Run, suites, seed: int, trace: bool, expected=expected_summary):
    """Each suite once, each in its own fresh worker.  A query is the whole
    round here: the researcher waits for every verdict."""
    wall, peak, spans = 0.0, 0.0, []
    for suite in suites:
        run.attempted += 1
        out = run.worker({"kind": "suite", "argv": suite_argv(suite, seed), "trace": trace})
        if out is None:
            run.fail(1, f"suite {suite} did not finish")
            return None
        want = expected(suite)
        # exit code 1 reports violated claims; it is expected where they are
        want_code = 0 if want.split("\n", 1)[0].endswith(" violations=0") else 1
        if out["stdout"] != want or out["exit_code"] != want_code:
            run.fail(1, f"suite {suite} output differs from perfbench/expected/{suite}.txt")
        wall += out["wall_s"]
        peak = max(peak, out["peak_rss_mb"])
        spans.append(out.get("spans", {}))
    return {"wall_s": wall, "peak_rss_mb": peak, "latencies": [wall], "ops": 1,
            "spans": spans}


def query_round(run: Run, queries, trace: bool):
    run.attempted += len(queries)
    out = run.worker({"kind": "queries", "queries": queries, "trace": trace})
    if out is None:
        run.fail(len(queries), "query worker did not finish")
        return None
    if out["failed"]:
        run.fail(out["failed"], "; ".join(out["errors"]))
    return {"wall_s": out["wall_s"], "peak_rss_mb": out["peak_rss_mb"],
            "latencies": out["latencies"], "ops": len(queries),
            "spans": [out.get("spans", {})]}


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(rounds, run: Run) -> dict[str, float]:
    wall = statistics.median(r["wall_s"] for r in rounds)
    latencies = [x for r in rounds for x in r["latencies"]]
    return {
        "wall_s": wall,
        "setup_s": statistics.median(run.setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "queries_per_s": rounds[0]["ops"] / wall,
        "query_p50_ms": 1000 * percentile(latencies, 50),
        "query_p99_ms": 1000 * percentile(latencies, 99),
    }


def per_layer(plain, traced, run: Run) -> dict[str, float]:
    merged: dict[str, list] = {}
    for worker_spans in traced["spans"]:
        for name, stats in worker_spans.items():
            acc = merged.setdefault(name, [0, 0.0, 0.0])
            for k, v in enumerate(stats):
                acc[k] += v
    traced_wall = sum(merged[r][2] for r in ROOTS if r in merged)
    total_self = sum(stats[1] for stats in merged.values())
    # every moment of the timed section belongs to exactly one span
    if abs(total_self - traced_wall) > 1e-6 * traced_wall + 1e-6:
        run.fail(1, f"traced self times sum to {total_self} s, wall is {traced_wall} s")
    metrics = {}
    for layer, functions in LAYER_FUNCTIONS.items():
        for fn in functions:
            calls, self_s = merged.get(f"{layer}.{fn}", [0, 0.0])[:2]
            metrics[f"{layer}.{fn}.calls"] = calls
            metrics[f"{layer}.{fn}.self_s"] = self_s
        metrics[f"{layer}.self_s"] = sum(
            s[1] for name, s in merged.items() if name.startswith(layer + ".")
        )
    for root in ROOTS:
        metrics[f"{root}.self_s"] = merged.get(root, [0, 0.0])[1]
    metrics["trace_overhead"] = traced_wall / plain["wall_s"]
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """One run of a workload.  Returns (run, metrics or None)."""
    run = Run(RUN_LIMIT_S)
    suites = WORKLOADS[workload]

    def one_round(index: int, traced: bool):
        if workload != "queries":
            return suite_round(run, suites, seed, traced)
        # each round draws fresh queries, so the latency tail is sampled
        # over many inputs rather than over one round's few slow ones
        queries = make_queries(f"{seed}:{index}", QUERIES_PER_ROUND)
        run.info.setdefault("repeat_share", repeat_share(queries))
        return query_round(run, queries, traced)

    for _ in range(SETUP_SAMPLES):
        if run.worker({"kind": "import"}) is None:
            return run, None
    if trace:
        plain = one_round(0, False)
        traced = plain and one_round(0, True)
        return run, traced and per_layer(plain, traced, run)
    rounds = []
    while True:
        t0 = time.perf_counter()
        result = one_round(len(rounds), False)
        if result is None:
            return run, None
        rounds.append(result)
        # start another round only if it should end within the budget
        elapsed = time.perf_counter() - run.start
        if elapsed + (time.perf_counter() - t0) > seconds:
            break
    run.info["rounds"] = len(rounds)
    run.info["round_wall_s"] = ",".join(f"{r['wall_s']:.4g}" for r in rounds)
    return run, end_to_end(rounds, run)


def report(workload: str, seed: int, trace: bool, run: Run, metrics) -> dict:
    units = per_layer_units() if trace else END_TO_END
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    info = dict(run.info, nproc=len(os.sched_getaffinity(0)), seed=seed)
    print(f"workload={workload} trace={int(trace)} "
          + " ".join(f"{k}={v}" for k, v in sorted(info.items())))
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"  error_rate {error_rate:.6g} ratio "
          f"({run.failed} failed of {run.attempted} attempted)")
    for name, value in (metrics or {}).items():
        print(f"  {name} {value:.6g} {units[name]}")
    return {
        "correct": metrics is not None and run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if metrics is not None else max(run.failed, 1),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in (metrics or {}).items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "schroeder" / "__init__.py").is_file():
        print(f"error: no schroeder source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run, metrics = measure(name, args.seed, args.seconds, bool(args.trace))
        results[name] = report(name, args.seed, bool(args.trace), run, metrics)
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
