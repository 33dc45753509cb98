#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny size, in a few seconds:

    python3 perfbench/smoke.py

It checks that BENCHMARK.json names exactly the workloads and metrics that
run.py reports, that the shortest suite passes against its expected summary
and that a deliberately altered expected summary is reported as a failed
operation, that a tiny query round passes plain and traced with the traced
self times adding up, and that a wrong query answer fails its check.
"""

from __future__ import annotations

import json
import sys

import run as bench
from queries import check_answer, make_queries


def main() -> int:
    problems = []

    def expect(condition: bool, what: str) -> None:
        if not condition:
            problems.append(what)

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS),
           "BENCHMARK.json workloads differ from run.py")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END,
           "BENCHMARK.json end_to_end metrics differ from run.py")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units(),
           "BENCHMARK.json per_layer metrics differ from run.py")

    run = bench.Run(60)
    bench.suite_round(run, ["differential"], 0, False)
    expect(run.attempted == 1 and run.failed == 0,
           f"differential failed against its expected summary: {run.problems}")

    def altered(suite: str) -> str:
        return bench.expected_summary(suite).replace("violations=6", "violations=5", 1)

    run = bench.Run(60)
    bench.suite_round(run, ["differential"], 0, False, expected=altered)
    expect(run.attempted == 1 and run.failed == 1,
           "an altered expected summary was not reported as a failed operation")

    run = bench.Run(60)
    plain = bench.suite_round(run, ["differential"], 0, False)
    traced = bench.suite_round(run, ["differential"], 0, True)
    metrics = bench.per_layer(plain, traced, run)
    expect(run.failed == 0 and metrics["lattice.verify_differential.calls"] == 1,
           f"traced differential round failed: {run.problems}")

    queries = make_queries(0, 60)
    run = bench.Run(60)
    plain = bench.query_round(run, queries, False)
    traced = bench.query_round(run, queries, True)
    metrics = bench.per_layer(plain, traced, run)
    expect(run.attempted == 120 and run.failed == 0,
           f"tiny query rounds failed: {run.problems}")
    expect(set(metrics) == set(bench.per_layer_units()),
           "traced query round reports other metrics than per_layer_units")

    sys.path.insert(0, str(bench.ROOT / "src"))
    from schroeder import tableaux

    shape = (4, 3, 2)
    expect(not check_answer("count_chains", shape, tableaux.count_tableaux(shape) + 1),
           "a wrong chain count passed its check")

    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
