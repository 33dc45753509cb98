"""One fresh worker process: import the program, run one timed section, and
print one JSON line with the measurements.

The job arrives as JSON on stdin:

* ``{"kind": "import"}`` - only measure the import (set-up) time.
* ``{"kind": "suite", "argv": [...]}`` - run ``cli.main(argv)`` once, the way
  ``schroeder verify`` runs a suite, and return its stdout and exit code.
* ``{"kind": "queries", "queries": [[kind, input], ...]}`` - call one library
  function per query in a closed loop with one client, time each call, then
  check every answer against an independent computation.

With ``"trace": true`` every layer function is wrapped (see ``tracer.py``)
and the per-function call counts and self times are returned as well.
"""

import os
import sys
import time


def main() -> int:
    job_text = sys.stdin.read()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(root, "src"))
    import schroeder
    import schroeder.cli
    import schroeder.verify

    setup_s = time.perf_counter() - t0

    import json
    import platform

    if not os.path.abspath(schroeder.__file__).startswith(os.path.join(root, "src")):
        raise RuntimeError(f"imported schroeder from {schroeder.__file__}, not {root}/src")
    job = json.loads(job_text)
    out = {
        "setup_s": setup_s,
        "backend": schroeder.backend(),
        "python": platform.python_version(),
    }
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import Tracer

    tracer = Tracer() if job.get("trace") else None
    if job["kind"] == "suite":
        out.update(run_suite(job["argv"], tracer))
    elif job["kind"] == "queries":
        out.update(run_queries(job["queries"], tracer))
    else:
        out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _span(tracer, name):
    """When tracing, wrap the layers now and return a root span for the
    timed section; otherwise return a context that does nothing."""
    import contextlib

    if tracer is None:
        return contextlib.nullcontext()
    from tracer import install

    install(tracer)
    return tracer.root(name)


def run_suite(argv, tracer):
    import contextlib
    import io

    from schroeder import cli

    buf = io.StringIO()
    suite = argv[argv.index("--suite") + 1]
    with contextlib.redirect_stdout(buf), _span(tracer, "verify." + suite):
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall_s = time.perf_counter() - t0
    out = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "stdout": buf.getvalue(),
        "exit_code": code,
    }
    if tracer is not None:
        out["spans"] = tracer.stats
    return out


def _ops():
    """Query kind -> library function, looked up after any tracing is
    installed so that the calls go through the wrapped bindings."""
    from schroeder import insertion, intervals, lattice, tableaux

    return {
        "sch_insert": insertion.sch_insert,
        "classify_shape": insertion.classify_shape,
        "count_tableaux": tableaux.count_tableaux,
        "covers": lattice.covers,
        "count_chains": lattice.count_chains,
        "preimage": intervals.has_schroder_preimage,
    }


def run_queries(queries, tracer):
    from queries import argument, check_answer

    args = [argument(kind, data) for kind, data in queries]
    answers = [None] * len(args)
    errors = {}
    latencies = []
    clock = time.perf_counter
    with _span(tracer, "queries"):
        ops = _ops()
        calls = [(ops[kind], arg) for (kind, _), arg in zip(queries, args)]
        t0 = clock()
        for i, (fn, arg) in enumerate(calls):
            t = clock()
            try:
                answers[i] = fn(arg)
            except Exception as exc:  # a failed query is counted, not fatal
                errors[i] = repr(exc)
            latencies.append(clock() - t)
        wall_s = clock() - t0
    out = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb(), "latencies": latencies}
    if tracer is not None:
        # the checks below call the wrapped functions too
        out["spans"] = {name: list(v) for name, v in tracer.stats.items()}
    for i, (kind, _) in enumerate(queries):
        if i not in errors and not check_answer(kind, args[i], answers[i]):
            errors[i] = f"{kind} answer disagrees with the independent check"
    out["failed"] = len(errors)
    out["errors"] = [f"query {i}: {e}" for i, e in sorted(errors.items())[:5]]
    return out


if __name__ == "__main__":
    sys.exit(main())
