"""The workload loop behind ``run.py``: rounds, timing, checks and metrics.

One process, one thread and one client in a closed loop: each operation
starts when the previous one has finished.  The run works through whole
rounds of seeded operations (see ``corpus.py``), as many as fill
``--seconds`` on the reference machine, then checks every answer.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the same rounds run with every public torolog function wrapped in a span;
the run reports the per-layer metrics and writes its spans to
``bench/results/``.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

# Every run has at least this many operations, so that at least ten latency
# samples lie beyond the 90th percentile.
MIN_OPS = 100

# Seconds one round takes on the reference machine (2 vCPU, Python 3.11).
# A run of ``--seconds S`` works through ``S / ROUND_SECONDS`` rounds: a
# count fixed by the arguments, not by the clock, so that every run of a
# workload does the same work and two traced runs of one seed make exactly
# the same calls.
ROUND_SECONDS = {
    "cli-verbs": 1.75,
    "atlas-rounding": 1.6,
    "hilbert-series": 2.5,
    "membership-queries": 0.4,
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="run.py",
        description="Run one torolog benchmark workload and print its metrics.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def round_count(workload, seconds, ops_per_round):
    wanted = round(seconds / ROUND_SECONDS[workload])
    return max(1, wanted, math.ceil(MIN_OPS / ops_per_round))


def run_ops(make_round, seed, rounds, tracer, execute):
    """Execute ``rounds`` whole rounds; return ``(op, result, seconds,
    error)`` per operation."""
    done = []
    for index in range(rounds):
        for op in make_round(seed, index):
            if tracer is not None:
                tracer.op = len(done)
            error = None
            start = time.perf_counter()
            try:
                result = execute(op)
            except Exception as e:  # the program's fault: count it, go on
                result, error = None, e
            done.append((op, result, time.perf_counter() - start, error))
    return done


def main(argv, setup_s):
    """Run the workload named in ``argv``; ``setup_s`` is the set-up time
    ``run.py`` measured before loading this module."""
    args = parse_args(argv)
    import corpus

    if args.workload not in corpus.ROUNDS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(corpus.ROUNDS)}", file=sys.stderr)
        return 2

    import torolog

    if not os.path.abspath(torolog.__file__).startswith(SRC + os.sep):
        print(f"torolog was imported from {torolog.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import checks
    import spans
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    make_round = corpus.ROUNDS[args.workload]
    rounds = round_count(args.workload, args.seconds,
                         len(make_round(args.seed, 0)))
    done = run_ops(make_round, args.seed, rounds, tracer, workloads.execute)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    failed = 0
    wrong = []
    latencies = []
    busy = 0.0
    for op, result, seconds, error in done:
        busy += seconds
        label = op.get("verb", op["kind"])
        if error is not None:
            failed += 1
            if not op.get("fault"):
                print(f"{label}: {type(error).__name__}: {error}", file=sys.stderr)
                traceback.print_exception(error, file=sys.stderr)
            continue
        reason = checks.verdict(op, result)
        if reason is checks.FAILED:
            failed += 1
            continue
        latencies.append(seconds)
        if reason is not None:
            wrong.append(f"{label}: {reason}")
    for line in wrong[:20]:
        print(f"wrong answer: {line}", file=sys.stderr)

    os.makedirs(RESULTS, exist_ok=True)
    ops_per_s = len(latencies) / busy
    if args.trace:
        print(f"ops_per_s with tracing on: {ops_per_s:.4f}", file=sys.stderr)
        stem = f"{args.workload}-seed{args.seed}"
        tracer.write(os.path.join(RESULTS, f"spans-{stem}.jsonl"))
        layer = tracer.metrics()
        metrics = {
            name: {"value": layer[name], "unit": spans.unit_of(name)}
            for name in spans.PER_LAYER
        }
    else:
        values = {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s,
            "latency_p50_ms": statistics.median(latencies) * 1000.0,
            "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000.0,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    out = {
        "correct": not wrong,
        "attempted": len(done),
        "failed": failed,
        "metrics": metrics,
    }
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
