#!/usr/bin/env python3
"""Benchmark of cesmarket's public API; see perfbench/README.md.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload until --seconds have passed, checks every
output against perfbench/checks.py, and prints one JSON object as the last
line: end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
"""

from __future__ import annotations

import os

# One BLAS thread: with the default thread pool a 10x10 refine solve varied
# from 1.30 to 2.27 s on a 2-core machine.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
SETUP_PROBES = 11


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="internal: time import plus input building once and exit")
    return p.parse_args(argv)


def _probe_setup(workload, seed):
    start = time.perf_counter()
    import workloads

    workloads.build(workload, seed)
    return time.perf_counter() - start


def setup_seconds(workload, seed):
    """Median over fresh interpreters of importing cesmarket and building inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("setup probe failed")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def _round(workloads, inp, tracer=None, tag=""):
    start = time.perf_counter()
    rnd = workloads.Round(tracer, tag).run(inp)
    return rnd, time.perf_counter() - start


def main(argv=None):
    args = _parse(argv)
    if args.probe_setup:
        print(_probe_setup(args.workload, args.seed))
        return 0
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)

    import cesmarket
    import checks
    import workloads
    from tracing import Tracer

    if not os.path.abspath(cesmarket.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"cesmarket imported from {cesmarket.__file__}, not from {SRC}")
    inp = workloads.build(args.workload, args.seed)

    plain, traced = [], []     # (Round, wall seconds[, layer metrics])
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        plain.append(_round(workloads, inp))
        if tracer is not None:
            since = tracer.mark()
            with tracer:
                rnd, wall = _round(workloads, inp, tracer, f"round{len(traced)}/")
            traced.append((rnd, wall, tracer.layer_metrics(since)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rounds = [r for r, *_ in plain + traced]
    first = rounds[0]
    problems = checks.round_outputs(inp, first.outputs, workloads.SCAN_GRID,
                                    skip=first.failed_keys)
    for rnd in rounds[1:]:
        problems += checks.identical(first.outputs, rnd.outputs)
    failed = sum(r.failed for r in rounds)
    for msg in sorted({e for r in rounds for e in r.errors}):
        print(f"failed: {msg}", file=sys.stderr)
    for msg in problems[:50]:
        print(f"check: {msg}", file=sys.stderr)

    if args.trace:
        # Counts repeat exactly, so their median_low is the count itself.
        metrics = {
            name: (statistics.median if name.endswith("_s") else statistics.median_low)(
                [m[name] for *_, m in traced])
            for name in traced[0][2]
        }
        # Each traced round directly follows an untraced one; pairing them
        # cancels slow drifts in machine speed.
        metrics["trace.overhead_s"] = statistics.median(
            t[1] - p[1] for p, t in zip(plain, traced))
        units = {k: "s" if k.endswith("_s") else "count" for k in metrics}
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write(os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.json"))
    else:
        metrics = dict.fromkeys(workloads.STAGES, 0.0)
        for op in plain[0][0].times:
            metrics[op[0]] += statistics.median(r.times[op] for r, _ in plain)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb
        units = {k: "MB" if k.endswith("_mb") else "s" for k in metrics}

    print(f"{args.workload} seed {args.seed}: {len(plain)} plain and {len(traced)} "
          f"traced rounds of {first.attempted} operations; round seconds "
          + " ".join(f"{w:.3f}" for _, w, *_ in plain + traced))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
