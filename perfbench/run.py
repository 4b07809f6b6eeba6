"""Run one benchmark workload in this process and report its metrics.

    python3 perfbench/run.py --workload order-null --seed 10000 \\
        --seconds 20 --trace 0

The workloads are ``order-null``, ``allocate-spiked`` and
``backtest-rolling`` (see perfbench/README.md).  A readable report comes
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, read from spans recorded around calls into the package.
The program is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=10_000)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="op time to measure per loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=int, metavar="WARMUP_OP",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def configure_blas() -> int:
    """Pin the BLAS pool to the cores this process may use (what ``nproc``
    reports, OpenBLAS's own default) before numpy loads."""
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    os.environ.pop("MAXVARIETY_WORKERS", None)
    return threads


def blas_threads_in_force():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def stamp(args, threads: int) -> dict:
    import numpy as np
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_set": threads,
        "blas_threads_in_force": blas_threads_in_force(),
    }


def run_op(workload, index: int, workdir: Path, tracer=None):
    """One op into a fresh output directory; returns (seconds, Outcome)."""
    from workloads import Outcome
    out = workdir / "ops" / str(index)
    if tracer is not None:
        tracer.op = index
        root = tracer.open("op")
    start = time.perf_counter()
    try:
        raw = workload.run(index, out)
    except Exception:  # a failed op is counted, and the run goes on
        failure = traceback.format_exc()
    else:
        failure = None
    finally:
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.close(root)
    try:
        if failure is not None:
            return latency, Outcome([f"op {index} raised:\n{failure}"])
        try:
            return latency, workload.check(index, out, raw)
        except Exception:
            return latency, Outcome(
                [f"op {index}: check raised:\n{traceback.format_exc()}"])
    finally:
        shutil.rmtree(out, ignore_errors=True)


def timed_loop(workload, seconds: float, workdir: Path, reference,
               tracer=None):
    """Closed loop, one caller, until ``seconds`` of op time are measured
    and the ops have made whole cycles over the workload's inputs.

    Ops are numbered from 1.  The reference kernel runs before and after
    each untraced op; the mean of the two gives the op's host-speed scale.
    With a tracer each input then runs again, traced, until the traced ops
    reach ``seconds``; pairing them keeps drift in host speed out of the
    tracing overhead.  Returns the untraced latencies, their scales, the
    traced latencies, and the untraced and traced Outcomes.
    """
    import hostspeed
    import spans
    plain, scales, traced, outcomes, traced_outcomes = [], [], [], [], []
    index = 1
    before = reference.seconds()
    while (sum(traced if tracer else plain) < seconds
           or len(plain) % workload.cycle):
        latency, outcome = run_op(workload, index, workdir)
        after = reference.seconds()
        plain.append(latency)
        scales.append(2 * hostspeed.NOMINAL_S / (before + after))
        outcomes.append(outcome)
        if tracer:
            with spans.hooked(tracer):
                latency, outcome = run_op(workload, index, workdir, tracer)
            traced.append(latency)
            traced_outcomes.append(outcome)
            after = reference.seconds()
        before = after
        index += 1
    return plain, scales, traced, outcomes, traced_outcomes


def setup_seconds(args, warmup_op: int, reference) -> tuple[float, float,
                                                            list[str]]:
    """Start a fresh process that sets the workload up, and time it from
    launch until its first timed op would be ready.  Each set-up warms up
    on its own input, so the median spans several inputs' costs.  Returns
    the set-up time, the host-speed scale the reference kernel gave around
    it, and the problems its warm-up op's checks found."""
    import hostspeed
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only", str(warmup_op)]
    before = reference.seconds()
    start = time.monotonic()
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        done = None
    end = time.monotonic()
    scale = 2 * hostspeed.NOMINAL_S / (before + reference.seconds())
    try:
        result = json.loads(done.stdout.splitlines()[-1])
        return result["ready"] - start, scale, result["problems"]
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        detail = ("timed out" if done is None else
                  f"exited {done.returncode}:\n{done.stderr[-4000:]}")
        return end - start, scale, [f"set-up process {detail}"]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: at p90 of 100 values, 10 lie beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "maxvariety" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    threads = configure_blas()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # loads numpy, under the thread count set above
    import hostspeed
    import spans
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = workloads.WORKLOADS[args.workload]
    workdir = ROOT / "perfbench" / ".work" / f"{args.workload}-{os.getpid()}"

    workdir.mkdir(parents=True)
    try:
        if args.setup_only is not None:
            workload = workload_cls(workdir, args.seed)
            workload.synthesize()
            _, warm = run_op(workload, args.setup_only, workdir)
            ready = time.monotonic()
            print(json.dumps({"ready": ready, "problems": warm.problems}))
            return 0

        with hostspeed.Reference() as reference:
            setups = [setup_seconds(args, k, reference)
                      for k in range(1, SETUP_SAMPLES + 1)]
            # the workload wraps names for its checks first, so that
            # removing the trace hooks restores those wrappers
            workload = workload_cls(workdir, args.seed)
            tracer = spans.Tracer() if args.trace else None
            with spans.hooked(tracer) if tracer else contextlib.nullcontext():
                workload.synthesize()
            _, warm = run_op(workload, 0, workdir)
            latencies, scales, traced, outcomes, traced_outcomes = timed_loop(
                workload, args.seconds, workdir, reference, tracer)
        # the inputs order_hit_share counts that the loop did not reach
        hit_outcomes = outcomes[:workload.hit_ops] + [
            run_op(workload, index, workdir)[1]
            for index in range(len(outcomes) + 1, workload.hit_ops + 1)]
        _, repeat = run_op(workload, 0, workdir)
        if repeat.fingerprint != warm.fingerprint:
            repeat.problems.append("repeat of op 0 wrote different bytes "
                                   "than its first run")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    setup_outcomes = [workloads.Outcome(problems)
                      for _, _, problems in setups]
    every = [*setup_outcomes, warm, *outcomes, *traced_outcomes,
             *hit_outcomes[len(outcomes):], repeat]
    failed = [o for o in every if o.problems]
    for outcome in failed[:3]:
        print("\n".join(outcome.problems), file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("stamp " + json.dumps(stamp(args, threads)))
    hits = [k == workload.planted_k for o in hit_outcomes for k in o.k_hats]
    metrics = end_to_end(setups, latencies, scales, outcomes, hits)
    report(metrics, setups, latencies, scales, len(failed) / len(every),
           outcomes, len(hits))
    if tracer:
        metrics = per_layer(tracer, latencies, traced)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def end_to_end(setups, latencies, scales, outcomes, hits) -> dict:
    """The metrics BENCHMARK.json lists as end to end: name -> (value, unit).

    Times are corrected for host speed: each is multiplied by the scale
    the reference kernel gave around it (see hostspeed.py).  ``hits`` says,
    per order chosen on the inputs order_hit_share counts, whether it was
    the planted one.
    """
    corrected = [t * scale for t, scale in zip(latencies, scales)]
    return {
        "setup_s": (statistics.median(t * scale for t, scale, _ in setups),
                    "s"),
        "ops_per_s": (sum(not o.problems for o in outcomes) / sum(corrected),
                      "1/s"),
        "op_p50_ms": (1e3 * statistics.median(corrected), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "order_hit_share": (sum(hits) / len(hits) if hits else 0.0,
                            "ratio"),
    }


def report(metrics, setups, latencies, scales, error_share, outcomes,
           hit_orders) -> None:
    """Print the end-to-end metrics, the raw wall-clock times they were
    corrected from, and the figures kept out of the JSON line."""
    shown = dict(metrics, error_share=(error_share, "ratio"))
    if len(latencies) >= 100:  # ten samples beyond the 90th percentile
        shown["op_p90_ms"] = (1e3 * percentile(
            [t * scale for t, scale in zip(latencies, scales)], 0.9), "ms")
    shown["setup_wall_s"] = (statistics.median(t for t, _, _ in setups), "s")
    shown["ops_per_wall_s"] = (
        sum(not o.problems for o in outcomes) / sum(latencies), "1/s")
    shown["op_p50_wall_ms"] = (1e3 * statistics.median(latencies), "ms")
    shown["host_speed"] = (statistics.median(scales), "1")
    ratios = [r for o in outcomes for r in o.ratios]
    if ratios:
        shown["variety_ratio_mean"] = (statistics.fmean(ratios), "1")
    for name, (value, unit) in shown.items():
        print(f"  {name:<22} {value:>12.6g} {unit}")
    print(f"  ({len(latencies)} untraced timed ops; setup_s is the median of "
          f"{SETUP_SAMPLES} set-ups in fresh processes; order_hit_share "
          f"counts {hit_orders} orders)")


def per_layer(tracer, latencies, traced) -> dict:
    """Print and return the per-layer metrics: name -> (value, unit)."""
    import maxvariety
    import spans
    units = {name: unit for name, unit, _, _ in spans.LAYER_METRICS}
    metrics = {name: (value, units[name]) for name, value in
               spans.layer_metrics(tracer, maxvariety.variety_ratio).items()}
    overhead = statistics.median(traced) - statistics.median(latencies)
    metrics["trace.overhead_ms"] = (1e3 * overhead, "ms")
    print("per-layer metrics, per call (traced ops and input synthesis):")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>12.6g} {unit}")
    for hook in tracer.missing:
        print(f"  missing hook {hook.module}.{hook.attr}: "
              f"{hook.span} not measured")
    print(f"self-time share of op time ({len(traced)} traced ops; tracing "
          f"overhead {1e3 * overhead:+.3f} ms per op, "
          f"{overhead / statistics.median(latencies):+.2%}):")
    shares = spans.layer_shares(tracer.spans)
    for module, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {module:<14} {share:7.2%}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
