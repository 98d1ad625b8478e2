"""Seeded closed-loop benchmark of eigensel.

    python3 perfbench/run.py --workload bvp3p --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 0

Runs operations of the workload one after another until --seconds have
passed (the operation in progress finishes), each on inputs made from the
seed and its index, and checks every result from outside the program.
With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 each operation runs once untraced and once traced
on the same inputs, and the metrics are the per-layer ones.  Details,
span files and the environment stamp go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

# BLAS threads are fixed before numpy loads: one thread keeps reductions in
# a fixed order (iteration counts repeat exactly) and the timings free of
# contention for the machine's cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# name and unit; BENCHMARK.json lists the same metrics
END_TO_END = (
    ("solve_s", "s"),
    ("pairs_per_s", "1/s"),
    ("pairs_found", "count"),
    ("outer_iterations", "count"),
    ("outer_per_pair", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
IMPORT_SAMPLES = 7
WORKLOADS = ("bvp3p", "gyro_sparse", "qep_dense", "cli_chain")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


# what eigensel itself imports; loaded before the clock starts, so the
# import time is the package's own and not numpy's or scipy's, whose load
# time follows the disk cache more than any change to eigensel
DEPENDENCIES = ("argparse", "csv", "dataclasses", "itertools", "json",
                "typing", "warnings", "numpy", "scipy.io", "scipy.linalg",
                "scipy.sparse", "scipy.sparse.linalg")


def import_seconds():
    """(seconds of `import eigensel.cli`, seconds of importing its
    dependencies before it) in a fresh interpreter."""
    code = ("import time; t0 = time.perf_counter(); "
            f"import {', '.join(DEPENDENCIES)}; "
            "t1 = time.perf_counter(); import eigensel.cli; "
            "print(time.perf_counter() - t1, t1 - t0)")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    own, deps = out.stdout.strip().splitlines()[-1].split()
    return float(own), float(deps)


def environment():
    """What the numbers depend on besides the code: versions, BLAS, cores."""
    import numpy as np
    import scipy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse",
                 "HEAD"], capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "eigensel")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_op(workload, params, seed, tracer=None, op=0):
    """Build, run (timed) and check one operation; returns (seconds,
    build seconds, Outcome).  An exception is an error of the outcome."""
    from workloads import Outcome

    t0 = time.perf_counter()
    inputs = workload.build(params, seed)
    t1 = time.perf_counter()
    try:
        if tracer is None:
            raw = workload.run(inputs)
        else:
            with tracer.installed(op):
                raw = workload.run(inputs)
        t2 = time.perf_counter()
        outcome = workload.check(inputs, raw)
    except Exception:  # a failing operation is reported, not fatal
        t2 = time.perf_counter()
        outcome = Outcome(params["pairs"], 0, 0, True, Counter(),
                          [traceback.format_exc(limit=3)])
    return t2 - t1, t1 - t0, outcome


def run_all(args):
    """Run every workload in its own process (peak RSS is per process) and
    print one result line with the metrics named <workload>.<metric>."""
    results = {}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True,
            timeout=900)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            return out.returncode
        results[name] = json.loads(out.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "eigensel", "__init__.py")):
        print(f"error: no eigensel package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)

    # numpy and the package load only now: after the BLAS variables are set
    # and after SRC is known to hold the package
    import eigensel
    import layers
    import workloads
    from tracer import Tracer

    if not os.path.abspath(eigensel.__file__).startswith(SRC + os.sep):
        print(f"error: eigensel imported from {eigensel.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    workload = workloads.WORKLOADS[args.workload]
    params = dict(workloads.FULL[args.workload],
                  workdir=os.path.join(OUT, f"work-{args.workload}-{args.seed}"))
    # import samples are spread over the run: the machine's speed drifts
    # over seconds, and back-to-back samples would all share one state
    imports = []

    tracer = None
    if args.trace:
        tracer = Tracer(eigensel, constructors=layers.CONSTRUCTORS,
                        hooks=layers.HOOKS)
    # one reduced-size operation first, so lazy imports and first calls into
    # LAPACK are not charged to the first timed operation
    warmup_s, _, warm = run_op(workload, dict(workloads.SMOKE[args.workload],
                                              workdir=params["workdir"]),
                               workloads.op_seed(args.seed, 0))
    times, builds, outcomes = [], [], []
    traced, traced_times = [], []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        s = workloads.op_seed(args.seed, i)
        if tracer is None:
            dt, bt, out = run_op(workload, params, s)
        else:
            # same inputs untraced and traced, in alternating order
            if i % 2 == 0:
                dt, bt, out = run_op(workload, params, s)
                tdt, _, tout = run_op(workload, params, s, tracer, i)
            else:
                tdt, _, tout = run_op(workload, params, s, tracer, i)
                dt, bt, out = run_op(workload, params, s)
            if (tout.verified, tout.outer, tout.truncated) != (
                    out.verified, out.outer, out.truncated):
                tout.errors.append("traced run differs from the untraced run")
            traced.append(tout)
            traced_times.append(tdt)
        times.append(dt)
        builds.append(bt)
        outcomes.append(out)
        codes = f" exit={out.exit_codes}" if out.exit_codes else ""
        print(f"op {i} seed {s}: {dt:.3f} s, pairs {out.verified}/"
              f"{out.requested}, outer {out.outer}, truncated {out.truncated}"
              f"{codes}" + "".join(f"\n  ERROR {e}" for e in out.errors))
        i += 1
        now = time.perf_counter()
        if not args.trace and len(imports) < IMPORT_SAMPLES * (
                1 - (deadline - now) / args.seconds):
            imports.append(import_seconds())
        if now >= deadline:
            break
    while not args.trace and len(imports) < IMPORT_SAMPLES:
        imports.append(import_seconds())
    shutil.rmtree(params["workdir"], ignore_errors=True)

    all_outcomes = [warm] + outcomes + traced
    failed = sum(1 for o in all_outcomes if o.errors)
    wide_failed = sum(o.stopped_short for o in outcomes) / len(outcomes)
    verified = sum(o.verified for o in outcomes)
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "params": params, "warmup_s": warmup_s,
              "import_s": [own for own, _ in imports],
              "dependency_import_s": [deps for _, deps in imports],
              "build_s": builds,
              "ops": [{"seconds": t, "verified": o.verified,
                       "requested": o.requested, "outer": o.outer,
                       "truncated": o.truncated, "exit_codes": o.exit_codes,
                       "events": dict(o.events), "errors": o.errors}
                      for t, o in zip(times, outcomes)]}
    if tracer is None:
        metrics = {
            "solve_s": statistics.median(times),
            "pairs_per_s": verified / sum(times),
            "pairs_found": verified / len(outcomes),
            "outer_iterations": statistics.mean(o.outer for o in outcomes),
            # a run with no verified pair counts its iterations as for one
            "outer_per_pair": sum(o.outer for o in outcomes) / max(verified, 1),
            "setup_s": statistics.median(own for own, _ in imports)
            + statistics.median(builds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        units = dict(END_TO_END)
    else:
        overhead = statistics.median(traced_times) - statistics.median(times)
        metrics = layers.per_layer_metrics(tracer.spans, tracer.counters,
                                           traced, workload.solver, overhead)
        units = layers.UNITS
        spans_path = os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.write_spans(spans_path)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
        top = sorted((k for k in metrics
                      if k.endswith(".self_s") and k.count(".") > 1),
                     key=lambda k: -metrics[k])
        print("largest self times per op: " + ", ".join(
            f"{k} {metrics[k]:.3f}" for k in top[:8]))
    result["metrics"] = metrics
    result["failed_ratio"] = wide_failed
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(result, f, indent=1, default=str)
    print(f"failed_ratio (truncated, short, wrong or non-zero exit): "
          f"{wide_failed:.3f} over {len(outcomes)} ops")
    for k in sorted(metrics) if args.trace else units:
        print(f"{k} = {metrics[k]:.6g} {units[k]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(all_outcomes),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
