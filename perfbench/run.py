"""diracbag benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {halfplane,sweep,disk}
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root.  Each repetition of the workload runs in a
fresh single-threaded process (see worker.py), so the program's caches start
cold, as they do for every command-line user.  An untraced run first starts
a few set-up-only processes for ``setup_s``.  Repetitions then follow one
another (a closed loop with one caller) while the next one should end within
``--seconds`` of the start; a run has at least one.  The first repetition
also checks every output; each later one must reproduce its outputs exactly.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  Reports and spans are also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".bench_out"

# Pin every BLAS/OpenMP pool the program could reach to one thread.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_ONLY = 6  # set-up-only processes per untraced run; every repetition adds its own set-up
REP_TIMEOUT_S = 150.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
)


def worker(workload, seed, mode, check=False, spans_out=None):
    """Run one repetition in a fresh process; its JSON result, or None."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--check", str(int(check))]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"repetition ({mode}) timed out after {REP_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"repetition ({mode}) exited with {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    res = json.loads(lines[-1])
    if not Path(res["program"]).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"error: imported the program from {res['program']}, not from {ROOT / 'src'}")
    return res


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def quantile(values, q):
    """Inclusive-method quantile, so few samples never extrapolate."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "diracbag" / "__init__.py").is_file():
        sys.exit(f"error: no program to measure: {ROOT / 'src' / 'diracbag'} is missing")

    inputs = workloads.make_inputs(args.workload, args.seed)
    n_ops = len(inputs["ops"])
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    # Set-up-only processes come first and count against --seconds.
    harness = []  # failures of the benchmark's own consistency checks
    setups = []
    start = time.perf_counter()
    for _ in range(0 if args.trace else SETUP_ONLY):
        res = worker(args.workload, args.seed, "setup")
        if res is None:
            harness.append("a set-up-only process failed")
            break
        setups.append(res["setup_s"])

    # Repetitions: untraced only, or untraced and traced alternately.  One
    # more starts only if it should end within --seconds, judged by the last
    # one, so a run overshoots by at most the first repetition of each mode.
    modes = ("run", "trace") if args.trace else ("run",)
    reps = []  # (mode, result or None)
    last = time.perf_counter()
    while len(reps) < len(modes) or 2 * time.perf_counter() - last - start <= args.seconds:
        mode = modes[len(reps) % len(modes)]
        spans_out = OUT / f"spans-{tag}-rep{len(reps)}.json" if mode == "trace" else None
        last = time.perf_counter()
        reps.append((mode, worker(args.workload, args.seed, mode, check=not reps, spans_out=spans_out)))
    measured_s = time.perf_counter() - start
    setup_only = len(setups)

    # Correctness: the first repetition checks every output; later ones must
    # reproduce its outputs exactly (the program is deterministic).
    problems = []
    attempted = failed = 0
    first = reps[0][1]
    for r, (mode, res) in enumerate(reps):
        attempted += n_ops
        if res is None:
            failed += n_ops
            problems.append(f"repetition {r} ({mode}) produced no result")
            continue
        for i, op in enumerate(res["ops"]):
            issue = op["error"] or "; ".join(op.get("problems", []))
            if not issue and r > 0 and (first is None or op["out"] != first["ops"][i]["out"]):
                issue = "output differs from the checked first repetition"
            if issue:
                failed += 1
                problems.append(f"repetition {r} op {i} {inputs['ops'][i]['kind']}: {issue}")

    untraced = [res for mode, res in reps if mode == "run" and res is not None]
    traced = [res for mode, res in reps if mode == "trace" and res is not None]
    for res in traced:
        harness += res["trace_errors"]

    metrics = {}
    if not args.trace and untraced:
        setups += [res["setup_s"] for res in untraced]
        op_s = sorted(op["s"] for res in untraced for op in res["ops"])
        values = {
            "wall_s": statistics.median(res["wall_s"] for res in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in untraced),
            "op_p50_s": quantile(op_s, 0.5),
            "op_p90_s": quantile(op_s, 0.9),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    elif args.trace and traced and untraced:
        for name, unit in METRICS:
            vals = [res["layers"][name] for res in traced]
            exact = unit in ("count", "ratio")
            if exact and len(set(vals)) > 1:
                harness.append(f"{name} differs between traced repetitions: {vals}")
            metrics[name] = {"value": vals[0] if exact else statistics.median(vals), "unit": unit}
        overhead = (statistics.median(res["wall_s"] for res in traced)
                    - statistics.median(res["wall_s"] for res in untraced))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for res in traced[1:]:
            if res["eig_per_op"] != traced[0]["eig_per_op"]:
                harness.append("eigensolve counts per operation differ between traced repetitions")
    else:
        harness.append("no repetition completed")

    versions = next((res["versions"] for _, res in reps if res is not None), {})
    machine = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        **versions,
        "thread_env": THREAD_ENV,
        "trace_overhead_s": metrics["trace.overhead_s"]["value"] if "trace.overhead_s" in metrics else None,
    }
    correct = failed == 0 and not harness
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine, "inputs": inputs, "measured_s": measured_s,
        "repetitions": [{"mode": mode, **({k: v for k, v in res.items() if k != "ops"} if res else {}),
                         "op_s": [op["s"] for op in res["ops"]] if res else None}
                        for mode, res in reps],
        "problems": problems, "harness_errors": harness,
    }
    with open(OUT / f"report-{tag}.json", "w") as fh:
        json.dump(report, fh, indent=1)

    for line in problems + harness:
        print(f"FAIL: {line}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {setup_only} set-up-only processes, then "
          f"{len(reps)} repetitions ({', '.join(m for m, _ in reps)}) in {measured_s:.1f} s, "
          f"closed loop, one caller")
    print("machine: " + json.dumps(machine))
    print(f"operations: {attempted} attempted, {failed} failed, fail_ratio {failed / attempted:.4f}")
    for res in traced[:1] if n_ops <= 10 else ():
        for op, calls in res["eig_per_op"].items():
            kind = inputs["ops"][int(op)]["kind"]
            print(f"eigensolves in op {op} ({kind}): " + ", ".join(f"{k} {v}" for k, v in calls.items() if v))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
