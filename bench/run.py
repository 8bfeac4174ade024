"""Benchmark of the rxent package: four closed-loop workloads, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (``src/rxent`` must be there).  The seed
generates every input: CSV files in a temporary directory under the
checkout, argv lists and raw arrays.  Each op's expected outcome is
computed first, independently of the package (``ref.py``, mpmath).  A fresh
worker process then imports the package and runs the ops in a closed loop
for S seconds; every outcome is judged afterwards (``referee.py``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run of the same ops (``tracing.py``).  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``correct`` is false
when an op fails for a reason outside the registered known defects.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import referee  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402

SETUP_SAMPLES = 7       # set-up is measured this many times; the median is reported
IMPORTTIME_RUNS = 3
IMPORT_ROWS = {"rxent": "rxent", "numpy": "numpy", "scipy_special": "scipy.special",
               "scipy_integrate": "scipy.integrate", "scipy_linalg": "scipy.linalg",
               "scipy_sparse": "scipy.sparse"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    for var in THREAD_VARS:
        env[var] = "1"  # one caller, no worker threads
    env["PYTHONHASHSEED"] = "0"
    return env


def import_breakdown(env):
    """Cumulative import time (ms) of each package row of ``-X importtime``,
    median over a few fresh interpreters."""
    samples = {k: [] for k in IMPORT_ROWS}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import rxent"],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        seen = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            cells = line[len("import time:"):].split("|")
            name = cells[2].strip()
            if name not in seen and cells[1].strip().isdigit():
                seen[name] = int(cells[1]) / 1000.0
        for key, module in IMPORT_ROWS.items():
            samples[key].append(seen.get(module, 0.0))
    return {k: stats.median(v) for k, v in samples.items()}


def src_lines(src):
    total = 0
    for path in sorted(glob.glob(os.path.join(src, "rxent", "*.py"))):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def _worker(spec_path, tmp, mode, seconds, env):
    result_path = os.path.join(tmp, f"result-{mode}-{time.monotonic_ns()}.json")
    spawned = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), spec_path,
                           result_path, mode, repr(seconds), repr(spawned), tmp],
                          env=env, timeout=170, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) failed:\n{proc.stderr[-3000:]}")
    with open(result_path) as fh:
        return json.load(fh)


def judge_all(ops, exps, loop):
    """Judge every execution; returns (failed executions, failures by op
    index as [reason, failed executions, executions], latencies of the
    correct executions by op index)."""
    verdicts = {}
    for k, variants in loop["outcomes"].items():
        k = int(k)
        verdicts[k] = [referee.judge(ops[k], exps[k], out) for out in variants]
    failed, bad, correct_lat, runs = 0, {}, {}, {}
    for (k, v), lat in zip(loop["execs"], loop["lat"]):
        runs[k] = runs.get(k, 0) + 1
        reason = verdicts[k][v]
        if reason is None:
            correct_lat.setdefault(k, []).append(lat)
        else:
            failed += 1
            bad.setdefault(k, [reason, 0])[1] += 1
    for k in bad:
        bad[k].append(runs[k])
    return failed, bad, correct_lat


def machine_notes(env):
    return {"nproc": os.cpu_count(), "openblas_threads": env["OPENBLAS_NUM_THREADS"],
            "python": platform.python_version(), "platform": platform.platform()}


def end_to_end(loop, failed_execs, correct_lat, setup, attempted, failed):
    execs = len(loop["lat"])
    # the median is over correct ops, each timed by its fastest execution:
    # an op repeats in every cycle, and host load only ever slows a repeat.
    # The tail is over every execution, so that an op whose failure depends
    # on the drawn inputs still counts
    best = [min(v) for v in correct_lat.values()]
    tail, pct = stats.tail(loop["lat"])
    metrics = {
        "ops_per_s": ((execs - failed_execs) / loop["elapsed"], "1/s"),
        "op_ms_p50": (stats.median(best) * 1e3 if best else float("nan"), "ms"),
        "op_ms_tail": (tail * 1e3, "ms"),
        "ops_failed_ratio": (failed / attempted, "ratio"),
        "peak_rss_mb": (loop["rss_mb"], "MB"),
        "setup_s": (stats.median(setup), "s"),
    }
    notes = {"op_ms_tail": f"p{pct:.2f}, {stats.TAIL_BEYOND} samples beyond, n={execs}",
             "op_ms_p50": f"median over {len(best)} correct ops of each one's fastest execution",
             "setup_s": f"median of {len(setup)}",
             "ops_failed_ratio": f"{failed} of {attempted} distinct ops"}
    return metrics, notes


def per_layer(trace, imports, lines):
    ops_n = trace["ops"]
    totals = trace["totals"]
    metrics = {}
    for name, _, _ in tracing.LAYERS:
        calls, own = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls_per_op"] = (calls / ops_n, "count")
        metrics[f"{name}.self_us_per_op"] = (own / ops_n * 1e6, "us")
    for name in tracing.ENTRY_POINTS:
        metrics[f"{name}.raised_per_op"] = (trace["raised"].get(name, 0) / ops_n, "count")
    results, quad = trace["differential"]
    metrics["differential.quadrature_result_ratio"] = (quad / results if results else 0.0, "ratio")
    for key, ms in imports.items():
        metrics[f"import.{key}_ms"] = (ms, "ms")
    metrics["src.lines"] = (lines, "lines")
    op_us = trace["op_s"] * 1e6
    layers_us = sum(own for name, (_, own) in totals.items() if name != tracing.ROOT) / ops_n * 1e6
    metrics["trace.op_us"] = (op_us, "us")
    metrics["trace.harness_us"] = (op_us - layers_us, "us")
    metrics["trace.overhead_ratio"] = (trace["traced_elapsed"] / trace["plain_elapsed"] - 1.0, "ratio")
    return metrics


def _closure_check(trace, metrics):
    """Layer self times plus the root span's own time (the benchmark's
    dispatch and unwrapped package code) against the op time measured
    outside the spans."""
    ops_n = trace["ops"]
    root_us = trace["totals"].get(tracing.ROOT, (0, 0.0))[1] / ops_n * 1e6
    op_us = metrics["trace.op_us"][0]
    layers_us = op_us - metrics["trace.harness_us"][0]
    gap = (op_us - layers_us - root_us) / op_us
    within = abs(gap) <= abs(metrics["trace.overhead_ratio"][0])
    return (f"layers {layers_us:.1f} + root span {root_us:.1f} = {layers_us + root_us:.1f} us "
            f"of {op_us:.1f} us, gap {gap:+.2%} ({'within' if within else 'OUTSIDE'} "
            f"the tracing overhead)")


def report(args, notes_machine, imports, lines, metrics, notes, ops, bad, loop):
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in notes_machine.items()))
    print("imports  " + "  ".join(f"{k}={v:.1f}ms" for k, v in imports.items())
          + f"  src.lines={lines}")
    print(f"ops      {len(ops)} distinct, {len(bad)} failed; "
          f"{len(loop['lat'])} executions, {sum(c for _, c, _ in bad.values())} failed; "
          f"loop {loop['elapsed']:.3f} s wall, {loop['cpu']:.3f} s cpu")
    for name, (val, unit) in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<58} {val:>14.6g} {unit}{extra}")
    unexpected = 0
    if bad:
        print("failed ops:")
    for k in sorted(bad):
        reason, count, runs = bad[k]
        defect = referee.known_defect(ops[k], reason)
        unexpected += defect is None
        tag = f"known defect {defect}" if defect else "UNEXPECTED"
        print(f"  {ops[k]['id']} {ops[k]['kind']} {count} of {runs} [{tag}]: {reason}")
    print(f"unexpected failures: {unexpected}")
    return unexpected == 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rxent", "__init__.py")):
        print(f"error: no package at {src}/rxent; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = _env(src)
    tmp = os.path.join(root, ".bench_tmp", f"{args.workload}-{args.seed}-{os.getpid()}")
    out = os.path.join(root, ".bench_out")
    os.makedirs(tmp)
    os.makedirs(out, exist_ok=True)
    try:
        ops = gen.build(args.workload, args.seed, tmp)
        exps = [referee.expectations(op) for op in ops]
        spec_path = os.path.join(tmp, "ops.json")
        with open(spec_path, "w") as fh:
            json.dump({"workload": args.workload, "ops": ops, "bench": BENCH, "out": out}, fh)
        imports = import_breakdown(env)
        lines = src_lines(src)
        mode = "trace" if args.trace else "run"
        setup = []
        if args.workload != "cli_oneshot" and not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup += _worker(spec_path, tmp, "setup", args.seconds, env)["setup_s"]
        res = _worker(spec_path, tmp, mode, args.seconds, env)
        setup += res["setup_s"]
        loop = res["trace"]["loop"] if args.trace else res
        failed_execs, bad, correct_lat = judge_all(ops, exps, loop)
        # an op is one slot of the seeded list, attempted in every cycle of
        # the loop; it fails if any of its executions does.  Counted this way,
        # attempted and failed depend on the seed alone, not on the timing
        attempted, failed = len(loop["outcomes"]), len(bad)
        if args.trace:
            metrics, notes = per_layer(res["trace"], imports, lines), {}
            t = res["trace"]
            notes["trace.overhead_ratio"] = (f"{t['ops']} ops traced in {t['traced_elapsed']:.3f}s, "
                                             f"untraced {t['plain_elapsed']:.3f}s")
            notes["trace.harness_us"] = "op time outside every layer span"
            if args.workload != "cli_oneshot":
                notes["trace.harness_us"] += "; " + _closure_check(t, metrics)
        else:
            metrics, notes = end_to_end(loop, failed_execs, correct_lat, setup, attempted, failed)
        correct = report(args, machine_notes(env), imports, lines, metrics, notes, ops, bad, loop)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not args.trace:
        # printed above, not gated: the ratio is carried by attempted / failed,
        # and the tail is the cost of the single costliest op (bench/README.md)
        for name in ("ops_failed_ratio", "op_ms_tail"):
            metrics.pop(name)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
