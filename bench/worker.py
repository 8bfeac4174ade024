"""Run one workload's ops in a fresh interpreter: the process that is measured.

    python bench/worker.py OPS_JSON RESULT_JSON MODE SECONDS SPAWNED TMPDIR

MODE is ``setup`` (import and warm up only), ``run`` (timed loop) or
``trace`` (traced loop, then an untraced replay of the same ops).  SPAWNED
is the parent's ``perf_counter()`` just before it started this process;
both clocks are CLOCK_MONOTONIC, so set-up time counts interpreter start.

One caller, closed loop: the next op starts when the previous one ends.
The in-process workloads import ``rxent`` here; ``cli_oneshot`` starts one
``python -m rxent`` child per op and never imports it.
"""

import sys
import time

WARMUP_OPS = 3        # untimed ops after the import, part of set-up time
ONESHOT_SETUP = 5     # untimed first processes of cli_oneshot


def _load(path):
    import json

    with open(path) as fh:
        return json.load(fh)


def _loop(run, ops, seconds=None, count=None):
    """Closed loop over ``ops`` (cycled) for ``seconds`` or ``count`` ops.
    A timed loop runs at least one full cycle, so every op is attempted."""
    lat, execs, first, variants = [], [], {}, {}
    n = len(ops)
    clock = time.perf_counter
    c0 = time.process_time()
    t0 = clock()
    end = t0 + seconds if seconds is not None else None
    i = 0
    while True:
        k = i % n
        s = clock()
        out = run(ops[k])
        e = clock()
        lat.append(e - s)
        if k not in first:
            first[k] = out
            execs.append((k, 0))
        elif out == first[k]:
            execs.append((k, 0))
        else:
            bucket = variants.setdefault(k, [])
            if out not in bucket:
                bucket.append(out)
            execs.append((k, 1 + bucket.index(out)))
        i += 1
        if (end is not None and e >= end and i >= n) or (count is not None and i >= count):
            break
    outcomes = {k: [first[k]] + variants.get(k, []) for k in first}
    return {"elapsed": e - t0, "cpu": time.process_time() - c0, "lat": lat, "execs": execs,
            "outcomes": outcomes}


def main():
    ops_path, result_path, mode, seconds, spawned, tmpdir = sys.argv[1:7]
    seconds, spawned = float(seconds), float(spawned)
    spec = _load(ops_path)
    workload, raw_ops = spec["workload"], spec["ops"]
    oneshot = workload == "cli_oneshot"
    if not oneshot:
        import rxent  # noqa: F401  (the import being measured)
    imported = time.perf_counter()

    import json
    import os
    import resource

    import ops as opmod
    import tracing

    result = {"setup_s": []}
    if oneshot:
        run = opmod.run_cli_child
        for _ in range(ONESHOT_SETUP):
            s = time.perf_counter()
            run(raw_ops[0])
            result["setup_s"].append(time.perf_counter() - s)
        ops = raw_ops
    else:
        ops = [opmod.prepare(op) for op in raw_ops]
        run = opmod.run_lib if ops[0]["call"] == "lib" else opmod.run_cli_inprocess
        w0 = time.perf_counter()
        for op in ops[:WARMUP_OPS]:
            run(op)
        result["setup_s"].append((imported - spawned) + (time.perf_counter() - w0))

    if mode == "run":
        result.update(_loop(run, ops, seconds=seconds))
        who = resource.RUSAGE_CHILDREN if oneshot else resource.RUSAGE_SELF
        result["rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    elif mode == "trace":
        result["trace"] = _trace(run, ops, seconds, oneshot, spec, tmpdir, opmod, tracing)

    with open(result_path, "w") as fh:
        json.dump(result, fh)
    os._exit(0)  # skip interpreter teardown; everything is written


def _trace(run, ops, seconds, oneshot, spec, tmpdir, opmod, tracing):
    """Traced loop for half the time, then the same ops untraced."""
    import os

    half = seconds / 2.0
    if oneshot:
        boot = [sys.executable, os.path.join(spec["bench"], "bootstrap.py")]
        files = []

        def traced(op):
            path = os.path.join(tmpdir, f"spans-{len(files)}.csv")
            files.append(path)
            return opmod.run_cli_child(op, prefix=boot + [path])

        res = _loop(traced, ops, seconds=half)
        rows, raised, diff, base = [], {}, [0, 0], 0
        for op_id, path in enumerate(files):
            r, rz, d = tracing.load(path)
            rows += [(n, a, b, p + base if p >= 0 else -1, op_id) for n, a, b, p, _ in r]
            base += len(r)
            for k, v in rz.items():
                raised[k] = raised.get(k, 0) + v
            diff = [diff[0] + d[0], diff[1] + d[1]]
    else:
        store = tracing.SpanStore()
        installed = tracing.install(store)

        def traced(op):
            store.op += 1
            root = store.open(0)
            try:
                return run(op)
            finally:
                store.close(root)

        try:
            res = _loop(traced, ops, seconds=half)
        finally:
            installed.restore()
        rows, raised = store.rows(), store.raised
        diff = [store.diff_results, store.diff_quadrature]
    count = len(res["lat"])
    plain = _loop(run, ops, count=count)
    totals = tracing.aggregate(rows)
    spans_path = os.path.join(spec["out"], f"spans-{spec['workload']}.csv")
    with open(spans_path, "w") as fh:
        fh.write("name,start,end,parent,op\n")
        fh.writelines(f"{n},{a!r},{b!r},{p},{o}\n" for n, a, b, p, o in rows)
    return {"loop": res, "ops": count, "traced_elapsed": res["elapsed"], "plain_elapsed": plain["elapsed"],
            "op_s": sum(res["lat"]) / count,
            "totals": {k: list(v) for k, v in totals.items()}, "raised": raised,
            "differential": diff, "spans_file": spans_path}


if __name__ == "__main__":
    main()
