"""Per-op best times of one benchmark workload, grouped by op family.

    python tools/op_times.py --workload lib_pointwise [--seed 1] [--cycles 5]
                             [--root CHECKOUT]

Builds the ops of one in-process workload and seed with ``bench/gen.py``
and runs them, in this process, through ``bench/ops.py`` (``prepare``, then
``run_lib`` or ``run_cli_inprocess``; ``output_identity.workload_ops``)
against the package under ``CHECKOUT/src``, for ``--cycles`` passes over
the op list.  Each op is
timed by its fastest execution, as the benchmark's ``op_ms_p50`` times it.

An op's family is its kind less the last dot-separated field, the order
region or grid (``markov.irreducible.K8`` for ``markov.irreducible.K8.one``).
The report has one row per family, by summed best time: its op count, the
sum and median of its ops' best times, and how many of its ops lie below
and above the median op of the whole list.  Then the median op itself, and
the families of the 10 ops on either side of it.  ``op_ms_p50`` is a
median over ops, so a change moves it only through the families that
straddle it; the last two lines name them.  The benchmark takes the median
over correct ops only; this tool does not judge outcomes, so an op that the
benchmark's referee fails counts here.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time
from collections import Counter

from output_identity import workload_ops

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as the benchmark worker runs

WORKLOADS = ("lib_pointwise", "cli_sweep", "oracle_check")  # the in-process ones
NEAR = 10  # ops named on either side of the median


def best_times(pairs, cycles: int) -> list[float]:
    """The fastest of ``cycles`` executions of each (op, run) pair, in
    seconds, the ops taken in turn as the benchmark's closed loop takes them."""
    best = [float("inf")] * len(pairs)
    clock = time.perf_counter
    for _ in range(cycles):
        for i, (op, run) in enumerate(pairs):
            start = clock()
            run(op)
            best[i] = min(best[i], clock() - start)
    return best


def report(kinds: list[str], ids: list[str], best: list[float]) -> list[str]:
    """The report lines for ops of the given kinds, ids and best times (s)."""
    families = [kind.rsplit(".", 1)[0] for kind in kinds]
    median = statistics.median(best)
    rank = sorted(range(len(best)), key=best.__getitem__)
    lo, hi = (len(rank) - 1) // 2, len(rank) // 2  # the middle positions: one, or two
    times = {}
    for family, t in zip(families, best):
        times.setdefault(family, []).append(t)
    lines = [f"{'family':<32} {'ops':>5} {'sum_us':>11} {'median_us':>10} "
             f"{'below':>6} {'above':>6}"]
    for family, ts in sorted(times.items(), key=lambda item: -sum(item[1])):
        below, above = sum(t < median for t in ts), sum(t > median for t in ts)
        lines.append(f"{family:<32} {len(ts):>5} {sum(ts) * 1e6:>11.1f} "
                     f"{statistics.median(ts) * 1e6:>10.2f} {below:>6} {above:>6}")
    lines.append(f"median op {median * 1e6:.2f} us over {len(best)} ops: "
                 + ", ".join(f"{ids[i]} {kinds[i]} {best[i] * 1e6:.2f} us"
                             for i in rank[lo:hi + 1]))
    below = Counter(families[i] for i in rank[max(0, lo - NEAR):lo])
    above = Counter(families[i] for i in rank[hi + 1:hi + 1 + NEAR])
    for side, counts in (("below", below), ("above", above)):
        lines.append(f"{side} the median (nearest {NEAR}): "
                     + ", ".join(f"{family} {n}" for family, n in counts.most_common()))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    here = os.path.dirname(os.path.abspath(__file__))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="(default: 1)")
    parser.add_argument("--cycles", type=int, default=5,
                        help="passes over the op list; each op's fastest counts (default: 5)")
    parser.add_argument("--root", default=os.path.dirname(here),
                        help="checkout whose src/ and bench/ are used (default: this one)")
    args = parser.parse_args(argv)
    if args.cycles < 1:
        parser.error("--cycles must be positive")
    root = os.path.abspath(args.root)
    with tempfile.TemporaryDirectory() as tmp:
        pairs = workload_ops(root, args.workload, args.seed, tmp)
        best = best_times(pairs, args.cycles)
    ops = [op for op, _ in pairs]
    print(f"{args.workload} seed {args.seed}, best of {args.cycles} cycles, {root}")
    for line in report([op["kind"] for op in ops], [op["id"] for op in ops], best):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
