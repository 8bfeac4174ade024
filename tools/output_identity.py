"""Fingerprint every benchmark op's outcome, to compare two checkouts.

    python tools/output_identity.py [--root CHECKOUT] [--workloads A,B,...] [--seeds 1-5]
                                    [--show]

Builds the ops of each workload and seed with ``bench/gen.py`` and runs
them once, in this process, through ``bench/ops.py`` (``prepare``, then
``run_lib`` or ``run_cli_inprocess``), against the package under
``CHECKOUT/src``.  Prints one line per op: the workload, the seed, the op
id, a sha256 of the outcome's repr (the value and method, or the error
type and message, or the exit code with stdout and stderr) and the op
kind.  The CSV inputs are written to a temporary directory whose path is
replaced by ``<tmp>`` before hashing, so that output does not depend on
where it ran.  Run it once per checkout, each in its own process, and
``diff`` the two outputs: an empty diff means byte-identical outcomes.
``--show`` appends the outcome repr itself to each line, so that a
difference can be quoted digit for digit.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as the benchmark worker runs

DEFAULT_WORKLOADS = "lib_pointwise,cli_sweep,oracle_check,cli_oneshot"


def _seeds(text: str) -> list[int]:
    """'1-5' or '1,3,7'."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    here = os.path.dirname(os.path.abspath(__file__))
    parser.add_argument("--root", default=os.path.dirname(here),
                        help="checkout whose src/ and bench/ are used (default: this one)")
    parser.add_argument("--workloads", default=DEFAULT_WORKLOADS,
                        help=f"comma-separated, run in process (default: {DEFAULT_WORKLOADS})")
    parser.add_argument("--seeds", default="1-5", help="'1-5' or '1,3,7' (default: 1-5)")
    parser.add_argument("--show", action="store_true",
                        help="append each op's outcome repr to its line")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import gen
    import ops as opmod

    for workload in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            with tempfile.TemporaryDirectory() as tmp:
                for op in gen.build(workload, seed, tmp):
                    op = opmod.prepare(op)
                    run = opmod.run_lib if op["call"] == "lib" else opmod.run_cli_inprocess
                    outcome = repr(run(op)).replace(tmp, "<tmp>")
                    digest = hashlib.sha256(outcome.encode()).hexdigest()
                    print(workload, seed, op["id"], digest, op["kind"],
                          *([outcome] if args.show else []))
    return 0


if __name__ == "__main__":
    sys.exit(main())
