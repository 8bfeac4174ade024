"""Fingerprint every benchmark op's outcome, to compare two checkouts.

    python tools/output_identity.py [--root CHECKOUT] [--workloads A,B,...] [--seeds 1-5]
                                    [--show]
    python tools/output_identity.py --compare A B

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

    python tools/output_identity.py --compare A B

reads two ``--show`` outputs and prints one line per op whose outcome
differs: the workload, the seed, the op id, the op kind and, for each
label of a number that changed (the word before it, as ``oracle`` or
``gap``), the largest relative change |a - b| / max(|a|, |b|), or
``text=inf`` where the outcomes differ in more than their numbers.  A last
line counts the ops and gives the largest change under each label.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import re
import sys
import tempfile

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as the benchmark worker runs

DEFAULT_WORKLOADS = "lib_pointwise,cli_sweep,oracle_check,cli_oneshot"
# a number standing on its own: not part of a name such as oc0034 or n2048
NUMBER = re.compile(r"(?<![\w.])-?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")


def workload_ops(root: str, workload: str, seed: int, tmp: str) -> list:
    """(op, run) for each op of one workload and seed, in cycle order: built
    by ``CHECKOUT/bench/gen.py`` with its CSV inputs under ``tmp``, prepared
    by ``bench/ops.py`` and paired with the ``ops`` function that runs it in
    process (``run_lib`` or ``run_cli_inprocess``), against the package
    under ``CHECKOUT/src``."""
    paths = [os.path.join(root, "src"), os.path.join(root, "bench")]
    if sys.path[:2] != paths:
        sys.path[:0] = paths
    import gen
    import ops

    return [(op, ops.run_lib if op["call"] == "lib" else ops.run_cli_inprocess)
            for op in map(ops.prepare, gen.build(workload, seed, tmp))]


def _seeds(text: str) -> list[int]:
    """'1-5' or '1,3,7'."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _outcomes(path: str) -> dict:
    """(workload, seed, op id) -> (kind, outcome repr) of a ``--show`` output."""
    with open(path) as fh:
        return {tuple(fields[:3]): (fields[4], fields[5])
                for fields in (line.rstrip("\n").split(" ", 5) for line in fh)}


def _changes(a: str, b: str) -> dict | None:
    """The largest relative change between the numbers of two outcome reprs
    under each label, the word before a number (as ``oracle`` in
    ``"oracle": 0.9``); None where they differ in more than their numbers."""
    if NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return None
    changes = {}
    for x, y in zip(NUMBER.finditer(a), NUMBER.finditer(b)):
        old, new = float(x.group()), float(y.group())
        if old != new and not (math.isnan(old) and math.isnan(new)):
            label = (re.findall(r"\w+", a[:x.start()]) or ["-"])[-1]
            change = abs(old - new) / max(abs(old), abs(new))
            changes[label] = max(change, changes.get(label, 0.0))
    return changes


def compare(first: str, second: str) -> int:
    """Print the ops whose outcomes differ between two ``--show`` outputs,
    then the largest change under each label over all of them; 1 when an
    op is in one of the outputs only, else 0."""
    old, new = _outcomes(first), _outcomes(second)
    if old.keys() != new.keys():
        print(f"the op lists differ: {len(old.keys() - new.keys())} ops only in {first}, "
              f"{len(new.keys() - old.keys())} only in {second}")
        return 1
    differ, largest = 0, {}
    for key, (kind, outcome) in old.items():
        if outcome == new[key][1]:
            continue
        differ += 1
        changes = _changes(outcome, new[key][1])
        if changes is None:
            changes = {"text": math.inf}
        print(*key, kind, *(f"{label}={change:.3g}" for label, change in changes.items()))
        for label, change in changes.items():
            largest[label] = max(change, largest.get(label, 0.0))
    print(f"{len(old)} ops compared, {differ} differ;",
          "largest change:" if largest else "no change",
          *(f"{label}={change:.3g}" for label, change in largest.items()))
    return 0


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
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --show outputs instead of running ops")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    root = os.path.abspath(args.root)
    for workload in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            with tempfile.TemporaryDirectory() as tmp:
                for op, run in workload_ops(root, workload, seed, tmp):
                    outcome = repr(run(op)).replace(tmp, "<tmp>")
                    digest = hashlib.sha256(outcome.encode()).hexdigest()
                    print(workload, seed, op["id"], digest, op["kind"],
                          *([outcome] if args.show else []))
    return 0


if __name__ == "__main__":
    sys.exit(main())
