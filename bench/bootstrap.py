"""Traced child for the cli_oneshot workload.

    python bench/bootstrap.py SPANS_CSV ARG...

Imports the package, installs the timing wrappers, runs
``rxent.cli.main(ARG...)`` and writes the spans to SPANS_CSV before
exiting with the CLI's exit code.
"""

import sys

import rxent.cli

import tracing


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    store = tracing.SpanStore()
    tracing.install(store)
    store.op = 0
    root = store.open(0)
    try:
        code = rxent.cli.main(argv)
    finally:
        store.close(root)
        store.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
