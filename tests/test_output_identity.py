import contextlib
import importlib.util
import io
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "output_identity.py")


def fingerprints(argv):
    spec = importlib.util.spec_from_file_location("output_identity", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert tool.main(argv) == 0
    return out.getvalue().splitlines()


def test_one_line_per_op_and_independent_of_the_input_directory():
    # each run writes its CSV inputs to a fresh temporary directory
    first = fingerprints(["--workloads", "oracle_check", "--seeds", "1"])
    assert first == fingerprints(["--workloads", "oracle_check", "--seeds", "1"])
    ids = [line.split()[2] for line in first]
    assert len(ids) == len(set(ids)) > 100
    for line in first:
        workload, seed, _, digest, _ = line.split()
        assert (workload, seed, len(digest)) == ("oracle_check", "1", 64)


def test_show_appends_the_hashed_outcome():
    import hashlib

    plain = fingerprints(["--workloads", "cli_oneshot", "--seeds", "1"])
    shown = fingerprints(["--workloads", "cli_oneshot", "--seeds", "1", "--show"])
    assert len(shown) == len(plain) > 10
    for short, line in zip(plain, shown):
        assert line.startswith(short + " ")
        outcome = line[len(short) + 1:]
        assert hashlib.sha256(outcome.encode()).hexdigest() == short.split()[3]
