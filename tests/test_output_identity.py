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


def test_compare_reports_the_largest_change_per_label(tmp_path):
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    json_a = '[\'cli\', 0, \'{"command": "rate gauss", "alpha": 2.5, "value": 0.25, ' \
             '"oracle": 0.5, "gap": 0.25}\\n\', \'\']'
    json_b = json_a.replace('"oracle": 0.5', '"oracle": 0.5000000000000001').replace(
        '"gap": 0.25', '"gap": 0.2500000000000001')
    first.write_text(f"oracle_check 1 oc0001 {'0' * 64} oracle.gauss {json_a}\n"
                     f"oracle_check 1 oc0002 {'1' * 64} oracle.markov ['value', 1.0]\n"
                     f"lib_pointwise 2 lp0003 {'2' * 64} discrete ['value', inf]\n")
    second.write_text(f"oracle_check 1 oc0001 {'3' * 64} oracle.gauss {json_b}\n"
                      f"oracle_check 1 oc0002 {'1' * 64} oracle.markov ['value', 1.0]\n"
                      f"lib_pointwise 2 lp0003 {'4' * 64} discrete ['error', 'X']\n")
    lines = fingerprints(["--compare", str(first), str(second)])
    assert lines == [
        "oracle_check 1 oc0001 oracle.gauss oracle=2.22e-16 gap=4.44e-16",
        "lib_pointwise 2 lp0003 discrete text=inf",
        "3 ops compared, 2 differ; largest change: oracle=2.22e-16 gap=4.44e-16 text=inf",
    ]
    assert fingerprints(["--compare", str(first), str(first)]) == [
        "3 ops compared, 0 differ; no change"]
