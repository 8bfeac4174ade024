import contextlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")


def load():
    if TOOLS not in sys.path:
        sys.path.insert(0, TOOLS)
    import op_times

    return op_times


def test_report_names_the_families_around_the_median():
    kinds = ["a.x.one", "a.x.two", "b.y.one", "b.y.two", "c.z.one"]
    ids = ["op0", "op1", "op2", "op3", "op4"]
    best = [1e-6, 2e-6, 3e-6, 4e-6, 50e-6]
    lines = load().report(kinds, ids, best)
    assert lines[1:] == [
        f"{'c.z':<32} {1:>5} {50.0:>11.1f} {50.0:>10.2f} {0:>6} {1:>6}",
        f"{'b.y':<32} {2:>5} {7.0:>11.1f} {3.5:>10.2f} {0:>6} {1:>6}",
        f"{'a.x':<32} {2:>5} {3.0:>11.1f} {1.5:>10.2f} {2:>6} {0:>6}",
        "median op 3.00 us over 5 ops: op2 b.y.one 3.00 us",
        "below the median (nearest 10): a.x 2",
        "above the median (nearest 10): b.y 1, c.z 1",
    ]
    # an even count has two middle ops, and the median between them
    lines = load().report(kinds[:4], ids[:4], best[:4])
    assert lines[-3:] == ["median op 2.50 us over 4 ops: op1 a.x.two 2.00 us, op2 b.y.one 3.00 us",
                          "below the median (nearest 10): a.x 1",
                          "above the median (nearest 10): b.y 1"]


def test_times_the_first_ops_of_a_workload(tmp_path):
    tool = load()
    pairs = tool.workload_ops(ROOT, "lib_pointwise", 1, str(tmp_path))[:12]
    best = tool.best_times(pairs, 2)
    assert len(best) == 12 and min(best) > 0.0
    lines = tool.report([op["kind"] for op, _ in pairs], [op["id"] for op, _ in pairs], best)
    assert lines[0].split() == ["family", "ops", "sum_us", "median_us", "below", "above"]
    rows = [line.split() for line in lines[1:-3]]
    assert sum(int(row[1]) for row in rows) == 12
    # an even count: the median lies between the two middle ops, so each op is on one side
    assert sum(int(row[4]) + int(row[5]) for row in rows) == 12
    sums = [float(row[2]) for row in rows]
    assert sums == sorted(sums, reverse=True) and min(sums) > 0.0
    assert lines[-3].startswith("median op ") and lines[-3].count(" lp0") == 2
    assert lines[-2].startswith("below the median (nearest 10): ")
    assert lines[-1].startswith("above the median (nearest 10): ")


def test_main_reports_a_whole_workload():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert load().main(["--workload", "lib_pointwise", "--seed", "1", "--cycles", "1"]) == 0
    lines = out.getvalue().splitlines()
    assert lines[0] == f"lib_pointwise seed 1, best of 1 cycles, {ROOT}"
    assert lines[1].split()[0] == "family" and lines[-3].startswith("median op ")
    count = int(lines[-3].split(" over ")[1].split()[0])
    assert sum(int(line.split()[1]) for line in lines[2:-3]) == count > 100
