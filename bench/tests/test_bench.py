"""Tests of the benchmark's own parts: generator, timed loop, tail rule, self time,
referee.  Run with ``python -m pytest bench/tests``."""

import math
import os

import pytest

import gen
import referee
import stats
import tracing
import worker


def _ops(workload, seed, tmp_path):
    d = tmp_path / f"{workload}-{seed}-{len(list(tmp_path.iterdir()))}"
    d.mkdir()
    ops = gen.build(workload, seed, str(d))
    files = {name: (d / name).read_text() for name in sorted(os.listdir(d))}
    # CSV paths differ between directories; compare what the files hold
    text = repr(ops).replace(str(d), "<tmp>")
    return text, files


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_ops_other_seed_other_ops(workload, tmp_path):
    a = _ops(workload, 7, tmp_path)
    b = _ops(workload, 7, tmp_path)
    c = _ops(workload, 8, tmp_path)
    assert a == b
    assert a[0] != c[0]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_mix_is_fixed_across_seeds(workload, tmp_path):
    kinds = [[op["kind"] for op in gen.build(workload, s, str(tmp_path))] for s in (1, 2)]
    assert kinds[0] == kinds[1]


def test_sweep_grid_matches_the_cli_rule():
    grid = gen.sweep_grid(0.5, 1.5, 0.25)
    assert grid == [0.5, 0.75, "1", 1.25, 1.5]


@pytest.mark.parametrize("n", [11, 12, 50, 1000])
def test_tail_has_ten_samples_beyond(n):
    xs = list(range(n))
    value, pct = stats.tail(xs)
    assert sum(x > value for x in xs) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_with_too_few_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_timed_loop_attempts_every_op_even_past_its_time():
    loop = worker._loop(lambda op: ["value", op], [5.0, 6.0, 7.0], seconds=0.0)
    assert len(loop["lat"]) == 3
    assert loop["outcomes"] == {0: [["value", 5.0]], 1: [["value", 6.0]], 2: [["value", 7.0]]}


def test_self_time_on_a_synthetic_tree():
    # op [0, 10]: a [1, 4] with child c [2, 3]; b [5, 9] with children
    # d [5, 6] and e [8, 10] (e overruns b and is clipped to it)
    rows = [("op", 0.0, 10.0, -1, 0), ("a", 1.0, 4.0, 0, 0), ("c", 2.0, 3.0, 1, 0),
            ("b", 5.0, 9.0, 0, 0), ("d", 5.0, 6.0, 3, 0), ("e", 8.0, 10.0, 3, 0)]
    assert tracing.self_times(rows) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 2.0])
    totals = tracing.aggregate(rows + [("c", 11.0, 11.5, -1, 1)])
    assert totals["c"] == (2, pytest.approx(1.5))


def test_wrappers_rebind_and_restore():
    import rxent
    from rxent import gaussproc, markov

    original, chol = markov.classify, gaussproc.cholesky_lower
    store = tracing.SpanStore()
    installed = tracing.install(store)
    try:
        assert markov.classify is not original
        # one wrapper, bound under the name in every module that imports it
        assert gaussproc.cholesky_lower is not chol
        assert gaussproc.cholesky_lower is rxent.linalg.cholesky_lower
        chain = rxent.MarkovSource.of([[0.9, 0.1], [0.2, 0.8]])
        rxent.cross_entropy_rate(chain, chain, 3.0)
    finally:
        installed.restore()
    assert markov.classify is original and gaussproc.cholesky_lower is chol
    names = {row[0] for row in store.rows()}
    assert {"markov.cross_entropy_rate", "markov.classify", "markov.perron_eigenpair",
            "construct.MarkovSource"} <= names


def test_referee_flags_a_value_ten_tolerances_off():
    prob = {"target": "expfam", "family": "gaussian", "p": [0.0, 1.0], "q": [1.0, 2.0],
            "route": "closed"}
    exp = referee.ref.expect_value(prob, 2.0)
    assert referee.check_value(exp, ["value", exp["v"]]) is None
    assert referee.check_value(exp, ["value", exp["v"] + 0.5 * exp["tol"]]) is None
    assert referee.check_value(exp, ["value", exp["v"] + 10 * exp["tol"]]) is not None
    assert referee.check_value(exp, ["value", exp["v"] - 10 * exp["tol"]]) is not None


def test_referee_flags_a_wrong_divergence_sign():
    # Gaussian source wider than the reference: diverges below alpha* = 1 - v2/v1
    prob = {"target": "expfam", "family": "gaussian", "p": [0.0, 4.0], "q": [0.0, 1.0],
            "route": "closed"}
    exp = referee.ref.expect_value(prob, 0.5)
    assert exp == {"kind": "diverge", "sign": 1}
    assert referee.check_value(exp, ["value", math.inf]) is None
    assert referee.check_value(exp, ["value", -math.inf]) is not None
    assert referee.check_value(exp, ["value", 3.0]) is not None


def test_referee_rejects_untyped_and_unexpected_errors():
    exp = {"kind": "value", "v": 1.0, "tol": 1e-9}
    assert "untyped" in referee.check_value(exp, ["error", "ZeroDivisionError",
                                                  ["ZeroDivisionError", "Exception"], ""])
    assert referee.check_value(exp, ["error", "ZeroMassError",
                                     ["ZeroMassError", "RenyiError"], ""]) is not None
    refusal = {"kind": "raise", "error": "ZeroMassError"}
    assert referee.check_value(refusal, ["error", "ZeroMassError",
                                         ["ZeroMassError", "RenyiError"], ""]) is None


def test_reference_matches_known_closed_values():
    # README values: discrete order 2 and the Markov rate of a chain with itself
    disc = {"target": "discrete", "p": [0.5, 0.3, 0.2], "q": [0.4, 0.4, 0.2],
            "definition": "standard"}
    assert referee.ref.expect_value(disc, 2.0)["v"] == pytest.approx(1.0216512475319812, abs=1e-15)
    chain = [[0.9, 0.1], [0.2, 0.8]]
    prob = {"target": "markov", "P": chain, "Q": chain, "p_init": None, "q_init": None}
    assert referee.ref.expect_value(prob, 3.0)["v"] == pytest.approx(0.1580154928513016, abs=1e-14)


def test_gauss_reference_spectral_and_finite_n_agree():
    prob = {"target": "gauss", "x": {"kind": "ar1", "rho": 0.6, "var": 1.0},
            "y": {"kind": "white", "var": 1.0}}
    spectral = referee.ref.expect_value(prob, 2.0)["v"]
    finite = referee.ref.gauss_finite_n(prob, 2.0, 1024)["v"]
    assert abs(spectral - finite) < 1e-3
    ma = {"target": "gauss", "x": {"kind": "acov", "r": [1.25, 0.5]},
          "y": {"kind": "white", "var": 1.0}}
    assert abs(referee.ref.expect_value(ma, 2.0)["v"]
               - referee.ref.gauss_finite_n(ma, 2.0, 2048)["v"]) < 1e-3


def test_known_defect_registry_matches_by_kind_and_reason():
    op = {"kind": "markov.periodic.K3.one"}
    assert referee.known_defect(op, "got 1, expected 2") == "markov_periodic_shannon"
    assert referee.known_defect({"kind": "markov.irreducible.K3.one"}, "got 1, expected 2") is None
