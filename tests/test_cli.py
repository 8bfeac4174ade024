import contextlib
import io
import json
import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from rxent import AlphaOrder, DiscreteDistribution, ExpFamilyDistribution, cross_entropy_closed
from rxent.cli import (
    OutputFormat,
    UsageError,
    _parse_alpha_grid,
    main,
    parse_args,
)

E = ExpFamilyDistribution


@pytest.fixture
def chain_files(tmp_path):
    p = tmp_path / "P.csv"
    q = tmp_path / "Q.csv"
    p.write_text("0.9,0.1\n0.2,0.8\n")
    q.write_text("0.7,0.3\n0.4,0.6\n")
    return str(p), str(q)


@pytest.fixture
def mass_files(tmp_path):
    p = tmp_path / "p.csv"
    q = tmp_path / "q.csv"
    p.write_text("0.5,0.3,0.2\n")
    q.write_text("0.4,0.4,0.2\n")
    return str(p), str(q)


class TestParsing:
    def test_expfam_job(self):
        job = parse_args(
            "xent expfam --family gaussian --p mu=0,var=1 --q mu=1,var=2 "
            "--alpha 2".split()
        )
        assert job.command == "xent expfam"
        assert len(job.alphas) == 1 and job.alphas[0].value == 2.0
        assert not job.sweep and not job.oracle_check and not job.bits
        assert job.output_format is OutputFormat.PLAIN
        assert job.options["family"] == "gaussian"
        assert job.options["method"] == "closed"

    def test_markov_job_with_oracle(self):
        job = parse_args(
            "rate markov --p P.csv --q Q.csv --alpha 2 --finite-n 4000 "
            "--oracle".split()
        )
        assert job.command == "rate markov"
        assert job.oracle_check
        assert job.options["finite_n"] == 4000

    def test_sweep_job(self):
        job = parse_args(
            "sweep expfam --family exponential --p lambda=1 --q lambda=2 "
            "--alphas 0.5:5:0.5 --format csv".split()
        )
        assert job.sweep and len(job.alphas) == 10
        assert job.output_format is OutputFormat.CSV
        assert job.alphas[1].is_one  # the grid point at 1 takes the limit

    def test_sweep_default_format_is_csv(self):
        job = parse_args(
            "sweep expfam --family exponential --p lambda=1 --q lambda=2 "
            "--alphas 2:3:1".split()
        )
        assert job.output_format is OutputFormat.CSV

    def test_sweep_rejects_oracle(self):
        with pytest.raises(UsageError):
            parse_args(
                "sweep expfam --family exponential --p lambda=1 --q lambda=2 "
                "--alphas 2:3:1 --oracle".split()
            )

    def test_alpha_markers(self):
        job = parse_args("xent discrete --p a --q b --alpha 1".split())
        assert job.alphas[0].is_one
        job = parse_args("xent discrete --p a --q b --alpha inf".split())
        assert job.alphas[0].is_inf

    def test_bad_alpha(self):
        with pytest.raises(UsageError):
            parse_args("xent discrete --p a --q b --alpha zero".split())
        with pytest.raises(UsageError):
            parse_args("xent discrete --p a --q b --alpha -2".split())

    def test_missing_required(self):
        with pytest.raises(UsageError):
            parse_args("xent expfam --family gaussian --p mu=0,var=1".split())

    def test_grid_parsing(self):
        grid = _parse_alpha_grid("0.5:5:0.5")
        assert len(grid) == 10
        assert [a.value for a in grid[2:]] == pytest.approx(
            [1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]
        )
        with pytest.raises(UsageError):
            _parse_alpha_grid("2:1:0.5")
        with pytest.raises(UsageError):
            _parse_alpha_grid("1:2")
        with pytest.raises(UsageError):
            _parse_alpha_grid("a:b:c")


class TestExpfamCommand:
    def test_spec_pair_prints_closed_form(self, capsys):
        code = main(
            "xent expfam --family gaussian --p mu=0,var=1 --q mu=1,var=2 "
            "--alpha 2".split()
        )
        assert code == 0
        printed = capsys.readouterr().out.strip()
        expected = cross_entropy_closed(E.gaussian(0, 1), E.gaussian(1, 2), 2.0)
        assert printed == format(expected.value, ".12g")

    def test_self_pair_value(self, capsys):
        code = main(
            "xent expfam --family gaussian --p mu=0,var=1 --q mu=0,var=1 "
            "--alpha 2".split()
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "1.26551212348"

    def test_oracle_gap(self, capsys):
        code = main(
            "xent expfam --family exponential --p lambda=2 --q lambda=3 "
            "--alpha 2 --oracle".split()
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == format(math.log(5 / 6), ".12g")
        assert lines[1].startswith("oracle ")
        assert lines[2].startswith("gap ")
        assert float(lines[2].split()[1]) < 1e-8

    def test_natural_method_agrees(self, capsys):
        args = "xent expfam --family gamma --p k=2.5,theta=1.2 --q k=1.5,theta=2 --alpha 3"
        main(args.split())
        closed = capsys.readouterr().out.strip()
        main((args + " --method natural").split())
        natural = capsys.readouterr().out.strip()
        assert closed == natural

    def test_family_aliases(self, capsys):
        main("xent expfam --family normal --p mu=0,var=1 --q mu=0,var=1 --alpha 2".split())
        first = capsys.readouterr().out
        main("xent expfam --family gaussian --p mu=0,var=1 --q mu=0,var=1 --alpha 2".split())
        assert capsys.readouterr().out == first
        main("xent expfam --family exp --p rate=2 --q rate=3 --alpha 2".split())
        assert capsys.readouterr().out.strip() == format(math.log(5 / 6), ".12g")
        main("xent expfam --family chi2 --p nu=3 --q nu=5 --alpha 2".split())
        first = capsys.readouterr().out
        for alias in ("chi_squared", "chisquared", "CHI2"):
            main(f"xent expfam --family {alias} --p nu=3 --q nu=5 --alpha 2".split())
            assert capsys.readouterr().out == first

    @pytest.mark.parametrize("argv, name", [
        ("xent expfam --family foo --p mu=0,var=1 --q mu=0,var=1 --alpha 2", "foo"),
        ("xent special q-gaussian --p-family foo --p mu=0,var=1 --var 1 --alpha 2", "foo"),
        ("xent special q-gaussian --p-family mvgauss --p mu=0,var=1 --var 1 --alpha 2",
         "mvgauss"),
    ], ids=["family", "p-family", "p-family-mvgauss"])
    def test_unknown_family_names_the_input(self, argv, name):
        code, out, err = run_cli(argv.split())
        assert (code, out, err) == (1, "", f"usage error: unknown scalar family {name!r}\n")

    def test_divergence_exits_two(self, capsys):
        code = main(
            "xent expfam --family gaussian --p mu=0,var=4 --q mu=0,var=1 "
            "--alpha 0.5".split()
        )
        assert code == 2
        assert capsys.readouterr().out.strip() == "inf"

    def test_bits(self, capsys):
        main("xent expfam --family gaussian --p mu=0,var=1 --q mu=0,var=1 --alpha 2".split())
        nats = float(capsys.readouterr().out)
        main("xent expfam --family gaussian --p mu=0,var=1 --q mu=0,var=1 --alpha 2 --bits".split())
        bits = float(capsys.readouterr().out)
        # 12 printed digits bound the round-trip precision
        assert_allclose(bits, nats / math.log(2), rtol=1e-10)

    @pytest.mark.parametrize("family, spec, names", [
        ("gaussian", "mu=0,sigma=1", "mu,var"),
        ("gamma", "k=2", "k,theta"),
    ], ids=["unknown", "missing"])
    def test_bad_parameter_name(self, family, spec, names):
        code, _, err = run_cli(f"xent expfam --family {family} --p {spec} --q {spec} "
                               "--alpha 2".split())
        assert code == 1
        assert err == f"usage error: {family} takes parameters {names}; got {spec!r}\n"

    @pytest.mark.parametrize("family, p, q, names", [
        ("gaussian", "mu=0,mu=5,var=1", "mu=5,var=1", "mu,var"),
        ("exponential", "lambda=1,rate=2", "rate=2", "lambda"),
    ], ids=["repeated", "aliased"])
    def test_parameter_named_twice(self, family, p, q, names):
        code, out, err = run_cli(f"xent expfam --family {family} --p {p} --q {q} "
                                 "--alpha 2".split())
        assert (code, out) == (1, "")
        assert err == f"usage error: {family} takes each of {names} once; got {p!r}\n"

    def test_invalid_parameter_value(self, capsys):
        code = main("xent expfam --family gaussian --p mu=0,var=-1 --q mu=0,var=1 --alpha 2".split())
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_mv_gaussian(self, tmp_path, capsys):
        c1 = tmp_path / "c1.csv"
        c2 = tmp_path / "c2.csv"
        c1.write_text("2.0,0.6\n0.6,1.0\n")
        c2.write_text("1.5,-0.3\n-0.3,2.5\n")
        code = main(
            f"xent expfam --family mvgauss --p {c1} --q {c2} --alpha 2 --oracle".split()
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert float(lines[2].split()[1]) < 1e-4

    def test_mv_gaussian_natural_method(self, tmp_path, monkeypatch):
        # --method natural runs the natural engine once per order and prints its value
        from rxent import differential

        c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        c1.write_text("2.0,0.6\n0.6,1.0\n")
        c2.write_text("1.5,-0.3\n-0.3,2.5\n")
        calls, natural = [], differential.cross_entropy_natural
        monkeypatch.setattr(differential, "cross_entropy_natural",
                            lambda f1, f2, alpha: calls.append(alpha) or natural(f1, f2, alpha))
        code, out, _ = run_cli(f"xent expfam --family mvgauss --p {c1} --q {c2} --alpha 1.7 "
                               "--method natural".split())
        f1, f2 = E.mv_gaussian([[2.0, 0.6], [0.6, 1.0]]), E.mv_gaussian([[1.5, -0.3], [-0.3, 2.5]])
        assert (code, out) == (0, format(natural(f1, f2, 1.7).value, ".12g") + "\n")
        assert len(calls) == 1
        closed = differential.cross_entropy_multivariate_gaussian(f1.cov, f2.cov, 1.7).value
        assert abs(float(out) - closed) < 1e-10 * abs(closed)
        code, out, _ = run_cli(f"sweep expfam --family mvgauss --p {c1} --q {c2} --method natural "
                               "--alphas 0.5:2:0.5".split())
        assert code == 0 and len(out.splitlines()) == 1 + 4 and len(calls) == 1 + 4

    @pytest.mark.parametrize("method", ["closed", "natural"])
    @pytest.mark.parametrize("command", ["xent expfam", "sweep expfam"])
    @pytest.mark.parametrize("side, name", [("p", "cov1"), ("q", "cov2")])
    @pytest.mark.parametrize("rows, message", [
        ("1.0,2.0\n2.0,1.0\n", "is not positive definite"),
        ("1.0,0.5\n0.2,1.0\n", "must be symmetric"),
        ("1.0,0.5,0.2\n0.2,1.0,0.3\n", "must be square, got shape (2, 3)"),
    ], ids=["indefinite", "asymmetric", "not-square"])
    def test_mv_gaussian_bad_covariance_is_named(self, tmp_path, method, command, side, name,
                                                 rows, message):
        # both methods name the offending side cov1 (--p) or cov2 (--q)
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("2.0,0.6\n0.6,1.0\n")
        bad.write_text(rows)
        p, q = (bad, good) if side == "p" else (good, bad)
        orders = "--alpha 2" if command.startswith("xent") else "--alphas 0.5:2:0.5"
        code, out, err = run_cli(f"{command} --family mvgauss --p {p} --q {q} {orders} "
                                 f"--method {method}".split())
        assert (code, out, err) == (1, "", f"error: {name} {message}\n")

    def test_mv_gaussian_oracle_past_the_edge(self, tmp_path):
        # K_1 - 0.4 K_2 of the inverse covariances is not positive definite
        # at alpha = 0.6: the grid referee reads the same divergence
        c1 = tmp_path / "c1.csv"
        c2 = tmp_path / "c2.csv"
        c1.write_text("4,0.5\n0.5,2\n")
        c2.write_text("1,0.2\n0.2,0.5\n")
        code, out, _ = run_cli(f"xent expfam --family mvgauss --p {c1} --q {c2} --alpha 0.6 "
                               "--oracle --format json".split())
        payload = json.loads(out)
        assert (code, payload["value"], payload["oracle"], payload["gap"]) == (2, "inf", "inf", 0.0)

    @pytest.mark.parametrize("pair", [
        "--family exponential --p lambda=1 --q lambda=5",
        "--family gaussian --p mu=0,var=1 --q mu=0,var=0.2",
    ])
    def test_divergent_oracle_reads_inf(self, pair):
        # the reference tail outgrows the source at alpha = 0.7: both diverge
        code, out, _ = run_cli(f"xent expfam {pair} --alpha 0.7 --oracle".split())
        assert (code, out) == (2, "inf\noracle inf\ngap 0\n")

    @pytest.mark.parametrize("method", ["closed", "natural"])
    @pytest.mark.parametrize("pair, printed", [
        ("--p mu=1e200,var=1 --q mu=0,var=1e300 --alpha 2", "5e+99\n"),
        ("--p mu=0,var=1e4 --q mu=2e4,var=1e-7 --alpha 6e4", "-6.80646764392\n"),
    ])
    def test_gaussian_pair_at_extreme_scales(self, method, pair, printed):
        assert run_cli(f"xent expfam --family gaussian {pair} --method {method}".split()) == (
            0, printed, "")
        code, out, err = run_cli("xent expfam --family gaussian --p mu=1e200,var=1 "
                                 f"--q mu=0,var=1 --alpha 2 --method {method}".split())
        assert (code, out) == (1, "") and "double range" in err

    @pytest.mark.parametrize("argv", [
        # the referee rightly refuses the logarithmic factor of Beta(2, 0.5) at 1
        "xent expfam --family beta --p a=2,b=0.5 --q a=3,b=2 --alpha 1",
        # p's mass lies past the referee's farthest node
        "xent expfam --family gaussian --p mu=1e150,var=1 --q mu=0,var=1e300 --alpha 2",
    ])
    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_referee_error_keeps_the_value(self, argv, fmt):
        words = f"{argv} --format {fmt}".split()
        plain_code, plain_out, _ = run_cli(words)
        code, out, err = run_cli(words + ["--oracle"])
        assert plain_code == 0 and (code, out) == (1, plain_out)
        assert err.startswith("error: oracle: ") and err.count("\n") == 1
        if fmt == "json":
            assert (json.loads(out)["oracle"], json.loads(out)["gap"]) == (None, None)


def _mp_oracle(p, q, alpha, definition):
    """The standard cross-entropy, or D_alpha(p || q) + H_alpha(p), in
    40-digit mpmath.  q = 0 on the support of p sends the cross-entropy to
    +inf for alpha <= 1 and D to +inf for alpha >= 1; other terms with
    q = 0 add 0."""
    with mp.workdps(40):
        on = [(mp.mpf(a), mp.mpf(b)) for a, b in zip(p, q) if a > 0]
        q_zero = any(b == 0 for _, b in on)
        if alpha == "1":
            ent = -mp.fsum(a * mp.log(a) for a, _ in on)
            if q_zero:
                return math.inf
            xent = -mp.fsum(a * mp.log(b) for a, b in on)
            return float(xent if definition == "standard" else
                         mp.fsum(a * mp.log(a / b) for a, b in on) + ent)
        if alpha == "inf":
            top = max(b for _, b in on)
            if definition == "standard":
                return math.inf if top == 0 else float(-mp.log(top))
            if q_zero:
                return math.inf
            return float(max(mp.log(a / b) for a, b in on) - mp.log(max(a for a, _ in on)))
        r = mp.mpf(alpha)
        if definition == "standard":
            total = mp.fsum(a * b ** (r - 1) for a, b in on if b > 0)
            return math.inf if (r < 1 and q_zero) or total == 0 else float(mp.log(total) / (1 - r))
        total = mp.fsum(a ** r * b ** (1 - r) for a, b in on if b > 0)
        if (r > 1 and q_zero) or total == 0:
            return math.inf
        return float(mp.log(total) / (r - 1) + mp.log(mp.fsum(a ** r for a, _ in on)) / (1 - r))


class TestDiscreteCommand:
    def test_known_value(self, mass_files, capsys):
        p, q = mass_files
        code = main(f"xent discrete --p {p} --q {q} --alpha 2".split())
        assert code == 0
        assert_allclose(float(capsys.readouterr().out), -math.log(0.36), rtol=1e-10)

    def test_alpha_inf(self, mass_files, capsys):
        p, q = mass_files
        code = main(f"xent discrete --p {p} --q {q} --alpha inf".split())
        assert code == 0
        assert_allclose(float(capsys.readouterr().out), -math.log(0.4), rtol=1e-12)

    def test_alternate_definition(self, mass_files, capsys):
        p, q = mass_files
        main(f"xent discrete --p {p} --q {q} --alpha 2".split())
        standard = float(capsys.readouterr().out)
        main(f"xent discrete --p {p} --q {q} --alpha 2 --definition alternate".split())
        alternate = float(capsys.readouterr().out)
        assert abs(standard - alternate) > 1e-4

    def test_oracle_gap(self, mass_files, capsys):
        p, q = mass_files
        code = main(f"xent discrete --p {p} --q {q} --alpha 2 --oracle".split())
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert float(lines[2].split()[1]) < 1e-12

    @pytest.mark.parametrize("definition", ["standard", "alternate"])
    @pytest.mark.parametrize("alpha", ["0.01", "0.5", "1", "2.5", "inf"])
    @pytest.mark.parametrize("p, q", [
        ((0.5, 0.3, 0.2, 0.0), (0.1, 0.2, 0.3, 0.4)),
        ((0.5, 0.5, 0.0), (0.5, 0.0, 0.5)),  # q = 0 on the support of p
        ((0.5, 0.5, 0.0, 0.0), (0.0, 0.0, 0.3, 0.7)),  # disjoint supports
        ((0.5, 0.5), (1e-320, 1.0)),  # q^(alpha - 1) and p/q beyond the double range
    ], ids=["full", "q-zero", "disjoint", "subnormal"])
    def test_oracle_is_independent(self, monkeypatch, p, q, alpha, definition):
        from rxent import cli, discrete

        def refuse(*args):
            raise AssertionError("the oracle must not call discrete.py")

        for name in ("renyi_cross_entropy", "renyi_divergence", "renyi_entropy"):
            monkeypatch.setattr(discrete, name, refuse)
        got = cli._discrete_oracle(DiscreteDistribution(np.array(p)),
                                   DiscreteDistribution(np.array(q)),
                                   AlphaOrder.coerce(alpha), definition)
        want = _mp_oracle(p, q, alpha, definition)
        assert got == want if math.isinf(want) else abs(got - want) <= 1e-13 * max(1.0, want)

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(f"xent discrete --p {tmp_path}/no.csv --q {tmp_path}/no.csv --alpha 2".split())
        assert code == 1
        err = capsys.readouterr().err
        assert "error" in err


class TestSpecialCommand:
    def test_q_uniform(self, capsys):
        code = main("xent special q-uniform --lower -1 --upper 1 --alpha 2".split())
        assert code == 0
        assert_allclose(float(capsys.readouterr().out), math.log(2.0), rtol=1e-12)

    def test_p_uniform(self, capsys):
        code = main("xent special p-uniform --q a=2,b=2 --alpha 3 --oracle".split())
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert_allclose(float(lines[0]), -0.5 * math.log(1.2), rtol=1e-10)
        assert float(lines[2].split()[1]) < 1e-8

    def test_q_exponential(self, capsys):
        code = main(
            "xent special q-exponential --p-family exponential --p rate=2 "
            "--rate 1 --alpha 2 --oracle".split()
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert_allclose(float(lines[0]), math.log(1.5), rtol=1e-10)
        assert float(lines[2].split()[1]) < 1e-8

    def test_q_gaussian(self, capsys):
        code = main(
            "xent special q-gaussian --p-family laplace --p mu=0,b=1 "
            "--mean 0 --var 1 --alpha 2 --oracle".split()
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert_allclose(float(lines[0]), 1.3410216450092634, rtol=1e-9)
        assert float(lines[2].split()[1]) < 1e-6

    def test_q_half_normal(self, capsys):
        code = main(
            "xent special q-half-normal --p-family exponential --p rate=1 "
            "--var 1 --alpha 2 --oracle".split()
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert_allclose(float(lines[0]), 0.6478744644493184, rtol=1e-9)
        assert float(lines[2].split()[1]) < 1e-6

    def test_laplace_sweep_below_one_diverges(self):
        # the Gaussian reference tail outgrows the Laplace source below 1
        code, out, err = run_cli("sweep special q-gaussian --p-family laplace --p mu=0.2,b=0.8 "
                                 "--mean -0.5 --var 1.5 --alphas 0.1:5:0.1".split())
        rows = [line.split(",") for line in out.split()[1:]]
        assert (code, err, len(rows)) == (2, "", 50)
        assert [v for a, v in rows if float(a) < 1] == ["inf"] * 9
        assert all(math.isfinite(float(v)) for a, v in rows if float(a) >= 1)

    def test_support_mismatch_rejected(self, capsys):
        code = main(
            "xent special q-exponential --p-family gaussian --p mu=0,var=1 "
            "--rate 1 --alpha 2".split()
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("variant, option", [("q-exponential", "--rate 1"),
                                                 ("q-half-normal", "--var 1")])
    def test_support_mismatch_message(self, variant, option):
        # the reducer checks the support its MGF records, in the CLI's words
        code, out, err = run_cli(f"xent special {variant} --p-family laplace --p mu=0,b=1 "
                                 f"{option} --alpha 2".split())
        reference = variant.removeprefix("q-")
        assert (code, out) == (1, "")
        assert err == f"error: the {reference} reference needs a source supported on x > 0\n"

    def test_order_next_to_one(self):
        # 5e-10 from 1 is a valid order, within 1e-9 of the Shannon value
        argv = ("xent special q-gaussian --p-family gamma --p k=2.5,theta=0.7 --mean 0.5 "
                "--var 2 --alpha").split()
        code, near, err = run_cli(argv + ["1.0000000005"])
        assert (code, err) == (0, "")
        shannon = float(run_cli(argv + ["1"])[1])
        assert abs(float(near) - shannon) <= 1e-9

    def test_missing_variant_option(self, capsys):
        code = main("xent special q-exponential --p-family exponential --p rate=2 --alpha 2".split())
        assert code == 1

    @pytest.mark.parametrize("argv, message", [
        ("xent special q-half-normal --p-family exponential --p lambda=1 --var nan --alpha 1",
         "must be finite"),
        ("xent special q-half-normal --p-family exponential --p lambda=1 --var inf --alpha 2",
         "must be finite"),
        ("xent special q-exponential --p-family gamma --p k=2,theta=1 --rate inf --alpha 2",
         "finite rate"),
        ("xent special q-gaussian --p-family gaussian --p mu=0,var=1 --mean 1e308 --var 1 "
         "--alpha 2", "double range"),
        ("xent special q-gaussian --p-family gaussian --p mu=0,var=1 --mean 1e308 --var 1 "
         "--alpha 1", "double range"),
        ("xent special q-gaussian --p-family gaussian --p mu=0,var=1 --mean 1e308 --var 1 "
         "--alpha 0.5", "double range"),
    ])
    def test_extreme_reference_is_a_typed_error(self, argv, message):
        code, out, err = run_cli(argv.split())
        assert (code, out) == (1, "")
        assert err.startswith("error:") and message in err

    def test_far_gaussian_source_oracle_is_typed(self):
        # (x - mu)^2 overflows a double for |x - mu| > 1.3e154
        code, out, err = run_cli("xent special q-gaussian --p-family gaussian --p mu=1e200,var=1 "
                                 "--mean 0 --var 1e300 --alpha 2 --oracle".split())
        assert (code, out) == (1, "") and err.startswith("error:")

    def test_laplace_source_oracle_matches_closed_form(self):
        # the Laplace density has a kink at its location, where the quadrature splits
        code, out, _ = run_cli("xent special q-gaussian --p-family laplace "
                               "--p mu=1.6681,b=4.365294939636926 --mean -0.3559 "
                               "--var 2.4304334322029684 --alpha 1.138085 --oracle "
                               "--format json".split())
        row = json.loads(out)
        assert code == 0 and abs(row["oracle"] - row["value"]) <= 1e-8

    def test_huge_exponential_rate(self):
        code, out, _ = run_cli("xent special q-exponential --p-family gamma --p k=2,theta=1 "
                               "--rate 1e308 --alpha 2".split())
        assert (code, out) == (0, "709.196208642\n")

    def test_huge_half_normal_variance(self):
        # the oracle reference density needs ln(2 / (pi var)) without forming pi var
        code, out, _ = run_cli("xent special q-half-normal --p-family exponential --p lambda=1 "
                               "--var 1e308 --alpha 2 --format json".split())
        assert code == 0
        value = json.loads(out)["value"]
        assert_allclose(value, 0.5 * math.log(math.pi * 0.5) + 0.5 * math.log(1e308),
                        rtol=1e-12)


class TestMarkovCommand:
    def test_spec_example(self, chain_files, capsys):
        p, q = chain_files
        code = main(f"rate markov --p {p} --q {q} --alpha 2 --finite-n 4000 --oracle".split())
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert float(lines[2].split()[1]) < 5e-3

    @pytest.mark.parametrize("alpha, need", [("1", "n >= 2"), ("2", "n >= 1")])
    @pytest.mark.parametrize("finite_n", [-3, 0])
    def test_block_length_below_the_referee_minimum(self, chain_files, alpha, need, finite_n):
        # the value still prints; the referee names its own minimum
        p, q = chain_files
        words = f"rate markov --p {p} --q {q} --alpha {alpha}".split()
        _, plain_out, _ = run_cli(words)
        code, out, err = run_cli(words + ["--oracle", "--finite-n", str(finite_n)])
        assert (code, out) == (1, plain_out)
        assert err.startswith("error: oracle: ") and need in err

    def test_start_distribution_option(self, chain_files, tmp_path, capsys):
        p, q = chain_files
        init = tmp_path / "init.csv"
        init.write_text("1.0,0.0\n")
        code = main(f"rate markov --p {p} --q {q} --p-init {init} --alpha 2".split())
        assert code == 0

    def test_empty_transition_file_is_an_error(self, chain_files, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, out, err = run_cli(f"rate markov --p {empty} --q {chain_files[1]} "
                                 "--alpha 2".split())
        assert (code, out) == (1, "")
        assert err == f"usage error: {empty} holds no numbers\n"

    @pytest.mark.parametrize("command", [
        "xent discrete --p {empty} --q {masses} --alpha 2",
        "rate markov --p {empty} --q {matrix} --alpha 2",
        "rate gauss --x {empty} --y white:1 --alpha 2",
    ])
    def test_empty_input_is_one_usage_line(self, command, chain_files, mass_files, tmp_path):
        import subprocess
        import sys

        empty = tmp_path / "empty.csv"
        empty.write_text("\n")
        argv = command.format(empty=empty, masses=mass_files[1], matrix=chain_files[1]).split()
        proc = subprocess.run([sys.executable, "-m", "rxent", *argv], capture_output=True,
                              text=True)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"usage error: {empty} holds no numbers\n"

    def test_shannon_marker(self, chain_files, capsys):
        p, q = chain_files
        code = main(f"rate markov --p {p} --q {q} --alpha 1 --oracle".split())
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert float(lines[2].split()[1]) < 1e-9


class TestGaussCommand:
    def test_white_noise_pair(self, capsys):
        code = main("rate gauss --x white:4 --y white:1 --alpha 2".split())
        assert code == 0
        assert_allclose(float(capsys.readouterr().out), 0.5 * math.log(10 * math.pi),
                        rtol=1e-10)

    def test_ar1_with_oracle(self, capsys):
        code = main(
            "rate gauss --x ar1:0.6 --y ar1:0.3,1.5 --alpha 2 --finite-n 512 "
            "--oracle".split()
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert float(lines[2].split()[1]) < 1e-3

    def test_autocov_file(self, tmp_path, capsys):
        seq = tmp_path / "r.csv"
        seq.write_text("\n".join(str(v) for v in 0.6 ** np.arange(100)))
        code = main(f"rate gauss --x {seq} --y white:1 --alpha 2".split())
        assert code == 0
        main("rate gauss --x ar1:0.6 --y white:1 --alpha 2".split())
        # truncated-series and closed-psd routes agree to printed precision
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0][:10] == out[1][:10]

    @pytest.mark.parametrize("alpha", ["0.5", "2"])
    def test_aliased_autocov_file_refused(self, tmp_path, alpha):
        # r_0 = 1, r_4096 = 0.75: the density 1 + 1.5 cos(4096 w) dips to -0.5
        # between the nodes of a 4096-point grid
        r = np.zeros(4097)
        r[0], r[4096] = 1.0, 0.75
        seq = tmp_path / "aliased.csv"
        seq.write_text("\n".join(str(v) for v in r))
        code, out, err = run_cli(f"rate gauss --x {seq} --y white:1 --alpha {alpha}".split())
        assert (code, out) == (1, "")
        assert err.startswith("error: spectral density") and err.count("\n") == 1

    def test_tiny_variance_is_valid(self):
        # the density floor is relative to r_0: 1e-13 was refused as a dip
        assert run_cli("rate gauss --x white:1e-13 --y white:1 --alpha 2".split()) == (
            0, "0.918938533205\n", "")

    def test_divergence_exits_two(self, capsys):
        code = main("rate gauss --x ar1:0.6 --y ar1:-0.3,2 --alpha 0.5".split())
        assert code == 2
        assert capsys.readouterr().out.strip() == "inf"

    def test_shannon_marker(self, capsys):
        # (1/2) ln 2 pi + (1/2) (ln w + v / w) for white noise v against w
        code = main("rate gauss --x white:1 --y white:2 --alpha 1".split())
        assert code == 0
        assert_allclose(float(capsys.readouterr().out),
                        0.5 * (math.log(2 * math.pi) + math.log(2.0) + 0.5), rtol=1e-11)


class TestOutputFormats:
    def test_json_single(self, capsys):
        main(
            "xent expfam --family exponential --p lambda=2 --q lambda=3 "
            "--alpha 2 --oracle --format json".split()
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "xent expfam"
        assert payload["alpha"] == 2.0
        assert_allclose(payload["value"], math.log(5 / 6), rtol=1e-12)
        assert payload["gap"] < 1e-8

    def test_json_gap_of_matching_infinities_is_zero(self, capsys):
        # value and oracle both diverge: the gap is 0, and the output is
        # strict JSON (no NaN constant)
        def no_constants(name):
            raise AssertionError(f"non-JSON constant {name}")

        code = main("xent expfam --family gaussian --p mu=0,var=1 --q mu=0,var=0.01 "
                    "--alpha 0.5 --oracle --format json".split())
        assert code == 2
        payload = json.loads(capsys.readouterr().out, parse_constant=no_constants)
        assert payload["value"] == payload["oracle"] == "inf"
        assert payload["gap"] == 0.0

    def test_json_infinity_is_string(self, capsys):
        main(
            "xent expfam --family gaussian --p mu=0,var=4 --q mu=0,var=1 "
            "--alpha 0.5 --format json".split()
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == "inf"

    def test_csv_single_with_oracle(self, capsys):
        main(
            "xent expfam --family exponential --p lambda=2 --q lambda=3 "
            "--alpha 2 --oracle --format csv".split()
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "alpha,value,oracle,gap"
        assert lines[1].startswith("2,")

    def test_sweep_csv(self, capsys):
        code = main(
            "sweep expfam --family exponential --p lambda=1 --q lambda=2 "
            "--alphas 0.5:5:0.5 --format csv".split()
        )
        # the alpha = 0.5 row diverges (lambda_h = 0), so the exit code
        # signals an infinity in the output
        assert code == 2
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "alpha,value"
        assert len(lines) == 11
        assert lines[1] == "0.5,inf"
        assert lines[2].startswith("1,")  # the grid point at 1, Shannon limit
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == sorted(values, reverse=True)

    def test_sweep_matches_closed_form_column(self, capsys):
        main(
            "sweep expfam --family gaussian --p mu=0,var=1 --q mu=0,var=1 "
            "--alphas 2:5:1.5 --format csv".split()
        )
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        for line in lines:
            a_text, v_text = line.split(",")
            a = float(a_text)
            expected = 0.5 * (math.log(2 * math.pi) + math.log(a) / (a - 1.0))
            assert_allclose(float(v_text), expected, rtol=1e-10)

    def test_sweep_json(self, capsys):
        main(
            "sweep expfam --family exponential --p lambda=1 --q lambda=2 "
            "--alphas 2:3:0.5 --format json".split()
        )
        payload = json.loads(capsys.readouterr().out)
        assert [row["alpha"] for row in payload] == [2.0, 2.5, 3.0]
        assert all(row["command"] == "xent expfam" for row in payload)

    def test_sweep_plain(self, capsys):
        main(
            "sweep expfam --family exponential --p lambda=1 --q lambda=2 "
            "--alphas 2:3:1 --format plain".split()
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 and all(" " in line for line in lines)

    def test_monotonicity_warning(self, capsys, monkeypatch):
        from rxent import cli

        def fake(opts):  # values rising with the order, no referee
            return (lambda alphas: [1.0, 2.0]), None

        monkeypatch.setitem(cli._TARGETS, "discrete",
                            cli._TARGETS["discrete"]._replace(prepare=fake))
        job = parse_args("sweep discrete --p a --q b --alphas 2:3:1".split())
        code, text = cli.run(job)
        assert code == 0
        assert "not non-increasing" in capsys.readouterr().err


class TestEnvironment:
    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "rxent", "xent", "expfam", "--family",
             "gaussian", "--p", "mu=0,var=1", "--q", "mu=0,var=1", "--alpha", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1.26551212348"


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def sweep_inputs(tmp_path, chain_files, mass_files):
    """Per target: (single command words, options with CSV inputs, grid).
    Grid points are binary fractions, so a printed order parses back to
    the same float."""
    p, q = chain_files
    pm, qm = mass_files
    cov1, cov2, init, autocov = (tmp_path / n for n in ("c1.csv", "c2.csv", "i.csv", "r.csv"))
    cov1.write_text("2.0,0.3\n0.3,1.0\n")
    cov2.write_text("1.5,-0.2\n-0.2,0.8\n")
    init.write_text("0.25,0.75\n")
    autocov.write_text("2.0\n0.6\n-0.2\n")
    return {
        "discrete": ("xent discrete", f"--p {pm} --q {qm}", "0.5:2:0.25"),
        "expfam": ("xent expfam", f"--family mvgauss --p {cov1} --q {cov2}", "0.5:2:0.25"),
        "special": ("xent special",
                    "q-exponential --p-family gamma --p k=2,theta=0.5 --rate 1.5",
                    "0.5:2:0.25"),
        "markov": ("rate markov", f"--p {p} --q {q} --p-init {init}", "0.5:2:0.25"),
        "gauss": ("rate gauss", f"--x {autocov} --y ar1:0.3,2", "0.25:2.75:0.5"),
    }


class TestSweepParsesOnce:
    @pytest.mark.parametrize("target", ["discrete", "expfam", "special", "markov", "gauss"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_equal_single_evaluations(self, sweep_inputs, target, fmt):
        single, opts, grid = sweep_inputs[target]
        code, out, _ = run_cli(f"sweep {target} {opts} --alphas {grid} --bits "
                               f"--format {fmt}".split())
        assert code in (0, 2)  # 2: some order diverges
        if fmt == "csv":
            rows = out.splitlines()[1:]
            orders = [row.split(",")[0] for row in rows]
        else:
            rows = json.loads(out)
            orders = [format(row["alpha"], ".12g") for row in rows]
        assert len(rows) >= 6
        for order, row in zip(orders, rows):
            code, one, _ = run_cli(f"{single} {opts} --alpha {order} --bits "
                                   f"--format {fmt}".split())
            assert code in (0, 2)
            if fmt == "csv":
                assert one.splitlines()[1] == row
            else:
                assert json.dumps(json.loads(one)) == json.dumps(row)

    def test_each_file_read_once(self, sweep_inputs, chain_files, tmp_path, monkeypatch):
        reads = []
        original = np.loadtxt

        def counting(path, *args, **kwargs):
            reads.append(str(path))
            return original(path, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting)
        p, q = chain_files
        init = tmp_path / "i.csv"
        code, _, _ = run_cli(f"sweep markov --p {p} --q {q} --p-init {init} --q-init {init} "
                             "--alphas 0.5:2:0.25".split())
        assert code == 0
        assert sorted(reads) == sorted([p, q, str(init), str(init)])

    def test_markov_sweep_classifies_at_most_twice(self, tmp_path, monkeypatch):
        from rxent import markov

        calls = []
        original = markov.classify
        monkeypatch.setattr(markov, "classify", lambda m: calls.append(m.shape) or original(m))
        p, q = tmp_path / "P.csv", tmp_path / "Q.csv"
        p.write_text("0.5,0.5,0\n0,0.7,0.3\n0,0.4,0.6\n")
        q.write_text("0.2,0.3,0.5\n0.3,0.3,0.4\n0.1,0.8,0.1\n")
        code, out, _ = run_cli(f"sweep markov --p {p} --q {q} --alphas 0.1:5:0.1".split())
        assert code == 0 and len(out.splitlines()) == 1 + 50
        assert 1 <= len(calls) <= 2

    def test_markov_sweep_solves_once_per_class_and_pattern(self, tmp_path, monkeypatch):
        from rxent import markov

        groups, solves = [], []
        classify, eig = markov.classify, np.linalg.eig
        monkeypatch.setattr(markov, "classify", lambda m: groups.append(1) or classify(m))
        monkeypatch.setattr(np.linalg, "eig", lambda m: solves.append(m.shape) or eig(m))
        p, q = tmp_path / "P.csv", tmp_path / "Q.csv"
        p.write_text("0.5,0.5,0\n0,0.7,0.3\n0,0.4,0.6\n")  # two classes, both reachable
        q.write_text("0.2,0.3,0.5\n0.3,0.3,0.4\n0.1,0.8,0.1\n")
        code, out, _ = run_cli(f"sweep markov --p {p} --q {q} --alphas 0.1:5:0.1".split())
        assert code == 0 and len(out.splitlines()) == 1 + 50
        assert 1 <= len(solves) <= 2 * len(groups)

    def test_mvgauss_sweep_takes_the_eigenvalues_once(self, sweep_inputs, monkeypatch):
        from rxent import differential

        calls = []
        original = differential.relative_eigenvalues
        monkeypatch.setattr(differential, "relative_eigenvalues",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        _, opts, _ = sweep_inputs["expfam"]
        code, out, _ = run_cli(f"sweep expfam {opts} --alphas 0.05:5:0.05".split())
        assert code in (0, 2) and len(out.splitlines()) == 1 + 100
        assert len(calls) == 1

    def test_gauss_sweep_is_one_rate_call(self, sweep_inputs, monkeypatch):
        from rxent import gaussproc

        calls = []
        original = gaussproc.rate_spectral
        monkeypatch.setattr(gaussproc, "rate_spectral",
                            lambda x, y, alpha: calls.append(alpha) or original(x, y, alpha))
        _, opts, _ = sweep_inputs["gauss"]
        code, out, _ = run_cli(f"sweep gauss {opts} --alphas 1.05:3.5:0.05".split())
        assert code == 0 and len(out.splitlines()) == 1 + 50
        assert len(calls) == 1

    def test_gauss_sweep_evaluates_each_level_once(self, sweep_inputs, monkeypatch):
        from rxent import gaussproc

        calls = {}
        original = gaussproc._level_psd

        def counting(spec, j):
            calls[id(spec), j] = calls.get((id(spec), j), 0) + 1
            return original(spec, j)

        monkeypatch.setattr(gaussproc, "_level_psd", counting)
        _, opts, _ = sweep_inputs["gauss"]
        code, out, _ = run_cli(f"sweep gauss {opts} --alphas 1.05:3.5:0.05".split())
        assert code == 0 and len(out.splitlines()) == 1 + 50
        assert calls and set(calls.values()) == {1}  # once per spec and level
        assert len({spec for spec, _ in calls}) == 2

    def test_one_parser_per_process(self):
        from rxent import cli

        cli.build_parser.cache_clear()
        for _ in range(2):
            run_cli("xent expfam --family exponential --p lambda=1 --q lambda=2 "
                    "--alpha 2".split())
        assert cli.build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("sweep, single, message", [
        ("sweep special q-exponential --p-family gamma --p k=2,theta=1 --rate -1 "
         "--alphas 0.5:2:0.5",
         "xent special q-exponential --p-family gamma --p k=2,theta=1 --rate -1 --alpha 0.5",
         "exponential reference needs rate > 0"),
        ("sweep markov --p {bad} --q {q} --alphas 0.5:2:0.5",
         "rate markov --p {bad} --q {q} --alpha 0.5",
         "row 0 sums to"),
        ("sweep markov --p {p} --q {zero} --alphas 0.5:2:0.5",
         "rate markov --p {p} --q {zero} --alpha 0.5",
         "strictly positive reference"),
        # 0.7 diverges, 0.75 is the edge where the trapezoid cannot settle
        ("sweep gauss --x ar1:0.6 --y white:1 --alphas 0.7:0.8:0.05",
         "rate gauss --x ar1:0.6 --y white:1 --alpha 0.75",
         "did not stabilize"),
    ])
    def test_first_error_unchanged(self, chain_files, tmp_path, sweep, single, message):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.5,0.4\n0.5,0.5\n")
        zero = tmp_path / "zero.csv"
        zero.write_text("1.0,0.0\n0.5,0.5\n")
        names = {"bad": bad, "q": chain_files[1], "p": chain_files[0], "zero": zero}
        swept = run_cli(sweep.format(**names).split())
        alone = run_cli(single.format(**names).split())
        assert swept == alone
        assert swept[0] == 1 and message in swept[2]
        assert swept[2].count("\n") == 1  # one error line


@pytest.mark.parametrize("target", ["discrete", "expfam", "special", "markov", "gauss"])
def test_json_command_is_group_and_target(sweep_inputs, target):
    single, opts, grid = sweep_inputs[target]
    expected = {"discrete": "xent discrete", "expfam": "xent expfam",
                "special": "xent special", "markov": "rate markov",
                "gauss": "rate gauss"}[target]
    _, one, _ = run_cli(f"{single} {opts} --alpha 2 --format json".split())
    assert json.loads(one)["command"] == expected
    _, swept, _ = run_cli(f"sweep {target} {opts} --alphas {grid} --format json".split())
    rows = json.loads(swept)
    assert rows and all(row["command"] == expected for row in rows)


class TestMalformedNumbers:
    def test_process_variance(self, capsys):
        assert main("rate gauss --x white:abc --y white:1 --alpha 2".split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "'abc'" in err and "--x" in err

    def test_process_second_field(self, capsys):
        assert main("rate gauss --x white:1 --y ar1:0.5,x --alpha 2".split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "'x'" in err and "--y" in err

    @pytest.mark.parametrize("args", ["--x ar1:0.5,1,7 --y white:1",
                                      "--x white:1 --y ar1:0.5,1,7"])
    def test_process_extra_field(self, args, capsys):
        assert main(f"rate gauss {args} --alpha 2".split()) == 1
        captured = capsys.readouterr()
        flag = "--x" if args.startswith("--x ar1") else "--y"
        assert captured.out == ""
        assert captured.err.startswith("usage error:") and "ar1:0.5,1,7" in captured.err
        assert flag in captured.err

    def test_csv_cell(self, tmp_path, mass_files, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.5,abc,0.2\n")
        assert main(f"xent discrete --p {bad} --q {mass_files[1]} --alpha 2".split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and str(bad) in err and "abc" in err
